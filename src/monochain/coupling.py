"""Order-preserving couplings driven by shared randomness.

Two copies of a chain start from an ordered pair x <= y and consume identical
random inputs; the construction keeps the dominance order after every step
while each coordinate still moves by its own exact kernel.  Coalescence (the
first step with equal states) therefore bounds the total variation distance
between the two laws.

Labels 0..N-1 are reassigned fresh from the current pair at every step and
held as species blocks, never label by label.  Population 1 numbers its
individuals through the species blocks of x in order, so a label falls in
the block of x whose running count first exceeds it.  Population 2 shares
every label below the cut N - x_d + y_d and parks its surplus individuals
(one per unit of y_i - x_i, i < d) on the labels from the cut up in
ascending species order, so those labels fall in the blocks of the
surpluses.  Every label then either carries the same species in both
populations or species d in population 1 and some species < d in
population 2 -- the property all removal steps rely on.  A label's species
is found by walking the d blocks, so a coupled step costs O(s d), whatever
N is.

Shared categorical decisions use one uniform each.  When the two populations
draw from different distributions p (population 1) and q (population 2) with
q dominating p off the last index, population 2 reads the uniform through
rearranged intervals: the p-intervals of the first d-1 indices first, then the
surplus segments q_i - p_i in index order, then the common tail.  Population 1
lands on index d exactly when the uniform leaves the shared prefix, in which
case population 2 may land anywhere, and on index i < d otherwise, in which
case population 2 lands on the same i.

A step reads its draws straight from the bit generator through numpy's
ctypes interface, ``rng.bit_generator.ctypes``: the ``below(n)`` and
``next_double`` that ``kernels._draws``, the one binding helper, binds give
the values ``rng.integers(0, n)`` and ``rng.random()`` would, in the same
order, and leave the generator in the same state, at a fraction of the cost
of a Generator call.  Each family has one step body.  A ctypes call releases
the GIL, so the draws are made under ``rng.bit_generator.lock``, as each
Generator method makes its own: ``run_coupled`` binds the draws once per
replicate and holds the lock for a whole trajectory, and ``coupled_step``
holds it for one step, so another thread drawing from the same generator
waits for the trajectory to end.  Neither calls a Generator method
meanwhile: in some numpy versions the lock is not reentrant.

``coupled_step`` keeps a one-slot record of its last successful call: the
bit generator with its bound draws, and the spec with the pair it returned.
A call with the same bit generator reuses the draws, and a call given back
that very pair (``is``) with the same spec object skips validating it, since
a step from a valid ordered pair yields one (the order is checked after
every step, and tuples are immutable).  Any other pair is validated.  The
record is one tuple, read once and replaced in one assignment, so a thread
sees either the old record or the new one, never a mix of two calls; and it
holds at most one generator alive.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, CouplingOrderError, ValidationError
from .kernels import ModelSpec, UrnSpec, _draws, as_integer
from .spectral import classify_conditions
from .statespace import Composition, partial_leq, validate_composition


class CoupledPair(NamedTuple):
    x: Composition
    y: Composition


# CoupledPair(x, y) without the Python-level __new__ of a NamedTuple, as its
# _make builds it: one for each coupled step made or kept.
_new_pair = tuple.__new__


def dominated_pick(v: float, w_low, w_high) -> tuple[int, int]:
    """Shared-uniform pick from two weight vectors with rearranged intervals.

    ``w_high`` must dominate ``w_low`` entrywise off the last index, with
    equal totals; ``v`` is a uniform scaled to that total.  Returns the pair
    (index for the low chain, index for the high chain).  The low pick is
    plain CDF inversion of w_low; the high pick reads the shared prefix
    first, then the surplus segments w_high - w_low in index order.  Ties at
    segment boundaries resolve to the lower index.
    """
    last = len(w_low) - 1
    cum = 0.0
    for t in range(last):
        cum += w_low[t]
        if v <= cum:
            return t, t
    # Past the shared prefix: the low chain takes the last index.
    for t in range(last):
        cum += w_high[t] - w_low[t]
        if v <= cum:
            return last, t
    return last, last


def _draw_distinct(below, n: int, k: int) -> list[int]:
    """k distinct labels from range(n): partial Fisher-Yates, storing swapped slots only.

    One bounded draw per label.  Two labels need no store: the second draw
    lands on the first label's slot only to take slot 0's label.
    """
    if k == 2:
        first = below(n)
        j = 1 + below(n - 1)
        return [first, 0 if j == first else j]
    moved: dict[int, int] = {}
    out = []
    for t in range(k):
        j = t + below(n - t)
        out.append(moved.get(j, j))
        moved[j] = moved.get(t, t)
    return out


def _check_order(x, y) -> None:
    for i in range(len(x) - 1):
        if x[i] > y[i]:
            raise CouplingOrderError(f"coupled step broke the order: {x} !<= {y}")


def _species(x, y, cut: int, lbl: int) -> tuple[int, int]:
    """(population 1 species, population 2 species) of a label below N.

    A label below the cut falls in the same block of x in both populations.
    One from the cut up is species d in population 1, and in population 2 it
    falls in a block of the surpluses y_i - x_i, i < d.  The blocks are
    walked in order, which for the few species of a model beats forming
    their cumulative counts.
    """
    sp = 0
    if lbl < cut:
        lbl -= x[0]
        while lbl >= 0:
            sp += 1
            lbl -= x[sp]
        return sp, sp
    lbl -= cut + y[0] - x[0]
    while lbl >= 0:
        sp += 1
        lbl -= y[sp] - x[sp]
    return len(x) - 1, sp


def _moran_step(spec: ModelSpec, draws, x, y):
    """One coupled Moran step (x, y) -> (x', y'), as count lists, reading ``draws``.

    Shared death and parent labels, shared mutation uniform.  Requires a
    mutation matrix with dominated last row (one of the monotonicity
    conditions); otherwise the rearranged mutation intervals are invalid.
    Marginals follow the exact Moran row of each population.
    """
    below, next_double, state = draws
    n = spec.N
    cut = n - x[-1] + y[-1]
    death, parent, u = below(n), below(n), next_double(state)
    M = spec.M
    s1, s2 = _species(x, y, cut, parent)
    if s1 == s2:
        # Shared label range: both offspring mutate through the same row.
        born1 = born2 = bisect_left(M.cum_rows[s1], u)
    else:
        # Surplus label: population 1's parent is species d, population 2's
        # is s2 < d, whose row dominates row d off the last column.
        born1, born2 = dominated_pick(u, M.rows[-1], M.rows[s2])
    dead1, dead2 = _species(x, y, cut, death)
    xn, yn = list(x), list(y)
    xn[born1] += 1
    xn[dead1] -= 1
    yn[born2] += 1
    yn[dead2] -= 1
    return xn, yn


def _coupled_adds(spec: UrnSpec, cx, cy, n_balls, out1, out2, next_double, state,
                  added=None) -> None:
    """s shared additions drawn with counts cx, cy (n_balls balls) in the urns.

    Population 1 draws by the weights of cx, population 2 by those of cy; each
    draw adds the spec's increment to the weight it picks and reads one
    uniform, ``next_double(state)``.  The balls go into the count lists out1
    and out2, and their urn pairs onto ``added`` if given (up-down, whose
    draws are always reinforced).  Draws that add nothing read the spec's own
    weights in both populations, where dominated_pick is plain pick_index:
    both land on the same urn.
    """
    if not spec.reinforced:
        cum, total = spec.cum_weights, spec.weight_total
        for _ in range(spec.s):
            i = bisect_left(cum, next_double(state) * total)
            out1[i] += 1
            out2[i] += 1
        return
    w1, total = spec.add_weights(cx, n_balls)
    w2, _ = spec.add_weights(cy, n_balls)
    inc = spec.inc
    for _ in range(spec.s):
        i1, i2 = dominated_pick(next_double(state) * total, w1, w2)
        w1[i1] += inc
        w2[i2] += inc
        out1[i1] += 1
        out2[i2] += 1
        if added is not None:
            added.append((i1, i2))
        total += inc


def _urn_step(spec: UrnSpec, draws, x, y):
    """One coupled urn step (x, y) -> (x', y'), as count lists, reading ``draws``.

    All orders (level, up-down, down-up) share mark labels and one uniform
    per addition; they differ only in when the marked balls leave relative
    to the additions.  Up-down gives the s added balls labels N..N+s-1 (same
    per-label species property) before marking out of N + s.
    Non-reinforced additions draw from the same weights in both populations,
    so both land on the same urn.
    """
    below, next_double, state = draws
    n, s, order = spec.N, spec.s, spec.order
    cut = n - x[-1] + y[-1]
    xn, yn = list(x), list(y)
    added: list[tuple[int, int]] = []
    if order == "updown":
        _coupled_adds(spec, x, y, n, xn, yn, next_double, state, added)
    # Under up-down the marks fall among the N + s balls now present.
    for lbl in _draw_distinct(below, n + len(added), s):
        s1, s2 = _species(x, y, cut, lbl) if lbl < n else added[lbl - n]
        xn[s1] -= 1
        yn[s2] -= 1
    if order == "level":
        # The additions reinforce the pre-removal weights (marked balls
        # still present while the draws happen).
        _coupled_adds(spec, x, y, n, xn, yn, next_double, state)
    elif order == "downup":
        _coupled_adds(spec, xn, yn, n - s, xn, yn, next_double, state)
    return xn, yn


def _step_body(spec: ModelSpec):
    """The family's step body ``step(spec, draws, x, y)``."""
    return _urn_step if isinstance(spec, UrnSpec) else _moran_step


def _valid_pair(spec: ModelSpec, x, y) -> tuple[Composition, Composition]:
    """(x, y) as states of ``spec`` with x <= y, else ValidationError.

    A Moran spec's mutation matrix must meet a dominated-last-row condition,
    or the rearranged mutation intervals are invalid (checked once per matrix).
    A label range (N, or N + s up-down) beyond 2^64 raises CapacityError.
    """
    n, d = spec.N, spec.d
    x = validate_composition(x, n, d)
    y = validate_composition(y, n, d)
    if not partial_leq(x, y):
        raise ValidationError(f"pair is not ordered: {x} !<= {y}")
    if not isinstance(spec, UrnSpec) and not classify_conditions(spec.M).any_holds:
        raise ValidationError(
            "coupled Moran steps need a mutation matrix satisfying a "
            "dominated-last-row monotonicity condition"
        )
    labels = n + spec.s if isinstance(spec, UrnSpec) and spec.order == "updown" else n
    if labels > 1 << 64:
        raise CapacityError(f"coupled draws need at most 2^64 labels, got {labels}")
    return x, y


# The last successful coupled_step call's (bit generator, its _draws, spec,
# step body, returned pair), replaced in one assignment.
_last_coupled = (None, None, None, None, None)


def coupled_step(spec: ModelSpec, pair: CoupledPair, rng: np.random.Generator) -> CoupledPair:
    """One coupled step of any model spec from the ordered pair ``pair``.

    The step run_coupled makes, holding ``rng.bit_generator.lock`` for the
    step.  Raises ValidationError, before any draw, unless both states fit
    the spec and x <= y and a Moran spec's mutation matrix meets a
    monotonicity condition, CapacityError, before any draw too, for labels
    beyond 2^64, and CouplingOrderError if the step breaks the order.
    Given back the pair it returned last, with the same spec object, the
    call trusts it: a step from a valid ordered pair that passed the order
    check is one.  It reuses the draws bound for the same bit generator.
    """
    global _last_coupled
    bits = rng.bit_generator
    last_bits, draws, last_spec, step, last_pair = _last_coupled
    if bits is not last_bits:
        draws = _draws(bits.ctypes)
    if spec is not last_spec:
        step = _step_body(spec)
    if pair is last_pair and spec is last_spec:
        x, y = pair
    else:
        x, y = _valid_pair(spec, *pair)
    with bits.lock:
        x, y = step(spec, draws, x, y)
    _check_order(x, y)
    out = _new_pair(CoupledPair, (tuple(x), tuple(y)))
    _last_coupled = (bits, draws, spec, step, out)
    return out


def run_coupled(spec: ModelSpec, x0: Composition, y0: Composition,
                max_steps: int, rng: np.random.Generator, keep_steps: int | None = None
                ) -> tuple[list[CoupledPair], int | None]:
    """Run a coupled trajectory until coalescence or the step budget.

    Returns the trajectory (the start pair, then the first ``keep_steps``
    steps, or every step when None) and the first step at which the chains
    coincide, or None if they never do within max_steps.  Once equal the
    chains share every subsequent draw, so equality persists.
    """
    max_steps = as_integer(max_steps, "max_steps")
    kept = max_steps if keep_steps is None else as_integer(keep_steps, "keep_steps")
    if max_steps < 0 or kept < 0:
        raise ValidationError(
            f"max_steps and keep_steps must be >= 0, got {max_steps} and {keep_steps}")
    x0, y0 = _valid_pair(spec, x0, y0)

    trajectory = [CoupledPair(x0, y0)]
    if x0 == y0:
        return trajectory, 0
    step, draws = _step_body(spec), _draws(rng.bit_generator.ctypes)
    x, y = x0, y0
    with rng.bit_generator.lock:
        for t in range(1, max_steps + 1):
            x, y = step(spec, draws, x, y)
            _check_order(x, y)
            if t <= kept:
                trajectory.append(_new_pair(CoupledPair, (tuple(x), tuple(y))))
            if x == y:
                return trajectory, t
    return trajectory, None


def trajectory_csv(replicate: int, trajectory, coalesced_at: int | None) -> str:
    """One replicate's CSV lines (replicate, step, x, y, coalesced), counts joined by ';'.

    Byte for byte what ``csv.writer`` writes for these rows: no field needs
    quoting, and every line ends in CRLF.
    """
    counts = ";".join(["%d"] * len(trajectory[0].x))
    line = f"{replicate},%d,{counts},{counts},%d\r\n"
    first = len(trajectory) if coalesced_at is None else coalesced_at
    return "".join([line % (step, *x, *y, step >= first)
                    for step, (x, y) in enumerate(trajectory)])
