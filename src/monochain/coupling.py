"""Order-preserving couplings driven by shared randomness.

Two copies of a chain start from an ordered pair x <= y and consume identical
random inputs; the construction keeps the dominance order after every step
while each coordinate still moves by its own exact kernel.  Coalescence (the
first step with equal states) therefore bounds the total variation distance
between the two laws.

Labels 0..N-1 are reassigned fresh from the current pair at every step and
held as at most 2d block boundaries, never label by label.  Population 1
numbers its individuals through the species blocks of x in order, so a label
bisects the cumulative counts of x.  Population 2 shares every label below
the cut N - x_d + y_d and parks its surplus individuals (one per unit of
y_i - x_i, i < d) on the labels from the cut up in ascending species order,
so those labels bisect the cumulative surpluses.  Every label then either
carries the same species in both populations or species d in population 1 and
some species < d in population 2 -- the property all removal steps rely on.
A coupled step costs O(d + s log d), whatever N is.

Shared categorical decisions use one uniform each.  When the two populations
draw from different distributions p (population 1) and q (population 2) with
q dominating p off the last index, population 2 reads the uniform through
rearranged intervals: the p-intervals of the first d-1 indices first, then the
surplus segments q_i - p_i in index order, then the common tail.  Population 1
lands on index d exactly when the uniform leaves the shared prefix, in which
case population 2 may land anywhere, and on index i < d otherwise, in which
case population 2 lands on the same i.

A step reads its draws straight from the bit generator through numpy's
ctypes interface, ``rng.bit_generator.ctypes``: ``_below`` and ``_uniform``
give the values ``rng.integers(0, n)`` and ``rng.random()`` would, in the same
order, and leave the generator in the same state, at a fraction of the cost
of a Generator call.  A ctypes call releases the GIL, so a step holds
``rng.bit_generator.lock`` from its first draw to its last, as each Generator
method does for its own draw, and calls no Generator method meanwhile (the
lock is not reentrant).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import NamedTuple

import numpy as np

from .errors import CouplingOrderError, ValidationError
from .kernels import ModelSpec, MoranGeneral, MutationMatrix, UrnSpec, expand_standard
from .spectral import ConditionReport, classify_conditions
from .statespace import Composition, partial_leq, validate_composition


class CoupledPair(NamedTuple):
    x: Composition
    y: Composition


def _blocks(x, y) -> tuple[list[int], int, list[int]]:
    """Block form of the labeling: (block ends of x, cut, surplus ends)."""
    ends = list(accumulate(x))
    return ends, ends[-1] - x[-1] + y[-1], list(accumulate(map(sub, y[:-1], x)))


def _species(ends, cut, surplus, lbl: int) -> tuple[int, int]:
    """(population 1 species, population 2 species) of a label below N."""
    if lbl < cut:
        sp = bisect_right(ends, lbl)
        return sp, sp
    # Population 1's last block holds every label from the cut up.
    return len(ends) - 1, bisect_right(surplus, lbl - cut)


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


_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1


def _below(bits, n: int) -> int:
    """One draw from range(n): ``rng.integers(0, n)`` read off ``bits``.

    ``bits`` is ``rng.bit_generator.ctypes``.  Lemire's multiply-and-shift
    rejection (Lemire 2019), as numpy's Generator makes it: 32-bit words while
    n <= 2^32, 64-bit words beyond, no draw at n = 1.  Results and the
    generator's state afterwards equal those of the Generator method, which
    also raises ValueError on an empty range.
    """
    if n <= 1:
        if n == 1:
            return 0
        raise ValueError(f"cannot draw from range({n})")
    if n <= _MASK32 + 1:
        draw, width, mask = bits.next_uint32, 32, _MASK32
    else:
        draw, width, mask = bits.next_uint64, 64, _MASK64
    state = bits.state
    m = draw(state) * n
    if m & mask < n:
        threshold = (mask + 1 - n) % n
        while m & mask < threshold:
            m = draw(state) * n
    return m >> width


def _uniform(bits) -> float:
    """``rng.random()`` read off ``bits`` (``rng.bit_generator.ctypes``)."""
    return bits.next_double(bits.state)


def _draw_distinct(bits, n: int, k: int) -> list[int]:
    """k distinct labels from range(n): partial Fisher-Yates, storing swapped slots only.

    One bounded draw per label.  One or two labels need no store: the second
    draw lands on the first label's slot only to take slot 0's label.
    """
    if k == 1:
        return [_below(bits, n)]
    if k == 2:
        first = _below(bits, n)
        j = 1 + _below(bits, n - 1)
        return [first, 0 if j == first else j]
    moved: dict[int, int] = {}
    out = []
    for t in range(k):
        j = t + _below(bits, n - t)
        out.append(moved.get(j, j))
        moved[j] = moved.get(t, t)
    return out


def _check_order(x, y) -> None:
    for i in range(len(x) - 1):
        if x[i] > y[i]:
            raise CouplingOrderError(f"coupled step broke the order: {x} !<= {y}")


def coupled_moran_step(M: MutationMatrix, pair: CoupledPair,
                       rng: np.random.Generator) -> CoupledPair:
    """One coupled Moran step: shared death and parent labels, shared mutation uniform.

    Requires a mutation matrix with dominated last row (one of the
    monotonicity conditions); otherwise the rearranged mutation intervals are
    invalid.  Marginals follow the exact Moran row of each population.
    """
    x, y = pair
    ends, cut, surplus = _blocks(x, y)
    n = ends[-1]

    bit_generator = rng.bit_generator
    bits = bit_generator.ctypes
    with bit_generator.lock:
        death = _below(bits, n)
        parent = _below(bits, n)
        u = _uniform(bits)

    s1, s2 = _species(ends, cut, surplus, parent)
    if s1 == s2:
        # Shared label range: both offspring mutate through the same row.
        born1 = born2 = bisect_left(M.cum_rows[s1], u)
    else:
        # Extra label: population 1's parent is species d, population 2's is
        # s2 < d, whose row dominates row d off the last column.
        born1, born2 = dominated_pick(u, M.rows[-1], M.rows[s2])

    dead1, dead2 = _species(ends, cut, surplus, death)
    xn = list(x)
    xn[born1] += 1
    xn[dead1] -= 1
    yn = list(y)
    yn[born2] += 1
    yn[dead2] -= 1
    _check_order(xn, yn)
    return CoupledPair(tuple(xn), tuple(yn))


def _coupled_adds(spec: UrnSpec, cx, cy, n_balls, out1, out2, bits, added=None) -> None:
    """s shared additions drawn with counts cx, cy (n_balls balls) in the urns.

    Population 1 draws by the weights of cx, population 2 by those of cy; each
    draw adds the spec's increment to the weight it picks.  The balls go into
    the count lists out1 and out2, and their urn pairs onto ``added`` if given
    (up-down, whose draws are always reinforced).  Draws that add nothing read
    the spec's own weights in both populations, where dominated_pick is plain
    pick_index: both land on the same urn.
    """
    uniform, state = bits.next_double, bits.state
    if not spec.reinforced:
        cum, total = spec.cum_weights, spec.weight_total
        for _ in range(spec.s):
            i = bisect_left(cum, uniform(state) * total)
            out1[i] += 1
            out2[i] += 1
        return
    w1, total = spec.add_weights(cx, n_balls)
    w2, _ = spec.add_weights(cy, n_balls)
    inc = spec.inc
    for _ in range(spec.s):
        i1, i2 = dominated_pick(uniform(state) * total, w1, w2)
        w1[i1] += inc
        w2[i2] += inc
        out1[i1] += 1
        out2[i2] += 1
        if added is not None:
            added.append((i1, i2))
        total += inc


def coupled_urn_step(spec: UrnSpec, pair: CoupledPair, rng: np.random.Generator) -> CoupledPair:
    """One coupled urn step (level, up-down, or down-up order).

    All orders share mark labels and one uniform per addition; they differ
    only in when the marked balls leave relative to the additions.  Up-down
    gives the s added balls labels N..N+s-1 (same per-label species property)
    before marking out of N + s.  Non-reinforced additions draw from the same
    weights in both populations, so both land on the same urn.
    """
    x, y = pair
    n, s = spec.N, spec.s
    ends, cut, surplus = _blocks(x, y)
    xn, yn = list(x), list(y)
    added: list[tuple[int, int]] = []
    bit_generator = rng.bit_generator
    bits = bit_generator.ctypes
    with bit_generator.lock:
        if spec.order == "updown":
            _coupled_adds(spec, x, y, n, xn, yn, bits, added)
        # Under up-down the marks fall among the N + s balls now present.
        for lbl in _draw_distinct(bits, n + len(added), s):
            s1, s2 = _species(ends, cut, surplus, lbl) if lbl < n else added[lbl - n]
            xn[s1] -= 1
            yn[s2] -= 1
        if spec.order == "level":
            # The additions reinforce the pre-removal weights (marked balls
            # still present while the draws happen).
            _coupled_adds(spec, x, y, n, xn, yn, bits)
        elif spec.order == "downup":
            _coupled_adds(spec, xn, yn, n - s, xn, yn, bits)
    _check_order(xn, yn)
    return CoupledPair(tuple(xn), tuple(yn))


def coupled_step(spec: ModelSpec, pair: CoupledPair, rng: np.random.Generator) -> CoupledPair:
    """Dispatch one coupled step for any model spec."""
    if isinstance(spec, UrnSpec):
        return coupled_urn_step(spec, pair, rng)
    return coupled_moran_step(expand_standard(spec).M, pair, rng)


@lru_cache(maxsize=8)
def mutation_conditions(M: MutationMatrix) -> ConditionReport:
    """classify_conditions(M), made once per matrix.

    A mutation matrix is immutable and hashed by identity, so the replicates
    of one run, and the eigendata of a ``couple`` command, share a single
    check and its Perron run.
    """
    return classify_conditions(M)


def run_coupled(spec: ModelSpec, x0: Composition, y0: Composition,
                max_steps: int, rng: np.random.Generator, keep_steps: int | None = None
                ) -> tuple[list[CoupledPair], int | None]:
    """Run a coupled trajectory until coalescence or the step budget.

    Returns the trajectory (the start pair, then the first ``keep_steps``
    steps, or every step when None) and the first step at which the chains
    coincide, or None if they never do within max_steps.  Once equal the
    chains share every subsequent draw, so equality persists.
    """
    spec = expand_standard(spec)
    n, d = spec.N, spec.d
    x0 = validate_composition(x0, n, d)
    y0 = validate_composition(y0, n, d)
    if not partial_leq(x0, y0):
        raise ValidationError(f"start pair is not ordered: {x0} !<= {y0}")
    if isinstance(spec, MoranGeneral) and not mutation_conditions(spec.M).any_holds:
        raise ValidationError(
            "coupled Moran steps need a mutation matrix satisfying a "
            "dominated-last-row monotonicity condition"
        )

    pair = CoupledPair(x0, y0)
    trajectory = [pair]
    if x0 == y0:
        return trajectory, 0
    kept = max_steps if keep_steps is None else keep_steps
    for step in range(1, max_steps + 1):
        pair = coupled_step(spec, pair, rng)
        if step <= kept:
            trajectory.append(pair)
        if pair.x == pair.y:
            return trajectory, step
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
