"""Transition kernels for the Moran chains and the urn chains.

Entries are read two ways: ``kernel_rows`` builds many states' rows at once
(``transition_row`` on one state), ``transition_prob`` sums one entry's paths.
``removal_rows`` and ``addition_rows`` build the rows of the two stages of a
down-up urn step, whose product is its kernel.

Moran replacement chain on species counts: at each step one individual dies
(uniform), one reproduces (uniform, possibly the same), and the offspring
mutates from species k to species i with probability m_ki, giving

    K(x, x + e_i - e_j) = (x_j / N) * sum_k (x_k / N) m_ki,   i != j.

Urn chains move s balls per step and share one spec, ``UrnSpec(N, s, weights,
order, reinforced)``: remove s balls uniformly and make s weighted additions,
in level, down-up or up-down order, with reinforced (Polya) or plain
(Ehrenfest) draws.  The four families are the tagged (order, reinforced)
pairs: polya_level (level, True), polya_updown (updown, True), polya_downup
(downup, True) and ehrenfest (downup, False).  Their rows collapse to closed
forms: multivariate hypergeometric removals times addition laws evaluated
through rising factorials with step 1 (Dirichlet-multinomial, so non-integer
urn weights work) or 0 (multinomial); an addition law past the float range
raises CapacityError.  The closed forms are gated in the test suite against
brute-force enumeration of the ordered draw sequences.

``sample_step`` draws one transition generatively.  Every categorical decision
consumes exactly one uniform and inverts the CDF in index order, resolving
boundary ties to the lower index, so runs are reproducible given a seed.
The uniforms come straight off the bit generator, through the draws
``_draws`` binds from ``rng.bit_generator.ctypes`` (the coupler's too), and
are read under ``rng.bit_generator.lock``, as a Generator method reads its
own; no Generator method is called under it, since in some numpy versions
the lock is not reentrant.  The sampler keeps the bit generator and output of
its last call: a chain that passes back each state it was given, with one
spec and one generator, binds the draws once and validates only its start.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate
from operator import add, ge, le
from typing import Iterator, Union

import numpy as np

from .errors import CapacityError, ValidationError
from .statespace import Composition, compositions, validate_composition

_ROW_SUM_TOL = 1e-10
_PROB_VEC_TOL = 1e-12


def as_integer(value, name: str) -> int:
    """value as an int, by the rule validate_composition uses.

    Numpy integers pass; bools, floats and strings do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """value as a float: ints and numpy reals pass; bools and strings do not."""
    if type(value) is float:  # the common case, without the slower ABC check
        return value
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _validate_weights(w, name: str) -> tuple[float, ...]:
    wt = tuple(as_real(v, f"{name} entry") for v in w)
    if len(wt) < 2:
        raise ValidationError(f"{name} needs at least 2 entries, got {wt!r}")
    if not all(0.0 < v < math.inf for v in wt):
        raise ValidationError(f"{name} entries must be positive and finite, got {wt!r}")
    return wt


def _validate_prob_vector(p, name: str) -> tuple[float, ...]:
    pt = _validate_weights(p, name)
    if abs(math.fsum(pt) - 1.0) > _PROB_VEC_TOL:
        raise ValidationError(f"{name} must sum to 1, got sum {math.fsum(pt)!r}")
    return pt


class MutationMatrix:
    """Row-stochastic d x d mutation matrix, validated irreducible.

    Irreducibility is checked on the directed graph of strictly positive
    entries (reachability from and to vertex 0), matching the standing
    assumption that makes the replacement chain irreducible and aperiodic.
    """

    def __init__(self, entries):
        try:
            m = np.array(entries, dtype=float)
        except ValueError as exc:
            raise ValidationError(f"malformed mutation matrix: {exc}") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"mutation matrix must be square, got shape {m.shape}")
        for v in np.asarray(entries, dtype=object).flat:
            as_real(v, "mutation matrix entry")
        d = m.shape[0]
        if d < 2:
            raise ValidationError("mutation matrix needs d >= 2")
        if not np.all(m >= 0.0):  # NaN fails too
            raise ValidationError("mutation matrix entries must be >= 0")
        sums = m.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > _PROB_VEC_TOL:
            raise ValidationError(f"mutation matrix rows must sum to 1, got {sums}")
        if not _strongly_connected(m > 0.0):
            raise ValidationError("mutation matrix is reducible")
        m.setflags(write=False)
        self.matrix = m
        self.d = d
        # Plain tuples for cheap scalar iteration in the sampling hot paths.
        self.rows = tuple(tuple(float(v) for v in row) for row in m)
        # Partial sums of each row but its last entry, for bisect_left picks.
        self.cum_rows = tuple(tuple(accumulate(row[:-1])) for row in self.rows)

    def __repr__(self) -> str:
        return f"MutationMatrix(d={self.d})"


def _strongly_connected(adj: np.ndarray) -> bool:
    """BFS reachability from vertex 0 in adj and its transpose."""
    d = adj.shape[0]

    def reaches_all(rows: list) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for v, edge in enumerate(rows[stack.pop()]):
                if edge and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == d

    return reaches_all(adj.tolist()) and reaches_all(adj.T.tolist())


def _validate_sizes(spec, *names: str) -> None:
    """Check that the named fields are integers (N >= 1) and store them as int."""
    for name in names:
        object.__setattr__(spec, name, as_integer(getattr(spec, name), name))
    if spec.N < 1:
        raise ValidationError(f"need N >= 1, got N={spec.N}")


@dataclass(frozen=True, eq=False)
class MoranGeneral:
    """Moran chain with an arbitrary (irreducible) mutation matrix."""

    N: int
    M: MutationMatrix

    def __post_init__(self):
        _validate_sizes(self, "N")

    @property
    def d(self) -> int:
        return self.M.d


@dataclass(frozen=True)
class MoranStandard:
    """Moran chain with mutation matrix M = (1-m) I + m P, every row of P equal to p.

    M is built once and read like a general spec's; it takes no part in
    equality or the repr.
    """

    N: int
    m: float
    p: tuple[float, ...]
    M: MutationMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate_sizes(self, "N")
        object.__setattr__(self, "m", as_real(self.m, "m"))
        if not 0.0 < self.m <= 1.0:
            raise ValidationError(f"mutation probability must be in (0, 1], got {self.m}")
        p = _validate_prob_vector(self.p, "p")
        object.__setattr__(self, "p", p)
        mat = (1.0 - self.m) * np.eye(len(p)) + self.m * np.tile(p, (len(p), 1))
        object.__setattr__(self, "M", MutationMatrix(mat))

    @property
    def d(self) -> int:
        return len(self.p)


# JSON tag of each urn family by (order, reinforced).
_URN_TAGS = {
    ("level", True): "polya_level",
    ("updown", True): "polya_updown",
    ("downup", True): "polya_downup",
    ("downup", False): "ehrenfest",
}


@dataclass(frozen=True)
class UrnSpec:
    """Urn chain: remove s balls uniformly and make s weighted additions.

    ``order`` places the removal relative to the additions: ``downup``
    removes first; ``updown`` adds first and removes s of the N + s balls;
    ``level`` marks s balls, adds, then removes the marked balls, so the
    additions see the full urn.  An addition picks urn i with probability
    proportional to weights[i] + inc * (balls in urn i), where inc is 1 for
    reinforced (Polya) draws and 0 otherwise; non-reinforced weights are a
    probability vector (the Ehrenfest redistribution law).
    """

    N: int
    s: int
    weights: tuple[float, ...]
    order: str
    reinforced: bool
    weight_total: float = field(init=False, repr=False, compare=False)
    inc: float = field(init=False, repr=False, compare=False)
    cum_weights: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.order, self.reinforced) not in _URN_TAGS:
            raise ValidationError(
                f"no urn family with order={self.order!r}, reinforced={self.reinforced!r}")
        _validate_sizes(self, "N", "s")
        if not 1 <= self.s <= self.N:
            raise ValidationError(f"need 1 <= s <= N, got s={self.s}, N={self.N}")
        if self.reinforced:
            weights = _validate_weights(self.weights, "alpha")
        else:
            weights = _validate_prob_vector(self.weights, "p")
        object.__setattr__(self, "weights", weights)
        # A redistribution law is used as given, its total taken as exactly 1.
        object.__setattr__(self, "weight_total",
                           math.fsum(weights) if self.reinforced else 1.0)
        # Weight an addition adds to the urn it picks.
        object.__setattr__(self, "inc", 1.0 if self.reinforced else 0.0)
        # Partial sums of all weights but the last, for bisect_left picks
        # from the spec's own weights (draws that add nothing).
        object.__setattr__(self, "cum_weights", tuple(accumulate(weights[:-1])))

    @property
    def d(self) -> int:
        return len(self.weights)

    def add_weights(self, counts, n_balls: int) -> tuple[list[float], float]:
        """Addition weights and their total with ``counts`` (n_balls balls) in the urns.

        Only reinforced draws see the balls: weights[i] + counts[i], else weights.
        counts[i] may be an array of the counts of urn i over many states.
        """
        if self.reinforced:
            return list(map(add, self.weights, counts)), self.weight_total + n_balls
        return list(self.weights), self.weight_total


def PolyaLevel(N: int, s: int, alpha) -> UrnSpec:
    """Mark s balls, make s reinforced additions, then remove the marked balls."""
    return UrnSpec(N, s, alpha, "level", True)


def PolyaUpDown(N: int, s: int, alpha) -> UrnSpec:
    """s reinforced additions first, then remove s balls uniformly out of N+s."""
    return UrnSpec(N, s, alpha, "updown", True)


def PolyaDownUp(N: int, s: int, alpha) -> UrnSpec:
    """Remove s balls uniformly, then make s reinforced additions."""
    return UrnSpec(N, s, alpha, "downup", True)


def Ehrenfest(N: int, s: int, p) -> UrnSpec:
    """Pick s balls uniformly and redistribute each independently by p."""
    return UrnSpec(N, s, p, "downup", False)


ModelSpec = Union[MoranGeneral, MoranStandard, UrnSpec]


def spec_to_json(spec: ModelSpec) -> dict:
    """JSON document for a model spec (inverse of spec_from_json)."""
    if isinstance(spec, MoranGeneral):
        return {"model": "moran_general", "N": spec.N,
                "mutation_matrix": [list(row) for row in spec.M.rows]}
    if isinstance(spec, MoranStandard):
        return {"model": "moran_standard", "N": spec.N, "m": spec.m, "p": list(spec.p)}
    return {"model": _URN_TAGS[spec.order, spec.reinforced], "N": spec.N, "s": spec.s,
            "alpha" if spec.reinforced else "p": list(spec.weights)}


def spec_from_json(doc: dict) -> ModelSpec:
    """Parse a model spec from its JSON document."""
    if not isinstance(doc, dict) or "model" not in doc:
        raise ValidationError("model document must be an object with a 'model' tag")
    tag = doc["model"]
    urns = {t: key for key, t in _URN_TAGS.items()}
    try:
        if tag == "moran_general":
            return MoranGeneral(doc["N"], MutationMatrix(doc["mutation_matrix"]))
        if tag == "moran_standard":
            return MoranStandard(doc["N"], doc["m"], tuple(doc["p"]))
        if tag in urns:
            order, reinforced = urns[tag]
            weights = doc["alpha" if reinforced else "p"]
            return UrnSpec(doc["N"], doc["s"], tuple(weights), order, reinforced)
    except KeyError as exc:
        raise ValidationError(f"model document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed model document: {exc}") from exc
    raise ValidationError(f"unknown model tag {tag!r}")


# ---------------------------------------------------------------------------
# Exact rows
# ---------------------------------------------------------------------------

def _multinomial_coef(a: tuple[int, ...]) -> int:
    c = math.factorial(sum(a))
    for ai in a:
        c //= math.factorial(ai)
    return c


def _rising(b: float, k: int, inc: float) -> float:
    """Rising factorial b (b + inc) ... (b + (k-1) inc)."""
    out = 1.0
    for t in range(k):
        out *= b + t * inc
    return out


def _add_pmf(a: tuple[int, ...], beta: list[float], total: float, inc: float) -> float:
    """Law of the counts a of sequential draws by weights beta (sum total).

    Each draw adds inc to the weight it picks: Dirichlet-multinomial at
    inc = 1 (reinforced draws, real weights allowed), multinomial at inc = 0.
    Raises CapacityError when the law leaves the float range: a rising
    product that overflows, or a positive probability that underflows to 0.
    """
    out = float(_multinomial_coef(a))
    for ai, bi in zip(a, beta):
        out *= _rising(bi, ai, inc)
    out /= _rising(total, sum(a), inc)
    # Written so that a NaN (inf / inf) fails too.
    if not 0.0 < out < math.inf:
        raise _beyond_float_range(sum(a), total)
    return out


def _beyond_float_range(s: int, total: float) -> CapacityError:
    return CapacityError(f"urn addition law of {s} draws, weight total {total!r}, "
                         f"is beyond the float range")


def _hypergeom_pmf(r: tuple[int, ...], x: Composition, denom: int) -> float:
    num = 1
    for ri, xi in zip(r, x):
        num *= math.comb(xi, ri)
    return num / denom


# Paths (states x paths per state), or stage entries, held at once while rows
# are built, so the memory of a build follows this budget, not the size of
# the state space.
_PATH_BUDGET = 1 << 17


def _moran_offsets(d: int) -> np.ndarray:
    """Successor offsets of the Moran paths: e_i - e_j, j outer and i inner, then staying."""
    eye = np.eye(d, dtype=np.int64)
    return np.concatenate([(eye[None, :, :] - eye[:, None, :]).reshape(d * d, d),
                           np.zeros((1, d), dtype=np.int64)])


def _moran_paths(spec: ModelSpec, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Moran paths from each state with their probabilities, as transition_prob sums them.

    Returns (row, path, prob) over the paths with positive probability,
    state by state in path order; path j * d + i is death j and offspring
    i (i != j), d * d is staying, kept above 1e-13.
    """
    N, d = spec.N, spec.d
    mt = spec.M.matrix.T
    # One gemv per state, stacked: a single matrix product would sum in another order.
    target = np.matmul(mt, (x / N)[:, :, None])[:, :, 0]
    prob = (x / N)[:, :, None] * target[:, None, :]  # [state, death j, offspring i]
    valid = (x != 0)[:, :, None] & ~np.eye(d, dtype=bool) & (prob > 0.0)
    off_total = np.zeros(len(x))
    for j in range(d):
        for i in range(d):
            off_total += np.where(valid[:, j, i], prob[:, j, i], 0.0)
    stay = 1.0 - off_total
    prob = np.concatenate([prob.reshape(-1, d * d), stay[:, None]], axis=1)
    row, path = np.nonzero(np.concatenate([valid.reshape(-1, d * d),
                                           (stay > 1e-13)[:, None]], axis=1))
    return row, path, prob[row, path]


@lru_cache(maxsize=8)
def _step_vectors(s: int, d: int) -> np.ndarray:
    """compositions(s, d), the removal and addition vectors of an urn step, read-only.

    Shared by kernel_rows and every transition_prob call with the same (s, d).
    """
    comps = compositions(s, d)
    comps.setflags(write=False)
    return comps


def _urn_offsets(spec: UrnSpec, comps: np.ndarray) -> np.ndarray:
    """Successor offsets a - r of the urn paths: removal-major, addition-major up-down.

    comps holds the compositions of s into d parts, in lex order.
    """
    if spec.order == "updown":
        diff = comps[:, None, :] - comps[None, :, :]
    else:
        diff = comps[None, :, :] - comps[:, None, :]
    return diff.reshape(-1, spec.d)


def _removal_probs(counts: np.ndarray, n_balls: int, s: int, comps: np.ndarray) -> np.ndarray:
    """Hypergeometric law of each removal vector in comps (new last axis) from counts (..., d).

    Numerators are exact integer products: int64 while comb(n_balls, s) is below
    2**53, where the float division rounds as Python's int division does (a
    numerator never exceeds it), and Python ints beyond.  A removal vector
    that does not fit under the counts gets probability 0.
    """
    denom = math.comb(n_balls, s)
    values, where = np.unique(counts, return_inverse=True)
    table = [[math.comb(v, k) for k in range(s + 1)] for v in values.tolist()]
    exact = denom < 2**53 and max(map(max, table)) < 2**63
    table = np.array(table, dtype=np.int64 if exact else object)
    where = where.reshape(counts.shape)
    num = table[where[..., 0, None], comps[:, 0]]
    for i in range(1, comps.shape[1]):
        # int64 products of a misfit vector may wrap before its zero factor; they end at 0.
        num = num * table[where[..., i, None], comps[:, i]]
    pr = num / denom
    return pr if exact else pr.astype(float)


def _addition_probs(spec: UrnSpec, counts: np.ndarray, n_balls: int,
                    comps: np.ndarray) -> np.ndarray:
    """Law of each addition vector in comps (new last axis) with counts (..., d) in the urns.

    Same arithmetic, in the same order, and the same CapacityError, as _add_pmf.
    """
    s, inc = spec.s, spec.inc
    beta, total = spec.add_weights(np.moveaxis(counts, -1, 0), n_balls)
    out = np.array([float(_multinomial_coef(a)) for a in comps.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        for i, b in enumerate(beta):
            rising = np.ones(np.shape(b) + (s + 1,))
            for t in range(s):
                rising[..., t + 1] = rising[..., t] * (b + t * inc)
            out = out * rising[..., comps[:, i]]
        out = out / _rising(total, s, inc)
    if not ((out > 0.0) & (out < math.inf)).all():
        raise _beyond_float_range(s, total)
    return out


def _urn_paths(spec: UrnSpec, x: np.ndarray, comps: np.ndarray) -> tuple[np.ndarray, ...]:
    """The urn paths from each state with their probabilities, as _add_pmf and _hypergeom_pmf form them.

    Returns (row, path, prob) over the paths whose removal fits, state by
    state in path order: removal r outer and addition a inner, path
    r * n + a over the n compositions of s in comps (up-down: a outer, path
    a * n + r).
    """
    N, s = spec.N, spec.s
    n = len(comps)
    if spec.order == "updown":
        pa = _addition_probs(spec, x, N, comps)  # [state, a]
        pr = _removal_probs(x[:, None, :] + comps, N + s, s, comps)  # [state, a, r]
        row, a, r = np.nonzero(pr > 0.0)
        return row, a * n + r, pa[row, a] * pr[row, a, r]
    pr = _removal_probs(x, N, s, comps)  # [state, r]
    row, r = np.nonzero(pr > 0.0)
    # Level-order additions see the urn before the marked balls leave.
    if spec.order == "level":
        pa = _addition_probs(spec, x, N, comps)[row]
    else:
        pa = _addition_probs(spec, x[row] - comps[r], N - s, comps)
    prob = pr[row, r][:, None] * pa  # [fitting (state, r), a]
    return np.repeat(row, n), (r[:, None] * n + np.arange(n)).ravel(), prob.ravel()


def _check_rows(x: np.ndarray, row: np.ndarray, probs: np.ndarray) -> None:
    """Every entry > 0 and every row sum within _ROW_SUM_TOL of 1 (a NaN fails both).

    Paths are products of positive factors, so a 0.0 entry, with none below 0
    or NaN, has underflowed: CapacityError.  Any other failure: ValidationError.
    """
    if not (probs > 0.0).all():
        corrupt = ~(probs >= 0.0)
        k = int(np.argmax(corrupt if corrupt.any() else probs == 0.0))
        origin = tuple(x[row[k]].tolist())
        if corrupt[k]:
            raise ValidationError(f"row from {origin} has an entry {float(probs[k])!r}, must be > 0")
        raise CapacityError(f"row from {origin} has an entry below the float range (0.0)")
    sums = np.bincount(row, weights=probs, minlength=len(x))
    off = ~(np.abs(sums - 1.0) <= _ROW_SUM_TOL)
    if off.any():
        i = int(np.argmax(off))
        raise ValidationError(f"row from {tuple(x[i].tolist())} sums to {float(sums[i])!r}")


def kernel_rows(spec: ModelSpec, states: np.ndarray
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Exact kernel rows of ``states`` (an S x d array of the spec's compositions).

    A row sums its paths: a death and an offspring species for Moran, a
    removal and an addition vector for the urns.  Yields, for each block of
    consecutive states, (lengths, successors, probabilities): the entry count
    of each state, then its entries in the order of the first path to each
    successor.  Paths with one offset lead to one successor, so a block's
    paths merge in a dense table indexed by (state, offset code): bincount
    sums each cell in path order, so every entry equals a per-state sum in a
    dict, and minimum.at finds each cell's first path.  Blocks hold at most
    _PATH_BUDGET paths and table cells (one state at least).  Raises
    ValidationError when an entry is negative or NaN or a row does not sum
    to 1 within 1e-10, and CapacityError when an entry underflows to 0.0.
    """
    if isinstance(spec, UrnSpec):
        comps = _step_vectors(spec.s, spec.d)
        offsets, paths = _urn_offsets(spec, comps), partial(_urn_paths, spec, comps=comps)
    else:
        offsets, paths = _moran_offsets(spec.d), partial(_moran_paths, spec)
    # Paths with equal offsets lead to one successor, whatever the state.
    code = np.unique(offsets, axis=0, return_inverse=True)[1].ravel()
    n_codes = int(code.max()) + 1
    block = max(1, _PATH_BUDGET // len(offsets))
    for lo in range(0, len(states), block):
        x = states[lo:lo + block]
        row, path, prob = paths(x)
        cell = row * n_codes + code[path]
        sums = np.bincount(cell, weights=prob, minlength=len(x) * n_codes)
        # A path is its cell's first when it holds the cell's least path index.
        order = np.arange(len(cell))
        first = np.full(len(x) * n_codes, len(cell))
        np.minimum.at(first, cell, order)
        first = np.flatnonzero(first[cell] == order)
        probs = sums[cell[first]]
        row = row[first]
        _check_rows(x, row, probs)
        # take gathers whole rows at once, where fancy indexing goes entry by entry.
        successors = x.take(row, axis=0) + offsets.take(path[first], axis=0)
        yield np.bincount(row, minlength=len(x)), successors, probs


def removal_rows(spec: UrnSpec, states: np.ndarray
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows of R, the removal stage of a down-up urn step K = R A, from ``states`` of N.

    Yields, a block of states at a time, (lengths, successors, probabilities)
    as kernel_rows does: each state's fitting removals r, in the lex order
    of compositions(s, d), lead to x - r in the N - s lattice with their
    hypergeometric law.  Blocks hold at most _PATH_BUDGET entries (one state
    at least).  Raises as kernel_rows does on a bad entry or row sum.
    """
    comps = _step_vectors(spec.s, spec.d)
    block = max(1, _PATH_BUDGET // len(comps))
    for lo in range(0, len(states), block):
        x = states[lo:lo + block]
        row, r = np.nonzero((x[:, None, :] >= comps).all(axis=2))
        probs = _removal_probs(x, spec.N, spec.s, comps)[row, r]
        _check_rows(x, row, probs)
        successors = x.take(row, axis=0) - comps.take(r, axis=0)
        yield np.bincount(row, minlength=len(x)), successors, probs


def addition_rows(spec: UrnSpec, states: np.ndarray
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows of A, the addition stage of a down-up urn step K = R A, from ``states`` of N - s.

    As removal_rows, over every addition a (all fit), leading to y + a in
    the N lattice with the law _addition_probs gives it.
    """
    comps = _step_vectors(spec.s, spec.d)
    n = len(comps)
    block = max(1, _PATH_BUDGET // n)
    for lo in range(0, len(states), block):
        y = states[lo:lo + block]
        # Draws that add nothing give every state one law.
        law = _addition_probs(spec, y, spec.N - spec.s, comps)
        probs = np.broadcast_to(law, (len(y), n)).ravel()
        _check_rows(y, np.repeat(np.arange(len(y)), n), probs)
        yield np.full(len(y), n), (y[:, None, :] + comps).reshape(-1, spec.d), probs


def transition_prob(spec: ModelSpec, x: Composition, z: Composition) -> float:
    """One entry K(x, z) of any model's kernel, without building the row.

    The scalar reference for kernel_rows.  A Moran step to z != x is one
    death and one offspring species; staying takes what the others leave.
    An urn step from x to z is fixed by its removal vector r (z = x - r + a)
    or, up-down, by its addition vector a (z = x + a - r); the sum runs over
    those paths only, so it costs one hypergeometric and one addition pmf
    per path, however many successors the row has.
    """
    N, d = spec.N, spec.d
    x = validate_composition(x, N, d)
    z = validate_composition(z, N, d)
    if not isinstance(spec, UrnSpec):
        step = [zi - xi for xi, zi in zip(x, z)]
        # Equal totals: one count up by 1 and one down by 1, or no path leads to z.
        if z != x and sum(map(abs, step)) != 2:
            return 0.0
        # The products of _moran_paths, and for staying their sum in its order.
        target = (spec.M.matrix.T @ (np.asarray(x, dtype=float) / N)).tolist()
        if z != x:
            return x[step.index(-1)] / N * target[step.index(1)]
        off_total = 0.0
        for j in range(d):
            for i in range(d):
                if x[j] and i != j:
                    off_total += x[j] / N * target[i]
        stay = 1.0 - off_total
        return stay if stay > 1e-13 else 0.0
    s, inc = spec.s, spec.inc
    comps = _step_vectors(s, d).tolist()
    out = 0.0
    if spec.order == "updown":
        beta, total = spec.add_weights(x, N)
        denom = math.comb(N + s, s)
        # a >= z - x, so that z is reachable by removals.
        low = [zi - xi for xi, zi in zip(x, z)]
        for a in comps:
            if all(map(ge, a, low)):
                grown = tuple(xi + ai for xi, ai in zip(x, a))
                r = tuple(g - zi for g, zi in zip(grown, z))
                out += _add_pmf(a, beta, total, inc) * _hypergeom_pmf(r, grown, denom)
        return out
    denom = math.comb(N, s)
    # x - z <= r <= x, so that the removal fits and z is reachable by additions.
    low = [xi - zi for xi, zi in zip(x, z)]
    for r in comps:
        if all(map(ge, r, low)) and all(map(le, r, x)):
            base = tuple(xi - ri for xi, ri in zip(x, r))
            # Level-order additions see the urn before the marked balls leave.
            beta, total = (spec.add_weights(x, N) if spec.order == "level"
                           else spec.add_weights(base, N - s))
            a = tuple(zi - b for zi, b in zip(z, base))
            out += _hypergeom_pmf(r, x, denom) * _add_pmf(a, beta, total, inc)
    return out


def transition_row(spec: ModelSpec, x: Composition) -> dict:
    """Exact one-step row of any model spec, {successor: probability}: kernel_rows on x."""
    x = validate_composition(x, spec.N, spec.d)
    ((_, succ, probs),) = kernel_rows(spec, np.array([x], dtype=np.int64))
    return dict(zip(map(tuple, succ.tolist()), probs.tolist()))


# ---------------------------------------------------------------------------
# Generative sampling
# ---------------------------------------------------------------------------

def _draws(bits):
    """(below, next_double, state): the draws of ``bits``, ``rng.bit_generator.ctypes``.

    The functions and state of ``bits`` are bound once.
    ``next_double(state)`` is ``rng.random()``.  ``below(n)`` is one draw
    from range(n), ``rng.integers(0, n)``: Lemire's multiply-and-shift
    rejection (Lemire 2019), as numpy's Generator makes it, with 32-bit words
    while n <= 2^32, 64-bit words up to 2^64, and no draw at n = 1.  Values and
    the generator's state afterwards equal those of the Generator methods;
    ``below`` raises ValueError, as numpy does, on an empty range or one past
    2^64.  Masks and shifts are literals, since ``below`` is the hottest call
    of a coupled step.  The ctypes pointers do not keep the bit generator alive: its holder must.
    """
    next32, next64, state = bits.next_uint32, bits.next_uint64, bits.state

    def below(n):
        if 1 < n <= 1 << 32:
            m = next32(state) * n
            if m & 0xFFFF_FFFF < n:
                threshold = ((1 << 32) - n) % n
                while m & 0xFFFF_FFFF < threshold:
                    m = next32(state) * n
            return m >> 32
        if 1 < n <= 1 << 64:
            m = next64(state) * n
            if m & 0xFFFF_FFFF_FFFF_FFFF < n:
                threshold = ((1 << 64) - n) % n
                while m & 0xFFFF_FFFF_FFFF_FFFF < threshold:
                    m = next64(state) * n
            return m >> 64
        if n == 1:
            return 0
        raise ValueError(f"cannot draw from range({n})")

    return below, bits.next_double, state


def pick_index(v: float, weights) -> int:
    """CDF inversion in index order: smallest i with v <= cumsum(weights)[i].

    ``v`` is a uniform draw scaled to the weight total.  Boundary ties resolve
    to the lower index; shortfall of the float total falls through to the last
    index.  For fixed weights, ``bisect_left(cum, v)`` on the partial sums
    ``cum = tuple(accumulate(weights[:-1]))`` gives the same index: accumulate
    makes the same float additions, in the same order.
    """
    cum = 0.0
    last = len(weights) - 1
    for i in range(last):
        cum += weights[i]
        if v <= cum:
            return i
    return last


def _remove_counts(next_double, state, counts, s: int, out: list[int]) -> None:
    """Take a uniform s-subset of the balls in ``counts`` out of the count list ``out``.

    The subset is drawn urn by urn: each urn with a choice inverts one uniform,
    ``next_double(state)``, through its conditional hypergeometric law in index
    order, as pick_index does, forming each weight only when the running sum
    reaches it.  ``counts`` may be ``out`` itself.
    """
    remaining = sum(counts)
    need = s
    for i, xi in enumerate(counts):
        if need == 0:
            break
        rest = remaining - xi
        k = max(0, need - rest)
        hi = min(need, xi)
        if k < hi:
            denom = math.comb(remaining, need)
            v = next_double(state)
            cum = 0.0
            while k < hi:
                cum += math.comb(xi, k) * math.comb(rest, need - k) / denom
                if v <= cum:
                    break
                k += 1
        out[i] -= k
        need -= k
        remaining -= xi


def _add_counts(next_double, state, spec: UrnSpec, counts, n_balls: int,
                out: list[int]) -> None:
    """The spec's s sequential additions, drawn with ``counts`` (n_balls balls) in the urns.

    Each draw reads one uniform, ``next_double(state)``, and adds the spec's
    increment to the weight it picks; the added balls go into the count list
    ``out``.  Draws that add nothing all read the spec's own weights.
    """
    if not spec.reinforced:
        cum, total = spec.cum_weights, spec.weight_total
        for _ in range(spec.s):
            out[bisect_left(cum, next_double(state) * total)] += 1
        return
    w, total = spec.add_weights(counts, n_balls)
    inc = spec.inc
    for _ in range(spec.s):
        i = pick_index(next_double(state) * total, w)
        w[i] += inc
        out[i] += 1
        total += inc


# The last successful sample_step call's (bit generator, its _draws, spec,
# returned state), replaced in one assignment.
_last_sample = (None, None, None, None)


def sample_step(spec: ModelSpec, x: Composition, rng: np.random.Generator) -> Composition:
    """Draw one transition from the model's kernel at x.

    Deterministic given the generator state; distributed per the matching
    exact row.  The uniforms are read off the bit generator,
    ``next_double(state)`` under ``rng.bit_generator.lock``: the values and
    end state of ``rng.random()``.  The call keeps its generator's draws and
    its output: given the same bit generator again it reuses the draws, and
    given back the state it returned, with the same spec object, it skips
    validation, since a step from a valid state is valid.
    """
    global _last_sample
    bits = rng.bit_generator
    last_bits, draws, last_spec, last_out = _last_sample
    if bits is not last_bits:
        draws = _draws(bits.ctypes)
    N = spec.N
    if x is not last_out or spec is not last_spec:
        x = validate_composition(x, N, spec.d)
    _, next_double, state = draws

    out = list(x)
    with bits.lock:
        if not isinstance(spec, UrnSpec):
            death = pick_index(next_double(state) * N, x)
            parent = pick_index(next_double(state) * N, x)
            out[bisect_left(spec.M.cum_rows[parent], next_double(state))] += 1
            out[death] -= 1
        elif spec.order == "updown":
            _add_counts(next_double, state, spec, x, N, out)
            _remove_counts(next_double, state, out, spec.s, out)
        else:
            _remove_counts(next_double, state, x, spec.s, out)
            if spec.order == "level":
                _add_counts(next_double, state, spec, x, N, out)
            else:
                _add_counts(next_double, state, spec, out, N - spec.s, out)
    out = tuple(out)
    _last_sample = (bits, draws, spec, out)
    return out
