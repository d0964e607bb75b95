"""Composition lattice: enumeration, ranking, and the dominance partial order.

A state is a weak composition of N into d parts: a tuple of d nonnegative
integers summing to N.  The lattice carries the partial order

    x <= y  iff  x_i <= y_i for every i < d,

which automatically forces x_d >= y_d.  Enumeration is colexicographic on the
first d-1 coordinates (first coordinate varies fastest), so a state's colex
rank, computed by ``ranks``, is its row in ``state_array``.
"""
from __future__ import annotations

import math
import numbers
from itertools import chain, combinations

import numpy as np

from .errors import CapacityError, ValidationError

Composition = tuple[int, ...]

# Largest state space state_array will materialize.  The exact module keeps
# every state, the sparse kernel, its transpose and a few vectors; a down-up
# urn kernel also keeps its two stages, R and A, whose transposes stand in
# for K's and whose middle lattice (N - s) is under the cap whenever the
# space is.  Up-down Polya sums its paths instead, since its N + s lattice
# can pass the cap (200,028 states at N = 631, d = 3) when the space, 199,396
# states at N = 630, does not.  Only a kernel with no closed-form stationary
# law (general Moran) also needs the LU factors of one sparse solve; they
# fill in fast as d grows, so at d >= 5 such a space near this cap is not yet
# solvable on a desk machine.
DEFAULT_STATE_CAP = 200_000

_PLAIN_INT = frozenset({int})


def state_count(n_total: int, d: int) -> int:
    """Number of compositions of n_total into d parts: C(n_total + d - 1, n_total)."""
    if n_total < 0 or d < 1:
        raise ValidationError(f"need n_total >= 0 and d >= 1, got N={n_total}, d={d}")
    return math.comb(n_total + d - 1, n_total)


def validate_composition(x, n_total: int | None = None, d: int | None = None) -> Composition:
    """Return x as a tuple after checking it is a valid composition.

    If n_total or d are given, the sum and length must match them.
    """
    raw = tuple(x)
    if len(raw) < 2:
        raise ValidationError(f"composition needs at least 2 parts, got {raw!r}")
    if {*map(type, raw)} == _PLAIN_INT:
        # The common case, without the slower per-entry ABC checks.
        if min(raw) < 0:
            raise ValidationError(f"composition entries must be >= 0, got {raw!r}")
        xt = raw
    else:
        for c in raw:
            if isinstance(c, bool) or not isinstance(c, numbers.Integral):
                raise ValidationError(f"composition entries must be integers, got {raw!r}")
            if c < 0:
                raise ValidationError(f"composition entries must be >= 0, got {raw!r}")
        xt = tuple(int(c) for c in raw)
    if d is not None and len(xt) != d:
        raise ValidationError(f"composition {xt!r} has {len(xt)} parts, expected d={d}")
    if n_total is not None and sum(xt) != n_total:
        raise ValidationError(f"composition {xt!r} sums to {sum(xt)}, expected N={n_total}")
    return xt


def compositions(total: int, parts: int) -> np.ndarray:
    """All weak compositions of total into parts >= 2 parts, lex with the first part outermost.

    Stars and bars: itertools.combinations gives the parts - 1 bar positions
    among total + parts - 1 slots in lex order, which is the lex order of the
    compositions, and the gaps between consecutive bars (and the ends) are the
    parts.
    """
    slots = total + parts - 1
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), parts - 1)),
                       dtype=np.int64).reshape(-1, parts - 1)
    return np.diff(bars, axis=1, prepend=-1, append=slots) - 1


def state_array(n_total: int, d: int) -> np.ndarray:
    """All compositions of n_total into d parts, colex on the first d-1 coordinates.

    Returns a read-only S x d int64 array.  Colex order is the lex order of
    compositions(n_total, d) read with its first d-1 columns reversed: the
    lex array's first part, varying slowest, becomes coordinate d-2, and its
    last column stays last.  Raises CapacityError, before any allocation,
    when the state space exceeds DEFAULT_STATE_CAP.
    """
    if d < 2:
        raise ValidationError(f"need d >= 2, got d={d}")
    size = state_count(n_total, d)
    if size > DEFAULT_STATE_CAP:
        raise CapacityError(
            f"state space too large: {size} states for N={n_total}, d={d} "
            f"(cap {DEFAULT_STATE_CAP}); reduce N or d"
        )
    states = compositions(n_total, d)[:, [*range(d - 2, -1, -1), d - 1]]
    states.setflags(write=False)
    return states


def enumerate_states(n_total: int, d: int) -> list[Composition]:
    """The rows of state_array(n_total, d) as tuples, in the same colex order."""
    return list(zip(*state_array(n_total, d).T.tolist()))


def ranks(z: np.ndarray, n_total: int) -> np.ndarray:
    """Colex ranks of the compositions of n_total in the last axis of z: their state_array rows.

    rank(z) = C(N + d - 1, d - 1) - 1 - sum_{i < d-1} C(Q_i + i, i + 1), where
    Q_i = z_{d-1} + z_0 + ... + z_{i-1}: the sum counts the compositions after z.
    table[k, m] = C(m + k - 1, k), m <= N + 1, comes by the hockey-stick identity.
    """
    d = z.shape[-1]
    table = np.zeros((d, n_total + 2), dtype=np.int64)
    table[0, 1:] = 1
    for k in range(1, d):
        np.cumsum(table[k - 1], out=table[k])
    q = z[..., d - 1]
    r = table[d - 1, n_total + 1] - 1 - table[1][q]
    for i in range(1, d - 1):
        q = q + z[..., i - 1]
        r -= table[i + 1][q]
    return r


def partial_leq(x: Composition, y: Composition) -> bool:
    """True iff x is dominated by y on the first d-1 coordinates."""
    if len(x) != len(y):
        raise ValidationError(f"dimension mismatch: {len(x)} vs {len(y)}")
    if sum(x) != sum(y):
        raise ValidationError(f"total mismatch: {sum(x)} vs {sum(y)}")
    for a, b in zip(x[:-1], y[:-1]):
        if a > b:
            return False
    return True
