"""Desk-scale ground truth: sparse kernels, stationary laws, exact TV curves.

Everything here materializes the full state space, so it is gated by the
enumeration cap.  After a graph check that the kernel is irreducible and
aperiodic, the stationary distribution comes from power iteration on K^T
started from the closed-form law where there is one, and from one sparse
direct solve otherwise.  A TV curve writes its K^T products into the rows of
a preallocated block and reduces each block's distances to stationarity at
once.  Nothing makes the kernel dense.

scipy's sparse stack is imported on the first exact-engine call (building a
matrix, the graph check, the direct solve, a K^T product), not with the
package: it takes most of the time of ``import monochain``, and the bounds,
couplings and samplers never use it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np

from .bounds import stationary_log_pmfs
from .errors import (
    CapacityError,
    StationaryConvergenceError,
    UnknownStationaryError,
    ValidationError,
)
from .kernels import ModelSpec, as_integer, kernel_rows
from .statespace import Composition, ranks, state_array, validate_composition

if TYPE_CHECKING:
    import scipy.sparse as sp

_STATIONARY_CHECK_TOL = 1e-12
# Power iteration from a closed-form start stops once successive iterates
# differ by at most _STATIONARY_STOP_TOL in max norm, tested every
# _STATIONARY_CHECK_EVERY products.  A correct start settles in one product,
# or in a few dozen where the closed form's own rounding moves it by more
# (large urn weights, concentrated laws); one that has not settled within
# _STATIONARY_POWER_BUDGET products is wrong, and the direct solve takes over.
_STATIONARY_STOP_TOL = 1e-15
_STATIONARY_CHECK_EVERY = 8
_STATIONARY_POWER_BUDGET = 1 << 10
# Floats in the block of iterates a TV curve holds at once (2 rows at least).
_TV_BLOCK_BUDGET = 1 << 17
# Most points a TV curve has: 128 MiB of distances.
_TV_CURVE_CAP = 1 << 24


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Materialized kernel: the states as the rows of an S x d int64 array, and the sparse matrix.

    Row i of csr is the row of state_array[i].  ``states`` (tuples) and
    ``index`` (state to row) are formed from state_array on first use.
    """

    spec: ModelSpec
    csr: sp.csr_matrix
    state_array: np.ndarray = field(repr=False)

    @cached_property
    def states(self) -> list[Composition]:
        return list(zip(*self.state_array.T.tolist()))

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.states)}

    @property
    def dim(self) -> int:
        return len(self.state_array)

    @cached_property
    def kt(self) -> sp.csr_matrix:
        """K^T in CSR form, built once for stationary and tv_curve."""
        return self.csr.T.tocsr()


def build_matrix(spec: ModelSpec) -> TransitionMatrix:
    """Exact transition matrix of a model over its full state space, within the state cap.

    Rows come from kernels.kernel_rows a block of states at a time; a
    successor's column is its colex rank, which is its enumeration index.
    """
    import scipy.sparse as sp

    array = state_array(spec.N, spec.d)
    lengths, cols, data = [np.zeros(1, dtype=np.int64)], [], []
    for n, succ, probs in kernel_rows(spec, array):
        lengths.append(n)
        cols.append(ranks(succ, spec.N))
        data.append(probs)
    csr = sp.csr_matrix(
        (np.concatenate(data), np.concatenate(cols), np.cumsum(np.concatenate(lengths))),
        shape=(len(array), len(array)),
    )
    return TransitionMatrix(spec=spec, csr=csr, state_array=array)


def _ergodicity_problem(csr: sp.csr_matrix) -> str | None:
    """Why the kernel's graph is not one aperiodic strong component, or None.

    The period is the gcd over edges u -> v of dist(u) + 1 - dist(v), with
    BFS distances from state 0; a self-loop settles it at 1 directly.
    """
    from scipy.sparse.csgraph import connected_components, shortest_path

    n_comp, _ = connected_components(csr, directed=True, connection="strong")
    if n_comp != 1:
        return f"kernel is reducible ({n_comp} strong components)"
    if np.any(csr.diagonal() > 0.0):
        return None
    dist = shortest_path(csr, unweighted=True, indices=0).astype(np.int64)
    edges = csr.tocoo()
    period = int(np.gcd.reduce(dist[edges.row] + 1 - dist[edges.col]))
    return None if period == 1 else f"kernel is periodic (period {period})"


def _start(tm: TransitionMatrix) -> np.ndarray | None:
    """The closed-form stationary law on the rows of tm.state_array, or None if none is known."""
    try:
        log_pmf = stationary_log_pmfs(tm.spec, tm.state_array)
    except UnknownStationaryError:
        return None
    start = np.exp(log_pmf)
    return start / start.sum()


def _product(kt: sp.csr_matrix):
    """``product(v, out)``: out += K^T v by scipy's CSR kernel, the one ``kt @ v`` calls.

    v and out are contiguous float64 vectors; a zeroed out gets the bits of
    ``kt @ v`` without its dispatch and allocation.  A caller binds it once
    and makes all of its products through it.
    """
    from scipy.sparse._sparsetools import csr_matvec

    matvec = partial(csr_matvec, kt.shape[0], kt.shape[1], kt.indptr, kt.indices, kt.data)

    def product(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        matvec(v, out)
        return out

    return product


def _power_iterate(kt: sp.csr_matrix, v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Iterate v -> K^T v until successive iterates agree; (last iterate, settled)."""
    product = _product(kt)
    for _ in range(0, _STATIONARY_POWER_BUDGET, _STATIONARY_CHECK_EVERY):
        prev, v = v, product(v, np.zeros(len(v)))
        # A NaN settles too, and fails the residual check.
        if not float(np.max(np.abs(v - prev))) > _STATIONARY_STOP_TOL:
            return v, True
        for _ in range(_STATIONARY_CHECK_EVERY - 1):
            v = product(v, np.zeros(len(v)))
    return v, False


def _solve_direct(csr: sp.csr_matrix) -> np.ndarray:
    """Unnormalized pi with pi (I - K) = 0 by one sparse LU solve.

    Pins the last state's mass at 1 and solves the other rows, a nonsingular
    minor for an irreducible kernel.  SuperLU orders the columns by minimum
    degree on A^T + A and pivots on the diagonal where it can: these chains
    can step back along most edges, so the pattern of I - K^T is nearly
    symmetric, and the factors fill in less than under spsolve's COLAMD.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    a = (sp.identity(csr.shape[0], format="csc") - csr.T).tocsc()
    # With pi[-1] = 1, the last column of (I - K)^T moves to the right-hand side.
    lu = splu(a[:-1, :-1], permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    return np.append(lu.solve(-a[:-1, -1].toarray().ravel()), 1.0)


def stationary(tm: TransitionMatrix) -> np.ndarray:
    """Stationary distribution, verified against the kernel.

    Refuses a reducible or periodic kernel.  Where the closed-form law is
    known it iterates v -> K^T v from it until successive iterates differ by
    at most 1e-15 in max norm, which takes one product when the formula
    holds and its rounding does not move it by more; the start is never
    returned as is.  Otherwise (general Moran,
    hand-built kernels), or if that iteration has not settled within its
    budget, one sparse direct solve gives the kernel's own law; unlike power
    iteration or restarted Krylov solvers, it does not stall on slowly mixing
    chains.  Either way the result is normalized and verified pi K = pi to
    1e-12 in max norm with no entry below -1e-12.
    """
    problem = _ergodicity_problem(tm.csr)
    if problem is not None:
        raise StationaryConvergenceError(f"no unique limiting law: {problem}")
    start = _start(tm)
    settled = False
    if start is not None:
        pi, settled = _power_iterate(tm.kt, start)
    if not settled:
        pi = _solve_direct(tm.csr)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ tm.csr - pi)))
    # Written so that a NaN from the iteration or a singular solve fails the check.
    if not (residual <= _STATIONARY_CHECK_TOL and pi.min() >= -_STATIONARY_CHECK_TOL):
        raise StationaryConvergenceError(
            f"stationarity residual {residual:.3e} (tolerance {_STATIONARY_CHECK_TOL}), "
            f"smallest entry {pi.min():.3e}"
        )
    return pi


def tv_curve(tm: TransitionMatrix, x0: Composition, n_max: int,
             pi: np.ndarray | None = None) -> np.ndarray:
    """Exact TV distance to stationarity after 0..n_max steps from x0.

    The distributions after successive steps fill the rows of a block of at
    most _TV_BLOCK_BUDGET floats (2 rows at least), each row K^T times the
    one before; then one subtract, abs and row sum over the block give its
    distances.  Each row sum is the pairwise sum of 0.5 * |v - pi|.sum() on
    that row alone, so the curve has the bits of the step-by-step recurrence.
    The start is found by matching x0 against the rows of tm.state_array.
    A curve of more than 2^24 points raises CapacityError before any work.
    """
    x0 = validate_composition(x0, None, None)
    hit = len(x0) == tm.state_array.shape[1] and (tm.state_array == x0).all(axis=1)
    if not np.any(hit):
        raise ValidationError(f"start state {x0!r} is not in the state space")
    n_max = as_integer(n_max, "n_max")
    if n_max < 0:
        raise ValidationError(f"n_max must be >= 0, got {n_max}")
    if n_max >= _TV_CURVE_CAP:
        raise CapacityError(f"TV curve too long: {n_max + 1} points (cap {_TV_CURVE_CAP})")
    if pi is None:
        pi = stationary(tm)
    product = _product(tm.kt)
    rows = min(n_max + 1, max(2, _TV_BLOCK_BUDGET // tm.dim))
    block = np.zeros((rows, tm.dim))
    block[0, np.argmax(hit)] = 1.0
    out = np.empty(n_max + 1)
    for lo in range(0, n_max + 1, rows):
        k = min(rows, n_max + 1 - lo)
        if lo:
            product(last, block[0])
        for r in range(1, k):
            product(block[r - 1], block[r])
        last = block[k - 1].copy()
        dist = np.subtract(block[:k], pi, out=block[:k])
        np.abs(dist, out=dist)
        out[lo:lo + k] = 0.5 * dist.sum(axis=1)
        block.fill(0.0)
    return out
