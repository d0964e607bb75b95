"""Desk-scale ground truth: sparse kernels, stationary laws, exact TV curves.

Everything here materializes the full state space, so it is gated by the
enumeration cap.  The stationary distribution is one sparse direct solve of
pi (I - K) = 0 with the last state's mass pinned, after a graph check that
the kernel is irreducible and aperiodic; TV curves use row-sparse vector
products.  Nothing makes the kernel dense.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import spsolve

from .errors import StationaryConvergenceError, ValidationError
from .kernels import ModelSpec, MoranGeneral, MoranStandard, expand_standard, kernel_rows
from .statespace import (
    DEFAULT_STATE_CAP,
    Composition,
    enumerate_states,
    ranks,
    validate_composition,
)

_STATIONARY_CHECK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Materialized kernel: states in enumeration order plus the sparse matrix."""

    spec: ModelSpec
    states: list[Composition]
    csr: sp.csr_matrix
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)


def build_matrix(spec: ModelSpec, cap: int | None = DEFAULT_STATE_CAP) -> TransitionMatrix:
    """Exact transition matrix of a model over its full state space.

    Rows come from kernels.kernel_rows a block of states at a time; a
    successor's column is its colex rank, which is its enumeration index.
    """
    expanded = expand_standard(spec)
    states = enumerate_states(expanded.N, expanded.d, cap=cap)
    lengths, cols, data = [np.zeros(1, dtype=np.int64)], [], []
    for n, succ, probs in kernel_rows(expanded, np.array(states, dtype=np.int64)):
        lengths.append(n)
        cols.append(ranks(succ, expanded.N))
        data.append(probs)
    csr = sp.csr_matrix(
        (np.concatenate(data), np.concatenate(cols), np.cumsum(np.concatenate(lengths))),
        shape=(len(states), len(states)),
    )
    return TransitionMatrix(spec=spec, states=states, csr=csr,
                            index={x: i for i, x in enumerate(states)})


def _ergodicity_problem(csr: sp.csr_matrix) -> str | None:
    """Why the kernel's graph is not one aperiodic strong component, or None.

    The period is the gcd over edges u -> v of dist(u) + 1 - dist(v), with
    BFS distances from state 0; a self-loop settles it at 1 directly.
    """
    n_comp, _ = connected_components(csr, directed=True, connection="strong")
    if n_comp != 1:
        return f"kernel is reducible ({n_comp} strong components)"
    if np.any(csr.diagonal() > 0.0):
        return None
    dist = shortest_path(csr, unweighted=True, indices=0).astype(np.int64)
    edges = csr.tocoo()
    period = int(np.gcd.reduce(dist[edges.row] + 1 - dist[edges.col]))
    return None if period == 1 else f"kernel is periodic (period {period})"


def stationary(tm: TransitionMatrix) -> np.ndarray:
    """Stationary distribution by one sparse direct solve.

    Refuses a reducible or periodic kernel, pins the last state's mass at 1,
    solves the other rows of pi (I - K) = 0 (a nonsingular minor for an
    irreducible kernel), normalizes, and verifies pi K = pi to 1e-12 in max
    norm with no entry below -1e-12.
    """
    problem = _ergodicity_problem(tm.csr)
    if problem is not None:
        raise StationaryConvergenceError(f"no unique limiting law: {problem}")
    a = (sp.identity(tm.dim, format="csc") - tm.csr.T).tocsc()
    # With pi[-1] = 1, the last column of (I - K)^T moves to the right-hand side.
    pi = np.append(spsolve(a[:-1, :-1], -a[:-1, -1].toarray().ravel()), 1.0)
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ tm.csr - pi)))
    # Written so that a NaN from a singular solve fails the check.
    if not (residual <= _STATIONARY_CHECK_TOL and pi.min() >= -_STATIONARY_CHECK_TOL):
        raise StationaryConvergenceError(
            f"stationarity residual {residual:.3e} (tolerance {_STATIONARY_CHECK_TOL}), "
            f"smallest entry {pi.min():.3e}"
        )
    return pi


def tv_curve(tm: TransitionMatrix, x0: Composition, n_max: int,
             pi: np.ndarray | None = None) -> np.ndarray:
    """Exact TV distance to stationarity after 0..n_max steps from x0."""
    x0 = validate_composition(x0, None, None)
    if x0 not in tm.index:
        raise ValidationError(f"start state {x0!r} is not in the state space")
    if n_max < 0:
        raise ValidationError(f"n_max must be >= 0, got {n_max}")
    if pi is None:
        pi = stationary(tm)
    kt = tm.csr.T.tocsr()
    v = np.zeros(tm.dim)
    v[tm.index[x0]] = 1.0
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        out[n] = 0.5 * float(np.abs(v - pi).sum())
        if n < n_max:
            v = kt @ v
    return out


def check_irreducible_aperiodic(spec: MoranGeneral,
                                cap: int | None = DEFAULT_STATE_CAP) -> bool:
    """Whether the chain's state graph is strongly connected with period 1."""
    if not isinstance(spec, (MoranGeneral, MoranStandard)):
        raise ValidationError("check targets the Moran replacement chain")
    return _ergodicity_problem(build_matrix(spec, cap=cap).csr) is None


@dataclass(frozen=True)
class MonotonicityAudit:
    """Result of a randomized stochastic-monotonicity audit."""

    trials: int
    comparable_pairs: int
    violations: int
    max_excess: float


def monotonicity_audit(tm: TransitionMatrix, trials: int, seed: int = 0,
                       tol: float = 1e-10) -> MonotonicityAudit:
    """Check Kg(x) <= Kg(y) for random monotone g over all comparable pairs x <= y.

    Test functions accumulate nonnegative increments along the coordinate
    grid of the first d-1 counts, so they are monotone by construction; the
    seed makes the audit deterministic.  A monotone kernel produces zero
    violations; a non-monotone one may be caught (the audit is a randomized
    search, not a proof of monotonicity).
    """
    if tm.dim > 2_000:
        raise ValidationError(f"audit limited to 2000 states, got {tm.dim}")
    states = np.asarray(tm.states, dtype=np.int64)
    d = states.shape[1]
    prefix = states[:, : d - 1]
    comparable = np.all(prefix[:, None, :] <= prefix[None, :, :], axis=2)
    np.fill_diagonal(comparable, False)
    n_pairs = int(comparable.sum())

    # Order states by prefix level so predecessors are filled first.
    order = np.argsort(prefix.sum(axis=1), kind="stable")
    rng = np.random.default_rng(seed)

    violations = 0
    max_excess = 0.0
    for _ in range(trials):
        increments = rng.random(tm.dim)
        g = np.zeros(tm.dim)
        for idx in order:
            x = tm.states[int(idx)]
            best = 0.0
            for i in range(d - 1):
                if x[i] > 0:
                    pred = list(x)
                    pred[i] -= 1
                    pred[d - 1] += 1
                    best = max(best, g[tm.index[tuple(pred)]])
            g[int(idx)] = best + increments[int(idx)]
        kg = tm.csr @ g
        excess = kg[:, None] - kg[None, :] - tol
        bad = comparable & (excess > 0.0)
        violations += int(bad.sum())
        if bad.any():
            max_excess = max(max_excess, float(excess[bad].max()))
    return MonotonicityAudit(
        trials=trials,
        comparable_pairs=n_pairs,
        violations=violations,
        max_excess=max_excess,
    )
