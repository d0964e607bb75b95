"""Monotone eigenfunctions and the second eigenvalue for every model.

For the Moran chain the construction runs through the reduced matrix
M*_ij = m_ij - m_dj (i, j < d).  When the last mutation row is dominated by
the others, M* is nonnegative; its Perron eigenpair (lambda*, a*) yields the
linear eigenfunction

    f(x) = sum_{i<d} a*_i x_i + N a_d,    a_d = sum_{j<d} m_dj a*_j / (lambda* - 1),

with eigenvalue lambda = 1 - 1/N + lambda*/N.  f is strictly increasing along
the dominance order with minimal increment c1 = min a*_i and sup-norm c2.
The eigen identity is checked on the whole lattice, with no kernel row: the
defect Kf - lambda f = a*.(M^T x - x)_{<d} / N + gap f is affine in x, so it is
read at the d vertices N e_i.  gap = (1 - lambda*)/N stands for 1 - lambda.

The urn families admit the same linear form with a* = (1, ..., 1) and
closed-form second eigenvalues; see ``model_eigendata``.

A ``ConditionReport`` records weak domination as the field ``weak`` and
computes c2, a graph search on the reduced matrix, only when it is read.

The public functions validate their input.  Past that, the scalar work,
the eigen check among it, reads the mutation matrix's float rows
(``MutationMatrix.rows``) and Python floats.  numpy holds the reduced matrix
and forms the Perron run's products, written into two alternating vectors;
the run's checks and its residual read the entries once, as Python floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from operator import le, lt, mul, sub

import numpy as np

from . import kernels
from .errors import (
    EigenConsistencyError,
    NoMonotoneConditionError,
    PerronConvergenceError,
    ValidationError,
)
from .kernels import ModelSpec, MoranGeneral, MoranStandard, MutationMatrix, UrnSpec
from .statespace import Composition

_EIGEN_ROW_TOL = 1e-10
# |lam - (1 - gap)| allowed between the two roundings of the same eigenvalue.
_EIGEN_LAM_TOL = 4 * 2.0**-52
_PERRON_RESIDUAL_TOL = 1e-12
_PERRON_STEP_TOL = 1e-14
_PERRON_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Which of the three dominated-row monotonicity conditions hold.

    strict (c1): last row strictly below the columnwise minimum of the others.
    weak_irreducible (c2): weak domination with an irreducible reduced matrix.
    weak_positive_eigenvector (c3): weak domination and power iteration on
    the reduced matrix converges to a strictly positive vector.

    ``c2_holds`` is a cached property, not a field: it is computed from
    ``weak`` and ``reduced`` when first read.  ``any_holds`` reads c1, then
    c3, then c2, so a report that c1 or c3 decides never makes the search.

    Under weak domination the Perron run made for the third condition is
    kept: its eigenpair (lam_star, a_star), with a_star read-only like
    ``reduced``, or the PerronConvergenceError it raised.  All three are None
    without weak domination, where no run is made.
    """

    c1_holds: bool
    weak: bool
    c3_holds: bool
    reduced: np.ndarray
    lam_star: float | None
    a_star: np.ndarray | None
    perron_error: PerronConvergenceError | None

    @cached_property
    def c2_holds(self) -> bool:
        return self.weak and kernels._strongly_connected(self.reduced > 0.0)

    @property
    def any_holds(self) -> bool:
        return self.c1_holds or self.c3_holds or self.c2_holds


@lru_cache(maxsize=8)
def classify_conditions(M: MutationMatrix) -> ConditionReport:
    """Evaluate the three monotonicity conditions for a mutation matrix.

    Reports are kept for the last 8 matrices (immutable, hashed by identity),
    so a spec's eigendata and its coupled runs share one Perron run.
    """
    d = M.d
    m = M.matrix
    reduced = m[: d - 1, : d - 1] - m[d - 1, : d - 1][np.newaxis, :]
    reduced.setflags(write=False)

    # The domination tests read the same floats from M.rows.
    last = M.rows[d - 1][: d - 1]
    col_min = list(map(min, zip(*M.rows[: d - 1])))
    weak = all(map(le, last, col_min))
    strict = all(map(lt, last, col_min))
    lam_star = a_star = error = None
    if weak:
        try:
            lam_star, a_star = perron(reduced)
            a_star.setflags(write=False)
        except PerronConvergenceError as exc:
            error = exc
    c3 = a_star is not None and min(a_star.tolist()) > 0.0
    return ConditionReport(strict, weak, c3, reduced, lam_star, a_star, error)


def perron(m_star: np.ndarray, max_iter: int = _PERRON_MAX_ITER) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of the nonnegative reduced matrix by power iteration.

    Starts from the all-ones vector, normalizes by the max entry, and stops
    when successive iterates agree to 1e-14 in max norm.  The returned
    vector has max entry 1.  Raises PerronConvergenceError when the iteration
    oscillates (complex or tied dominant pair) or stalls, soon after the
    iterates start to repeat exactly (an irreducible matrix with period p > 1),
    and ValidationError on negative or non-finite entries.
    """
    a = np.asarray(m_star, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"reduced matrix must be square, got shape {a.shape}")
    # The checks and the residual read the entries once, as Python floats.
    rows = a.tolist()
    flat = list(chain.from_iterable(rows))
    # Finite first: a Python min over NaN is order-dependent.
    if not (all(map(math.isfinite, flat)) and min(flat, default=0.0) >= 0.0):
        raise ValidationError("reduced matrix must be nonnegative and finite")
    k = a.shape[0]
    if not any(flat):
        # Zero matrix: every positive vector is an eigenvector for 0.
        return 0.0, np.ones(k)

    # The iterate `vec` is the array that `dot` wrote, divided by its max;
    # `dot` writes into `spare`, the iterate before, so the two alternate.
    # The stopping and cycle checks read the iterate as a float list, `w`.
    # An iterate equal to an earlier one repeats forever, since the map is
    # deterministic.  `back` catches a 2-cycle at once; longer cycles are found
    # against `mark` (Brent), which moves on after 1, 2, 4, ... iterations.
    dot = a.dot
    vec, spare, v, back = np.ones(k), np.empty(k), [1.0] * k, None
    mark, since, power = v, 0, 1
    for _ in range(max_iter):
        vec, spare = dot(vec, out=spare), vec
        mx = max(vec.tolist())
        if mx <= 0.0:
            raise PerronConvergenceError(
                "Perron iteration failed: iterate vanished (nilpotent reduced matrix?)"
            )
        vec /= mx
        w = vec.tolist()
        if max(map(abs, map(sub, w, v))) < _PERRON_STEP_TOL:
            lam = mx
            break
        if w == back:
            raise PerronConvergenceError("Perron iteration failed: iterates cycle with period 2")
        since += 1
        if w == mark:
            raise PerronConvergenceError(
                f"Perron iteration failed: iterates cycle with period {since}")
        if since == power:
            mark, since, power = w, 0, 2 * power
        back, v = v, w
    else:
        raise PerronConvergenceError(
            f"Perron iteration failed to converge within {max_iter} iterations"
        )

    residual = max(abs(sum(map(mul, row, w)) - lam * wi) for row, wi in zip(rows, w))
    if residual > _PERRON_RESIDUAL_TOL:
        raise PerronConvergenceError(
            f"Perron iteration converged to residual {residual:.3e} > {_PERRON_RESIDUAL_TOL}"
        )
    if not lam < 1.0:
        raise PerronConvergenceError(
            f"dominant reduced eigenvalue {lam} is not < 1; invalid mutation matrix?"
        )
    return lam, vec


@dataclass(slots=True)
class EigenData:
    """Second eigenvalue and strictly monotone linear eigenfunction.

    f(x) = sum_{i<d} a_star[i] * x_i + f0 with f0 = N * a_d; c1 is the minimal
    increment of f along the dominance order and c2 = sup |f|.  gap = 1 - lam
    from the family's closed form, with the low bits lam drops at large N.

    Slotted, not frozen: each call that returns one builds it fresh, and no
    cache or record holds one, so freezing guarded nothing; a frozen __init__
    sets each field through object.__setattr__, at several times the cost.
    """

    lam: float
    gap: float
    a_star: tuple[float, ...]
    a_d: float
    c1: float
    c2: float
    f0: float
    N: int

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValidationError(f"second eigenvalue must be in [0, 1), got {self.lam}")
        if any(a <= 0.0 for a in self.a_star):
            raise ValidationError(f"a_star entries must be positive, got {self.a_star}")
        if self.c1 <= 0.0 or self.c2 <= 0.0:
            raise ValidationError("c1 and c2 must be positive")

    @property
    def d(self) -> int:
        return len(self.a_star) + 1

    def value(self, x: Composition) -> float:
        """Evaluate the eigenfunction at a state."""
        acc = self.f0
        for a, xi in zip(self.a_star, x):
            acc += a * xi
        return acc

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "a_star": list(self.a_star),
            "a_d": self.a_d,
            "c1": self.c1,
            "c2": self.c2,
            "f0": self.f0,
            "N": self.N,
            "d": self.d,
        }


def build_eigenfunction(M: MutationMatrix, n_total: int) -> EigenData:
    """Monotone eigenfunction of the Moran chain with mutation matrix M.

    Requires one of the monotonicity conditions.  Reads the Perron eigenpair
    of the reduced matrix from classify_conditions, so one power iteration
    serves both, and raises the PerronConvergenceError that run met, if any,
    as a fresh exception.  Verifies the eigen identity on every state, at
    the d vertices, before returning.
    """
    if n_total < 1:
        raise ValidationError(f"need N >= 1, got {n_total}")
    report = classify_conditions(M)
    if not report.any_holds:
        raise NoMonotoneConditionError(
            "mutation matrix fails the dominated-last-row monotonicity conditions "
            "(strict domination / weak + irreducible reduced / weak + positive eigenvector)"
        )
    if report.perron_error is not None:
        # The report is kept: raising its error itself would grow its traceback.
        raise PerronConvergenceError(*report.perron_error.args)
    lam_star, a_star = report.lam_star, tuple(report.a_star.tolist())
    d = M.d
    a_d = math.fsum(map(mul, M.rows[d - 1][: d - 1], a_star)) / (lam_star - 1.0)
    if not a_d < 0.0:
        raise EigenConsistencyError(
            f"expected a negative shift for the last species, got a_d={a_d}"
        )
    lam = 1.0 - 1.0 / n_total + lam_star / n_total
    # 1 - lam has lost the low bits of the gap by N ~ 1e7, and f ~ N
    # multiplies what is lost, so the check reads the gap itself.
    gap = (1.0 - lam_star) / n_total
    c1 = min(a_star)
    c2 = max(-n_total * a_d, n_total * (max(a_star) + a_d))
    ed = EigenData(
        lam=lam,
        gap=gap,
        a_star=a_star,
        a_d=a_d,
        c1=c1,
        c2=c2,
        f0=n_total * a_d,
        N=n_total,
    )
    if not abs(ed.lam - (1.0 - ed.gap)) <= _EIGEN_LAM_TOL:
        raise EigenConsistencyError(
            f"second eigenvalue {ed.lam!r} is not 1 - gap for gap {ed.gap!r}"
        )
    residual = _moran_residual(M, ed)
    if residual > _EIGEN_ROW_TOL:
        raise EigenConsistencyError(
            f"eigen identity violated: max |Kf - lam*f| = {residual:.3e} over the lattice"
        )
    return ed


def model_eigendata(spec: ModelSpec) -> EigenData:
    """Second eigenvalue and monotone eigenfunction for any model spec.

    Urn families share the eigenfunction f(x) = sum_{i<d} x_i - N (1 - p_d)
    with p the normalized urn weights, and the second eigenvalue

        lam = 1 - s T / (pool (inc base + T)),

    T the weight total, inc the draw increment and (pool, base) = (N, N) for
    level, (N, N - s) for down-up and (N + s, N) for up-down order.
    """
    if isinstance(spec, MoranGeneral):
        return build_eigenfunction(spec.M, spec.N)

    N = spec.N
    if isinstance(spec, MoranStandard):
        gap = spec.m / N
        p_last = spec.p[-1]
    elif isinstance(spec, UrnSpec):
        # base is formed in integers before it meets T, so down-up with
        # s = N gives lam = 0 exactly rather than a rounded negative.
        s, total = spec.s, spec.weight_total
        pool = N + s if spec.order == "updown" else N
        base = N - s if spec.order == "downup" else N
        gap = (s * total) / (pool * (total + spec.inc * base))
        p_last = spec.weights[-1] / total
    else:
        raise ValidationError(f"unsupported model spec {type(spec).__name__}")

    a_d = -(1.0 - p_last)
    return EigenData(
        lam=1.0 - gap,
        gap=gap,
        a_star=(1.0,) * (spec.d - 1),
        a_d=a_d,
        c1=1.0,
        c2=max(N * p_last, N * (1.0 - p_last)),
        f0=N * a_d,
        N=N,
    )


def _moran_residual(M: MutationMatrix, ed: EigenData) -> float:
    """Max over every state of |Kf - lam f| = |sum_i (x_i / N) r_i|: max |r_i|, where
    r_i = sum_{j<d} m_ij a*_j - [i<d] a*_i + gap ([i<d] N a*_i + f0) is its value at N e_i.
    """
    a, n, gap, f0 = ed.a_star, ed.N, ed.gap, ed.f0
    return max(abs(sum(map(mul, row, a)) - ai + gap * (n * ai + f0))
               for row, ai in zip(M.rows, (*a, 0.0)))
