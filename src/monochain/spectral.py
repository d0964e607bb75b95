"""Monotone eigenfunctions and the second eigenvalue for every model.

For the Moran chain the construction runs through the reduced matrix
M*_ij = m_ij - m_dj (i, j < d).  When the last mutation row is dominated by
the others, M* is nonnegative; its Perron eigenpair (lambda*, a*) yields the
linear eigenfunction

    f(x) = sum_{i<d} a*_i x_i + N a_d,    a_d = sum_{j<d} m_dj a*_j / (lambda* - 1),

with eigenvalue lambda = 1 - 1/N + lambda*/N.  f is strictly increasing along
the dominance order with minimal increment c1 = min a*_i and sup-norm c2.
The eigen identity is checked, with no kernel row, in increment form:
Kf(x) - lambda f(x) = a*.(M^T x - x)_{<d} / N + (1 - lambda) f(x), where
1 - lambda is read as the gap (1 - lambda*)/N, not from the rounded lambda.

The urn families admit the same linear form with a* = (1, ..., 1) and
closed-form second eigenvalues; see ``model_eigendata``.

The public functions validate their input.  Past that, the scalar work reads
the mutation matrix's float rows (``MutationMatrix.rows``) and Python floats;
numpy holds the reduced matrix and does the array work of the Perron run
(its checks, products and residual) and of the eigen check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
from .statespace import Composition, minimal_element, validate_composition

_EIGEN_ROW_TOL = 1e-10
# |lam - (1 - gap)| allowed between the two roundings of the same eigenvalue.
_EIGEN_LAM_TOL = 4 * 2.0**-52
_PERRON_RESIDUAL_TOL = 1e-12
_PERRON_STEP_TOL = 1e-14
_PERRON_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Which of the three dominated-row monotonicity conditions hold.

    strict: last row strictly below the columnwise minimum of the others.
    weak_irreducible: weak domination with an irreducible reduced matrix.
    weak_positive_eigenvector: weak domination and power iteration on the
    reduced matrix converges to a strictly positive vector.

    Under weak domination the Perron run made for the third condition is
    kept: its eigenpair (lam_star, a_star), with a_star read-only like
    ``reduced``, or the PerronConvergenceError it raised.  All three are None
    without weak domination, where no run is made.
    """

    c1_holds: bool
    c2_holds: bool
    c3_holds: bool
    reduced: np.ndarray
    lam_star: float | None
    a_star: np.ndarray | None
    perron_error: PerronConvergenceError | None

    @property
    def any_holds(self) -> bool:
        return self.c1_holds or self.c2_holds or self.c3_holds


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
    c2 = weak and kernels._strongly_connected(reduced > 0.0)
    lam_star = a_star = error = None
    if weak:
        try:
            lam_star, a_star = perron(reduced)
            a_star.setflags(write=False)
        except PerronConvergenceError as exc:
            error = exc
    c3 = a_star is not None and min(a_star.tolist()) > 0.0
    return ConditionReport(strict, c2, c3, reduced, lam_star, a_star, error)


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
    if not ((a >= 0.0) & (a < math.inf)).all():  # a Python max over NaN is order-dependent
        raise ValidationError("reduced matrix must be nonnegative and finite")
    k = a.shape[0]
    if not a.any():
        # Zero matrix: every positive vector is an eigenvector for 0.
        return 0.0, np.ones(k)

    # The iterate `vec` stays the array that `dot` returned, divided by its
    # max; the stopping and cycle checks read it as a float list, `w`.
    # An iterate equal to an earlier one repeats forever, since the map is
    # deterministic.  `back` catches a 2-cycle at once; longer cycles are found
    # against `mark` (Brent), which moves on after 1, 2, 4, ... iterations.
    dot = a.dot
    vec, v, back = np.ones(k), [1.0] * k, None
    mark, since, power = v, 0, 1
    for _ in range(max_iter):
        vec = dot(vec)
        mx = max(vec.tolist())
        if mx <= 0.0:
            raise PerronConvergenceError(
                "Perron iteration failed: iterate vanished (nilpotent reduced matrix?)"
            )
        vec /= mx
        w = vec.tolist()
        if max(map(abs, map(sub, w, v))) < _PERRON_STEP_TOL:
            lam, v = mx, vec
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

    residual = float(abs(a @ v - lam * v).max())
    if residual > _PERRON_RESIDUAL_TOL:
        raise PerronConvergenceError(
            f"Perron iteration converged to residual {residual:.3e} > {_PERRON_RESIDUAL_TOL}"
        )
    if not lam < 1.0:
        raise PerronConvergenceError(
            f"dominant reduced eigenvalue {lam} is not < 1; invalid mutation matrix?"
        )
    return lam, v


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
    as a fresh exception.  Verifies the eigen identity, in increment form,
    on three probe states before returning.
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
    base, extra = divmod(n_total, d)
    probes = [minimal_element(n_total, d), (n_total,) + (0,) * (d - 1),
              tuple(base + (1 if i < extra else 0) for i in range(d))]
    if not abs(ed.lam - (1.0 - ed.gap)) <= _EIGEN_LAM_TOL:
        raise EigenConsistencyError(
            f"second eigenvalue {ed.lam!r} is not 1 - gap for gap {ed.gap!r}"
        )
    residual = _moran_residual(M, ed, probes)
    if residual > _EIGEN_ROW_TOL:
        raise EigenConsistencyError(
            f"eigen identity violated: max |Kf - lam*f| = {residual:.3e} over {probes}"
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


def eigen_residual(spec: ModelSpec, ed: EigenData, states) -> float:
    """Max-norm residual of Kf - lam f = (Kf - f) + gap f over the given states.

    Kf - f sums p (f(y) - f(x)) over the kernel_rows of the states, as one
    array; f(y) - f(x) is a*.(y - x)_{<d}, so no term cancels f(x) ~ N.
    """
    x = np.array([validate_composition(y, spec.N, spec.d) for y in states],
                 dtype=np.int64).reshape(-1, spec.d)
    a = np.array(ed.a_star)
    kf_minus_f, lo = np.zeros(len(x)), 0
    for lengths, succ, probs in kernels.kernel_rows(spec, x):
        row = np.repeat(np.arange(lo, lo + len(lengths)), lengths)
        np.add.at(kf_minus_f, row, probs * ((succ - x[row])[:, :-1] @ a))
        lo += len(lengths)
    f = x[:, :-1] @ a + ed.f0
    return float(np.max(np.abs(kf_minus_f + ed.gap * f), initial=0.0))


def _moran_residual(M: MutationMatrix, ed: EigenData, states) -> float:
    """Max over states of |(Kf - f)(x) + gap f(x)|, gap = 1 - lam."""
    x = np.array(states, dtype=float).reshape(-1, ed.d)
    a = np.array(ed.a_star)
    kf_minus_f = (x @ M.matrix - x)[:, :-1] @ a / ed.N
    f = x[:, :-1] @ a + ed.f0
    return float(np.max(np.abs(kf_minus_f + ed.gap * f), initial=0.0))
