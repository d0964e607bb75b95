"""Nonasymptotic total-variation bounds and the crude spectral bound.

Every model here has the unique minimal state 0 = (0, ..., 0, N) and a
strictly monotone eigenfunction f with E_pi f = 0, so the two-sided bound
from any start x reads

    |f(x)| / (2 c2) * lam^n  <=  TV(n)  <=  (f(x) - 2 f(0)) / c1 * lam^n.

The crude comparison bound lam^n / (2 sqrt(pi(x))) needs the stationary mass
at x; it is evaluated in log space because the coefficient reaches 1e19 at
the scales of interest.

The public functions validate their input, then call private kernels that
take it as valid, so each formula has one arithmetic path.  ``bound_report``
validates its start once and passes the checked tuple to those kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownStationaryError, ValidationError
from .kernels import ModelSpec, MoranGeneral, MoranStandard, UrnSpec
from .spectral import EigenData, model_eigendata
from .statespace import Composition, validate_composition


@dataclass(slots=True)
class BoundReport:
    """Coefficients and step counts for a target accuracy epsilon.

    ``steps_necessary`` comes from the lower bound (fewer steps provably leave
    TV above epsilon), ``steps_sufficient`` from the upper bound.  The crude
    fields are None when the stationary law is unknown (general Moran).
    Slotted, not frozen, like EigenData: each report is built fresh for its
    caller.
    """

    lam: float
    lower_coeff: float
    upper_coeff: float
    crude_coeff: float | None
    epsilon: float
    steps_necessary: int
    steps_sufficient: int
    steps_crude: int | None

    def __post_init__(self):
        if self.lower_coeff > self.upper_coeff:
            raise ValidationError("lower coefficient exceeds upper coefficient")
        if self.steps_necessary > self.steps_sufficient:
            raise ValidationError("necessary steps exceed sufficient steps")

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "lower_coeff": self.lower_coeff,
            "upper_coeff": self.upper_coeff,
            "crude_coeff": self.crude_coeff,
            "epsilon": self.epsilon,
            "steps_necessary": self.steps_necessary,
            "steps_sufficient": self.steps_sufficient,
            "steps_crude": self.steps_crude,
        }


def tv_bound_coefficients(ed: EigenData, x: Composition) -> tuple[float, float]:
    """Lower and upper TV coefficients from eigendata at start state x.

    Uses E_pi f = 0 and f >= f(0), so the upper expectation collapses to the
    closed form f(x) - 2 f(0); no stationary law is needed.
    """
    return _coefficients(ed, validate_composition(x, ed.N, ed.d))


def _coefficients(ed: EigenData, x: Composition) -> tuple[float, float]:
    """tv_bound_coefficients at a validated start."""
    fx = ed.value(x)
    return abs(fx) / (2.0 * ed.c2), (fx - 2.0 * ed.f0) / ed.c1


def steps_to_epsilon(coeff: float, lam: float, epsilon: float) -> int:
    """Smallest n >= 0 with coeff * lam^n <= epsilon.

    Computed by logarithms, then nudged so the defining inequality holds
    exactly as evaluated in floating point (the golden step counts sit close
    to ceiling boundaries).
    """
    # Written so that NaN fails each check.
    if not epsilon > 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"decay rate must be in (0, 1), got {lam}")
    if not math.isfinite(coeff):
        raise ValidationError(f"coefficient must be finite, got {coeff}")
    if coeff <= epsilon:
        return 0
    n = max(0, math.ceil(math.log(coeff / epsilon) / -math.log(lam)))
    while n > 0 and coeff * lam ** (n - 1) <= epsilon:
        n -= 1
    while coeff * lam**n > epsilon:
        n += 1
    return n


def _dm_log_pmf(x, n_total: int, alpha, total: float) -> float:
    """Log Dirichlet-multinomial pmf of counts x (sum N) under weights alpha (sum total).

    Exponentiates to prod_i C(x_i + alpha_i - 1, x_i) / C(N + |alpha| - 1, N)
    for integer weights; the log-gamma form extends that to real weights and
    avoids overflow.
    """
    out = math.lgamma(n_total + 1) + math.lgamma(total) - math.lgamma(n_total + total)
    for xi, ai in zip(x, alpha):
        out += math.lgamma(xi + ai) - math.lgamma(xi + 1) - math.lgamma(ai)
    return out


def _multinomial_log_pmf(x, n_total: int, p) -> float:
    """Log multinomial pmf of counts x (sum N) under cell probabilities p."""
    out = math.lgamma(n_total + 1)
    for xi, pi in zip(x, p):
        out -= math.lgamma(xi + 1)
        if xi:
            out += xi * math.log(pi)
    return out


def _closed_form(spec: ModelSpec) -> tuple[tuple[float, ...], float, bool]:
    """(weights, their fsum, reinforced) of the spec's closed-form stationary law.

    The law is Dirichlet-multinomial with alpha = weights when reinforced, and
    multinomial with p = weights otherwise (the total is then unused).
    Standard Moran and the three Polya variants are Dirichlet-multinomial
    (standard Moran with alpha_i = N m p_i / (1 - m), degenerating to the
    multinomial at m = 1); Ehrenfest is multinomial.  The general Moran chain
    has no known stationary law.
    """
    if isinstance(spec, MoranStandard):
        if spec.m == 1.0:
            return spec.p, 1.0, False
        alpha = tuple(spec.N * spec.m * pi / (1.0 - spec.m) for pi in spec.p)
        return alpha, math.fsum(alpha), True
    if isinstance(spec, UrnSpec):
        return spec.weights, spec.weight_total, spec.reinforced
    raise UnknownStationaryError(
        f"crude bound unavailable: no closed-form stationary law for "
        f"{type(spec).__name__}"
    )


def _stationary_log_pmf(spec: ModelSpec, x: Composition) -> float:
    """Log stationary mass at a validated state x, where a closed form is known (see _closed_form)."""
    weights, total, reinforced = _closed_form(spec)
    if reinforced:
        return _dm_log_pmf(x, spec.N, weights, total)
    return _multinomial_log_pmf(x, spec.N, weights)


def stationary_log_pmfs(spec: ModelSpec, states: np.ndarray) -> np.ndarray:
    """_stationary_log_pmf at every row of a states array.

    The per-coordinate terms of _dm_log_pmf or _multinomial_log_pmf are
    tabled over the counts 0..N with math.lgamma and indexed by the states.
    """
    weights, total, reinforced = _closed_form(spec)
    n = spec.N
    counts = range(n + 1)
    if reinforced:
        const = math.lgamma(n + 1) + math.lgamma(total) - math.lgamma(n + total)
        table = [[math.lgamma(c + a) - math.lgamma(c + 1) - math.lgamma(a) for c in counts]
                 for a in weights]
    else:
        const = math.lgamma(n + 1)
        table = [[c * math.log(p) - math.lgamma(c + 1) for c in counts] for p in weights]
    terms = np.array(table)[np.arange(len(weights)), states]
    return const + terms.sum(axis=1)


def _report_steps(coeff: float, lam: float, epsilon: float) -> int:
    """steps_to_epsilon, extended to lam = 0: such a chain is stationary after one step."""
    if lam == 0.0 and epsilon > 0.0:
        return 0 if coeff <= epsilon else 1
    return steps_to_epsilon(coeff, lam, epsilon)


def crude_bound(spec: ModelSpec, x: Composition) -> float:
    """Coefficient 1 / (2 sqrt(pi(x))) of the crude spectral upper bound."""
    return _crude_bound(spec, validate_composition(x, spec.N, spec.d))


def _crude_bound(spec: ModelSpec, x: Composition) -> float:
    """crude_bound at a validated start."""
    return math.exp(-0.5 * _stationary_log_pmf(spec, x) - math.log(2.0))


def bound_coefficients(spec: ModelSpec,
                       x: Composition) -> tuple[float, float, float, float | None]:
    """(lam, lower, upper, crude) at start x: bound_report without the step counts.

    The start is validated once; the general Moran chain, with no known
    stationary law, has no crude coefficient (None).
    """
    ed = model_eigendata(spec)
    x = validate_composition(x, ed.N, ed.d)
    lower, upper = _coefficients(ed, x)
    crude = None if isinstance(spec, MoranGeneral) else _crude_bound(spec, x)
    return ed.lam, lower, upper, crude


def bound_report(spec: ModelSpec, x: Composition, epsilon: float) -> BoundReport:
    """Full bound evaluation: bound_coefficients and the step counts to epsilon."""
    lam, lower, upper, crude = bound_coefficients(spec, x)
    return BoundReport(
        lam=lam,
        lower_coeff=lower,
        upper_coeff=upper,
        crude_coeff=crude,
        epsilon=epsilon,
        steps_necessary=_report_steps(lower, lam, epsilon),
        steps_sufficient=_report_steps(upper, lam, epsilon),
        steps_crude=None if crude is None else _report_steps(crude, lam, epsilon),
    )
