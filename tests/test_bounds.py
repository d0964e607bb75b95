import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from monochain import (
    Ehrenfest,
    MonochainError,
    MoranGeneral,
    MoranStandard,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
    UnknownStationaryError,
    ValidationError,
    bound_report,
    crude_bound,
    enumerate_states,
    model_eigendata,
    spec_to_json,
    steps_to_epsilon,
    tv_bound_coefficients,
)
from monochain.bounds import _dm_log_pmf, _multinomial_log_pmf, _stationary_log_pmf, stationary_log_pmfs
from monochain.cli import main
from helpers import (
    delta_construction_matrix,
    random_dominated_matrix,
    random_model,
    random_prob_vector,
    random_state,
)
from oracles import minimal_element, multinomial_pmf


def test_steps_to_epsilon_golden_cases():
    lam = 1 - 1 / 111
    assert steps_to_epsilon(0.375, lam, 0.01) == 401
    assert steps_to_epsilon(100.0, lam, 0.01) == 1018


def test_steps_to_epsilon_trivial_and_errors():
    assert steps_to_epsilon(0.005, 0.9, 0.01) == 0
    assert steps_to_epsilon(0.0, 0.9, 0.01) == 0
    with pytest.raises(ValidationError):
        steps_to_epsilon(1.0, 1.0, 0.01)
    with pytest.raises(ValidationError):
        steps_to_epsilon(1.0, 0.0, 0.01)
    with pytest.raises(ValidationError):
        steps_to_epsilon(1.0, 0.5, 0.0)


def test_steps_to_epsilon_boundary_definition():
    rng = np.random.default_rng(12)
    for _ in range(300):
        coeff = float(rng.uniform(0.01, 1e6))
        lam = float(rng.uniform(0.05, 0.999))
        eps = float(rng.uniform(1e-6, 0.5))
        n = steps_to_epsilon(coeff, lam, eps)
        assert coeff * lam**n <= eps
        if n > 0:
            assert coeff * lam ** (n - 1) > eps


@pytest.mark.parametrize("coeff,epsilon", [
    (1.0, math.nan),
    (math.nan, 0.01),
    (math.inf, 0.01),
    (-math.inf, 0.01),
])
def test_steps_to_epsilon_refuses_non_finite_inputs(coeff, epsilon):
    with pytest.raises(ValidationError):
        steps_to_epsilon(coeff, 0.9, epsilon)


def test_steps_to_epsilon_negative_coefficient_needs_no_steps():
    assert steps_to_epsilon(-3.0, 0.9, 0.01) == 0


@pytest.mark.parametrize("epsilon", [math.nan, -math.inf, 0.0])
def test_bound_report_refuses_an_invalid_epsilon(epsilon):
    with pytest.raises(ValidationError, match="epsilon"):
        bound_report(PolyaLevel(10, 2, (2.0, 1.0, 1.0)), (2, 3, 5), epsilon)


@pytest.mark.parametrize("call", [
    lambda: crude_bound(PolyaLevel(7, 2, (1.0, 2.0, 0.5)), (1, 2, 3)),
    lambda: crude_bound(PolyaLevel(6, 2, (1.0, 2.0)), (1, 2, 3)),
    lambda: PolyaDownUp(6, 2, (1.0, -2.0, 0.5)),
    lambda: crude_bound(Ehrenfest(5, 1, (0.2, 0.3, 0.5)), (1, 2, 3)),
    lambda: crude_bound(Ehrenfest(6, 1, (0.2, 0.3, 0.4, 0.1)), (1, 2, 3)),
    lambda: Ehrenfest(6, 1, (0.5, -0.1, 0.6)),
    lambda: crude_bound(PolyaLevel(6, 2, (1.0, 2.0, 0.5)), (1, 2, 4)),
    lambda: crude_bound(Ehrenfest(6, 1, (0.2, 0.3, 0.5)), (1, 2, 2, 1)),
    lambda: PolyaLevel(6, 2, (1.0, 0.0, 0.5)),
    lambda: PolyaLevel(2, 1, (True, 1.0)),
    lambda: PolyaLevel(2, 1, ("2", 1.0)),
    lambda: crude_bound(PolyaLevel(2, 1, (1.0, 1.0)), (1.5, 0.5)),
    lambda: crude_bound(PolyaLevel(2, 1, (1.0, 1.0)), (-1, 3)),
    lambda: PolyaLevel(2, 1, (math.nan, 1.0)),
    lambda: crude_bound(Ehrenfest(2, 1, (0.5, 0.5)), (-1, 3)),
    lambda: Ehrenfest(2, 1, (math.inf, 0.5)),
], ids=["dm_sum", "dm_length", "dm_weight", "multinomial_sum", "multinomial_length",
        "multinomial_weight", "stationary_sum", "stationary_length", "stationary_weight",
        "dm_bool_weight", "dm_string_weight", "dm_fractional_count", "dm_negative_count",
        "dm_nan_weight", "multinomial_negative_count", "multinomial_infinite_weight"])
def test_log_pmfs_refuse_invalid_input(call):
    # The stationary mass is read at a state through crude_bound, which checks
    # it as a composition of the spec's N with one count per weight: integer
    # counts >= 0.  The weights (Dirichlet-multinomial alpha, multinomial p)
    # are the spec's: positive, finite reals, refused when it is built.
    with pytest.raises(ValidationError):
        call()


def test_dm_pmf_normalizes():
    states = np.array(enumerate_states(4, 3))
    for alpha in [(1.0, 1.0, 1.0), (0.5, 2.5, 1.25), (180.0, 180.0, 180.0)]:
        total = math.fsum(np.exp(stationary_log_pmfs(PolyaLevel(4, 1, alpha), states)))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_multinomial_pmf_normalizes():
    states = np.array(enumerate_states(5, 3))
    total = math.fsum(np.exp(stationary_log_pmfs(Ehrenfest(5, 1, (0.2, 0.5, 0.3)), states)))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_single_cell_pmfs_are_degenerate():
    # d = 1: the only composition carries all the mass, so the crude
    # coefficient 1 / (2 sqrt(pi)) collapses to 1/2.
    assert _dm_log_pmf((4,), 4, (2.5,), 2.5) == pytest.approx(0.0, abs=1e-12)
    assert _multinomial_log_pmf((4,), 4, (1.0,)) == pytest.approx(0.0, abs=1e-12)
    assert math.exp(-0.5 * 0.0 - math.log(2.0)) == 0.5


def test_dm_approaches_multinomial_for_large_weights():
    p = (0.3, 0.2, 0.5)
    states = np.array(enumerate_states(4, 3))
    dm = np.exp(stationary_log_pmfs(PolyaLevel(4, 1, tuple(1e6 * v for v in p)), states))
    mult = np.exp(stationary_log_pmfs(Ehrenfest(4, 1, p), states))
    assert np.all(np.abs(dm - mult) / mult <= 1e-3)


def test_crude_bound_unavailable_for_general_moran():
    spec = MoranGeneral(5, delta_construction_matrix())
    with pytest.raises(UnknownStationaryError, match="crude bound unavailable"):
        crude_bound(spec, (1, 1, 3))
    report = bound_report(spec, (1, 1, 3), 0.01)
    assert report.crude_coeff is None and report.steps_crude is None


def test_crude_bound_full_mutation_uses_multinomial_limit():
    spec = MoranStandard(4, 1.0, (0.25, 0.25, 0.5))
    x = (1, 1, 2)
    expected = 0.5 / math.sqrt(multinomial_pmf(x, spec.p))
    assert crude_bound(spec, x) == pytest.approx(expected, rel=1e-12)


def test_tv_bound_coefficients_at_minimal_element():
    spec = PolyaLevel(10, 2, (2.0, 1.0, 1.0))
    ed = model_eigendata(spec)
    p_last = 1.0 / 4.0
    lower, upper = tv_bound_coefficients(ed, minimal_element(10, 3))
    assert lower == pytest.approx(10 * (1 - p_last) / (2 * ed.c2), rel=1e-12)
    assert upper == pytest.approx(10 * (1 - p_last) / ed.c1, rel=1e-12)


def test_bound_report_assembly_invariants():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        spec = random_model(rng)
        ed = model_eigendata(spec)
        if ed.lam == 0.0:
            continue  # one-step mixers have no geometric rate to report
        x = tuple(
            int(c)
            for c in np.random.default_rng(checked).multinomial(spec.N, [1 / spec.d] * spec.d)
        )
        report = bound_report(spec, x, 0.01)
        assert 0.0 <= report.lower_coeff <= report.upper_coeff
        assert report.steps_necessary <= report.steps_sufficient
        assert report.lam == ed.lam
        if report.crude_coeff is not None:
            assert report.steps_crude >= 0
        checked += 1
    assert checked >= 25


# sha256 of the bound_report JSON (or the error class and message) over a
# seeded set of general Moran specs, d = 2..8 and N = 10..10^5, and a few urn
# and standard specs.  A change to the eigendata or bound layers that keeps
# every output keeps this digest.  The Ehrenfest spec at N = 10^5 pins the
# crude bound's OverflowError; a fix of that overflow changes the digest.
BOUND_REPORT_DIGEST = "37ec9eaef95fbbf3690c38a46917283fa0b8ff4aa7810429889677b3ff93a999"


def bound_report_outcomes():
    rng = np.random.default_rng(2013)
    specs = [MoranGeneral(n, random_dominated_matrix(rng, d))
             for d in range(2, 9) for n in (10, 1_000, 100_000)]
    specs += [
        MoranStandard(1_000, 0.3, random_prob_vector(rng, 4)),
        PolyaLevel(500, 3, (0.7, 1.9, 2.4)),
        PolyaUpDown(10_000, 2, (1.5, 2.0, 1.0, 0.5)),
        Ehrenfest(100_000, 4, random_prob_vector(rng, 5)),
    ]
    for spec in specs:
        x = random_state(rng, spec.N, spec.d)
        try:
            yield spec_to_json(spec), x, bound_report(spec, x, 0.01).to_json_dict()
        except (MonochainError, OverflowError) as exc:  # failures are pinned too
            yield spec_to_json(spec), x, f"{type(exc).__name__}: {exc}"


def test_bound_reports_match_pinned_digest():
    text = json.dumps(list(bound_report_outcomes()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BOUND_REPORT_DIGEST


def _lean_path_inputs():
    """A seeded mix of all six families, d = 2..8 and N = 10..10^8.

    Starts are multinomial draws around the stationary shares, so the crude
    coefficient stays in float range; uniform for the general Moran chain.
    """
    rng = np.random.default_rng(2016)
    for family in range(6):
        for d in range(2, 9):
            for _ in range(3):
                n = int(10 ** rng.uniform(1.0, 8.0))
                s = int(rng.integers(1, 9))
                alpha = tuple(float(a) for a in rng.uniform(0.4, 3.0, size=d))
                p = random_prob_vector(rng, d)
                spec = [
                    MoranGeneral(n, random_dominated_matrix(rng, d)),
                    MoranStandard(n, float(rng.uniform(0.1, 1.0)), p),
                    PolyaLevel(n, s, alpha),
                    PolyaUpDown(n, s, alpha),
                    PolyaDownUp(n, s, alpha),
                    Ehrenfest(n, s, p),
                ][family]
                if family == 0:
                    yield spec, random_state(rng, n, d)
                else:
                    shares = np.array(alpha if family in (2, 3, 4) else p)
                    x = rng.multinomial(n, shares / shares.sum())
                    yield spec, tuple(int(c) for c in x)


def test_bound_report_matches_the_public_functions():
    # bound_report validates its start once and calls private kernels; every
    # field must equal, as floats, what the public functions give.
    eps = 0.01
    for spec, x in _lean_path_inputs():
        report = bound_report(spec, x, eps)
        ed = model_eigendata(spec)
        lower, upper = tv_bound_coefficients(ed, x)
        assert report.lam == ed.lam
        assert report.lower_coeff == lower and report.upper_coeff == upper
        assert report.steps_necessary == steps_to_epsilon(lower, ed.lam, eps)
        assert report.steps_sufficient == steps_to_epsilon(upper, ed.lam, eps)
        if isinstance(spec, MoranGeneral):
            assert report.crude_coeff is None and report.steps_crude is None
            with pytest.raises(UnknownStationaryError):
                crude_bound(spec, x)
        else:
            crude = crude_bound(spec, x)
            assert report.crude_coeff == crude
            assert report.steps_crude == steps_to_epsilon(crude, ed.lam, eps)


def test_bound_report_epsilon_above_coefficients():
    spec = Ehrenfest(6, 1, (0.3, 0.3, 0.4))
    report = bound_report(spec, (2, 2, 2), 1e6)
    assert report.steps_necessary == 0 and report.steps_sufficient == 0


def test_general_moran_bounds_at_large_n():
    # At N >= 1e7 the rounded 1 - lam, times f ~ N, once pushed the eigen
    # check's residual past its tolerance on 7 of these 9 chains.
    rng = np.random.default_rng(2014)
    eps = 0.25
    for d in (3, 4, 5):
        M = random_dominated_matrix(rng, d)
        for n in (10**7, 10**8, 5 * 10**8):
            report = bound_report(MoranGeneral(n, M), (n,) + (0,) * (d - 1), eps)
            for coeff, steps in ((report.lower_coeff, report.steps_necessary),
                                 (report.upper_coeff, report.steps_sufficient)):
                assert coeff * report.lam**steps <= eps
                if steps > 0:
                    assert coeff * report.lam ** (steps - 1) > eps


def test_report_json_shape():
    report = bound_report(PolyaDownUp(100, 1, (180.0,) * 5), (0, 10, 0, 10, 80), 0.01)
    doc = report.to_json_dict()
    assert set(doc) == {
        "lambda", "lower_coeff", "upper_coeff", "crude_coeff", "epsilon",
        "steps_necessary", "steps_sufficient", "steps_crude",
    }
    assert isinstance(doc["steps_necessary"], int)


@pytest.mark.parametrize("n,alpha", [
    (13, (2.973171594528768, 0.6240160095938077)),
    (14, (1.4155485830426733, 1.6804100319883228)),
    (15, (4.777086633466709, 1.1487182572383519)),
    (16, (4.768922512117597, 1.9032415340471847)),
    (29, (3.084, 1.273)),
])
def test_full_swap_downup_eigenvalue_is_exactly_zero(n, alpha, tmp_path, capsys):
    # Down-up with s = N replaces every ball: the chain is stationary after one
    # step, so lambda is exactly 0 and one step suffices from any start.
    spec = PolyaDownUp(n, n, alpha)
    assert model_eigendata(spec).lam == 0.0
    for x in [(n, 0), (0, n), (n // 2, n - n // 2)]:
        report = bound_report(spec, x, 0.01)
        lower, upper = tv_bound_coefficients(model_eigendata(spec), x)
        assert report.steps_necessary == (0 if lower <= 0.01 else 1)
        assert report.steps_sufficient == (0 if upper <= 0.01 else 1)

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": spec_to_json(spec), "start": [n, 0]}))
    assert main(["bounds", "--config", str(config)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == 0.0 and doc["steps_sufficient"] == 1


@pytest.mark.parametrize("spec", [
    MoranStandard(9, 0.4, (0.3, 0.2, 0.5)),
    MoranStandard(9, 1.0, (0.3, 0.2, 0.5)),
    PolyaLevel(9, 2, (1.0, 2.0, 1.5)),
    PolyaDownUp(9, 9, (0.5, 2.0, 1.5)),
    Ehrenfest(9, 1, (0.25, 0.35, 0.4)),
], ids=["moran_standard", "moran_standard_m1", "polya_level", "polya_downup", "ehrenfest"])
def test_vectorised_log_pmf_matches_scalar(spec):
    states = enumerate_states(9, 3)
    got = stationary_log_pmfs(spec, np.array(states))
    want = [_stationary_log_pmf(spec, x) for x in states]
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
    assert math.fsum(np.exp(got)) == pytest.approx(1.0, abs=1e-13)


def test_vectorised_log_pmf_unknown_for_general_moran():
    spec = MoranGeneral(4, delta_construction_matrix(0.05))
    with pytest.raises(UnknownStationaryError):
        stationary_log_pmfs(spec, np.array(enumerate_states(4, 3)))


def test_bound_report_checks_replace_and_equality():
    spec, x = PolyaDownUp(100, 1, (180.0,) * 5), (0, 10, 0, 10, 80)
    report = bound_report(spec, x, 0.01)
    with pytest.raises(ValidationError, match="lower coefficient"):
        dataclasses.replace(report, lower_coeff=report.upper_coeff * 2)
    with pytest.raises(ValidationError, match="necessary steps"):
        dataclasses.replace(report, steps_necessary=report.steps_sufficient + 1)
    again = bound_report(spec, x, 0.01)
    assert again == report and again is not report
    looser = dataclasses.replace(report, epsilon=0.1)
    assert looser != report and looser.to_json_dict()["epsilon"] == 0.1
    # Slotted: no per-instance dict.
    assert not hasattr(report, "__dict__")
