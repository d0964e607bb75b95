import dataclasses
import math
import traceback

import numpy as np
import pytest

from monochain import (
    Ehrenfest,
    EigenConsistencyError,
    EigenData,
    MoranGeneral,
    MoranStandard,
    MutationMatrix,
    NoMonotoneConditionError,
    PerronConvergenceError,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
    ValidationError,
    bound_report,
    build_eigenfunction,
    build_matrix,
    classify_conditions,
    eigen_residual,
    enumerate_states,
    kernels,
    model_eigendata,
    partial_leq,
    perron,
    spectral,
    stationary,
    tv_bound_coefficients,
)
from helpers import delta_construction_matrix, random_dominated_matrix
from oracles import moran_row_scalar, perron_oracle


def test_standard_choice_satisfies_positive_eigenvector_condition():
    spec = MoranStandard(10, 0.4, (0.2, 0.3, 0.5))
    report = classify_conditions(spec.M)
    assert report.c3_holds
    assert not report.c1_holds  # diagonal of the reduced matrix breaks strictness
    # Reduced matrix is (1 - m) I.
    assert report.reduced == pytest.approx(0.6 * np.eye(2), abs=1e-15)


def test_delta_construction_satisfies_strict_and_weak():
    report = classify_conditions(delta_construction_matrix(0.05))
    assert report.c1_holds and report.c2_holds


def test_violating_matrix_fails_all_conditions():
    # Last row exceeds the first row in column 1.
    m = MutationMatrix([
        [0.2, 0.4, 0.4],
        [0.3, 0.4, 0.3],
        [0.5, 0.1, 0.4],
    ])
    report = classify_conditions(m)
    assert not (report.c1_holds or report.c2_holds or report.c3_holds)
    with pytest.raises(NoMonotoneConditionError):
        build_eigenfunction(m, 5)


def test_report_keeps_a_read_only_eigenpair():
    report = classify_conditions(delta_construction_matrix(0.05))
    assert report.perron_error is None and 0.0 < report.lam_star < 1.0
    for arr in (report.reduced, report.a_star):
        with pytest.raises(ValueError):
            arr[0] = 2.0
    # Without weak domination no Perron run is made.
    m = MutationMatrix([[0.2, 0.4, 0.4], [0.3, 0.4, 0.3], [0.5, 0.1, 0.4]])
    report = classify_conditions(m)
    assert report.lam_star is None and report.a_star is None and report.perron_error is None


def test_perron_failure_under_weak_irreducible_condition():
    """C2 holds but the Perron run oscillates: the error of that one run is raised.

    The reduced matrix [[0, 0.5], [0.7, 0]] is irreducible with the tied
    dominant pair +-sqrt(0.35), so power iteration never settles.
    """
    m = MutationMatrix([[0.1, 0.6, 0.3], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    report = classify_conditions(m)
    assert report.c2_holds and not (report.c1_holds or report.c3_holds)
    assert isinstance(report.perron_error, PerronConvergenceError)
    assert report.lam_star is None and report.a_star is None
    with pytest.raises(PerronConvergenceError) as info:
        build_eigenfunction(m, 10)
    assert str(info.value) == "Perron iteration failed: iterates cycle with period 2"


def test_general_moran_eigendata_makes_one_perron_run(perron_runs):
    # The conditions of a matrix are classified once; a repeated report reads them.
    spec = MoranGeneral(100, delta_construction_matrix(0.05))
    model_eigendata(spec)
    assert len(perron_runs) == 1
    bound_report(spec, (30, 30, 40), 0.01)
    assert len(perron_runs) == 1


def test_a_kept_perron_failure_is_raised_fresh_each_time(perron_runs):
    # The failing run is made once and kept; each call raises a new exception,
    # so the kept one's traceback does not grow call by call.
    m = MutationMatrix([[0.1, 0.6, 0.3], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    raised = []
    for _ in range(2):
        with pytest.raises(PerronConvergenceError) as info:
            build_eigenfunction(m, 10)
        raised.append(info.value)
    first, second = raised
    assert first is not second and str(first) == str(second)
    assert len(traceback.extract_tb(second.__traceback__)) <= len(
        traceback.extract_tb(first.__traceback__))
    assert len(perron_runs) == 1


@pytest.mark.parametrize("n", [10**6, 10**8, 10**9])
def test_general_moran_residual_holds_at_large_n(n):
    # The check reads the eigendata's gap, not the rounded 1 - lam, which has
    # lost the gap's low bits that f ~ N multiplies.
    spec = MoranGeneral(n, random_dominated_matrix(np.random.default_rng(2014), 3))
    ed = model_eigendata(spec)
    assert eigen_residual(spec, ed, [(n, 0, 0), (0, 0, n)]) <= 1e-12


def test_perron_scaled_identity():
    lam, vec = perron(0.3 * np.eye(3))
    assert lam == pytest.approx(0.3, abs=1e-14)
    assert vec == pytest.approx(np.ones(3), abs=1e-14)


def test_perron_zero_matrix_is_degenerate_limit():
    lam, vec = perron(np.zeros((2, 2)))
    assert lam == 0.0
    assert vec == pytest.approx(np.ones(2))


def test_perron_nilpotent_fails():
    with pytest.raises(PerronConvergenceError):
        perron(np.array([[0.0, 0.5], [0.0, 0.0]]))


def test_perron_residual_on_random_dominated_matrices():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = random_dominated_matrix(rng, 4)
        report = classify_conditions(m)
        assert report.c1_holds
        lam, vec = perron(report.reduced)
        # The report keeps the pair of its own Perron run, bit for bit.
        assert report.lam_star == lam and np.array_equal(report.a_star, vec)
        assert np.max(np.abs(report.reduced @ vec - lam * vec)) <= 1e-12
        assert np.all(vec > 0) and np.max(vec) == pytest.approx(1.0)
        # The dominant reduced eigenvalue is capped by the last diagonal entry.
        assert lam <= m.matrix[-1, -1] + 1e-12


def test_perron_agrees_with_dense_eigensolver():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = random_dominated_matrix(rng, 4)
        reduced = classify_conditions(m).reduced
        lam, _ = perron(reduced)
        eigs = np.linalg.eigvals(reduced)
        assert lam == pytest.approx(float(np.max(eigs.real)), abs=1e-10)


def _random_reduced(rng, k: int) -> np.ndarray:
    """Nonnegative k x k matrix: dense, sparse, with a zero row, or rounded to ties."""
    kind = rng.integers(0, 4)
    a = rng.random((k, k))
    if kind >= 1:
        a *= rng.random((k, k)) < rng.uniform(0.2, 0.9)
    if kind == 2:
        a[rng.integers(0, k)] = 0.0
    if kind == 3:
        a = np.round(a, 1)
    # Mostly below spectral radius 1, some above, so every exit is reached.
    return a * rng.uniform(0.3, 1.2) / max(1.0, a.sum(axis=1).max())


def _outcome(fn, a):
    try:
        return fn(a, max_iter=2000)
    except (PerronConvergenceError, ValidationError) as exc:
        return type(exc)


def test_perron_matches_the_array_loop_bit_for_bit():
    # max_iter is cut to 2,000 so that the iterations that never settle
    # (periodic or reducible matrices) fail quickly in both.
    rng = np.random.default_rng(12)
    converged = 0
    for _ in range(2000):
        a = _random_reduced(rng, int(rng.integers(1, 9)))
        got, want = _outcome(perron, a), _outcome(perron_oracle, a)
        if isinstance(want, tuple):
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
            converged += 1
        else:
            assert got is want
    assert converged > 1500


def test_perron_stops_at_once_on_a_two_cycle():
    # The tied pair +-sqrt(0.35) sends (1, 1) back to itself in two steps.
    with pytest.raises(PerronConvergenceError, match="cycle with period 2"):
        perron(np.array([[0.0, 0.5], [0.7, 0.0]]), max_iter=2)


def test_perron_stops_early_on_a_three_cycle():
    # The reduced matrix of MutationMatrix([[.1, .5, .1, .3], [.1, .1, .6, .2],
    # [.4, .1, .1, .4], [.1, .1, .1, .7]]) is a weighted 3-cycle: its iterates
    # repeat with period 3, found well within 20 iterations.
    reduced = np.array([[0.0, 0.4, 0.0], [0.0, 0.0, 0.5], [0.3, 0.0, 0.0]])
    with pytest.raises(PerronConvergenceError, match="cycle with period 3$"):
        perron(reduced, max_iter=20)


def _random_periodic(rng, p: int) -> np.ndarray:
    """Irreducible nonnegative matrix of period p: every edge goes from class c to c + 1."""
    cls = np.repeat(np.arange(p), rng.integers(1, 4, size=p))
    rng.shuffle(cls)
    step = cls[None, :] == (cls[:, None] + 1) % p
    a = rng.uniform(0.01, 1.0, step.shape) * step
    return a * rng.uniform(0.3, 1.2) / a.sum(axis=1).max()


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_perron_reports_the_cycle_of_a_periodic_matrix(p):
    # Exact iterates of a period-p matrix approach a cycle of period p; the
    # float iterates can settle on a multiple of it.
    rng = np.random.default_rng(100 + p)
    for _ in range(50):
        a = _random_periodic(rng, p)
        with pytest.raises(PerronConvergenceError, match="cycle with period") as info:
            perron(a, max_iter=2000)
        assert int(str(info.value).rsplit(" ", 1)[1]) % p == 0
        assert _outcome(perron_oracle, a) is PerronConvergenceError


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_perron_refuses_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="finite"):
        perron(np.array([[0.5, bad], [0.1, 0.2]]))


def test_moran_increment_residual_matches_the_row_form():
    rng = np.random.default_rng(13)
    for d, n in ((2, 8), (3, 8), (4, 6), (5, 5)):
        for spec in (MoranGeneral(n, random_dominated_matrix(rng, d)),
                     MoranStandard(n, 0.6, tuple(np.full(d, 1.0 / d)))):
            ed = model_eigendata(spec)
            for x in enumerate_states(n, d):
                row = moran_row_scalar(spec, x)
                by_row = math.fsum(p * ed.value(y) for y, p in row.items()) - ed.lam * ed.value(x)
                assert spectral._moran_residual(spec.M, ed, [x]) == pytest.approx(
                    abs(by_row), abs=1e-12)


# Strictly dominated, with enough mass in the last row that each mutation
# below moves the residual past the 1e-10 tolerance at N = 50.
_HEAVY_LAST_ROW = [[0.6, 0.3, 0.1], [0.35, 0.5, 0.15], [0.3, 0.25, 0.45]]


@pytest.mark.parametrize("spec", [
    MoranGeneral(10, MutationMatrix(_HEAVY_LAST_ROW)),
    MoranStandard(10, 0.6, (0.2, 0.3, 0.5)),
], ids=["general", "standard"])
def test_eigen_residual_reads_the_kernel_rows(monkeypatch, spec):
    # A kernel that has lost 1e-3 of mass from the first path of every row
    # to its second no longer has f as an eigenfunction, and the residual,
    # formed from the rows themselves, says so.
    ed, states = model_eigendata(spec), enumerate_states(10, 3)
    assert eigen_residual(spec, ed, states) <= 1e-12
    real = kernels._moran_paths

    def moved(spec, x):
        row, path, prob = real(spec, x)
        first = np.flatnonzero(np.diff(row, prepend=-1))
        prob = prob.copy()
        prob[first] -= 1e-3
        prob[first + 1] += 1e-3
        return row, path, prob

    monkeypatch.setattr(kernels, "_moran_paths", moved)
    assert eigen_residual(spec, ed, states) > 1e-4


@pytest.mark.parametrize("mutate", [
    lambda kw: dict(kw, lam=kw["lam"] + 1e-9),
    lambda kw: dict(kw, lam=kw["lam"] - 1e-9),
    lambda kw: dict(kw, a_d=kw["a_d"] * (1 + 1e-9), f0=kw["f0"] * (1 + 1e-9)),
    lambda kw: dict(kw, a_star=(kw["a_star"][0] * (1 + 1e-9),) + kw["a_star"][1:]),
], ids=["lam_up", "lam_down", "a_d", "a_star_0"])
def test_eigen_check_rejects_perturbed_eigendata(monkeypatch, mutate):
    M = MutationMatrix(_HEAVY_LAST_ROW)
    build_eigenfunction(M, 50)
    real = spectral.EigenData
    monkeypatch.setattr(spectral, "EigenData", lambda **kw: real(**mutate(kw)))
    with pytest.raises(EigenConsistencyError):
        build_eigenfunction(M, 50)


def test_general_moran_eigendata_builds_no_kernel_row(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel row built")

    monkeypatch.setattr(kernels, "transition_row", refuse)
    monkeypatch.setattr(kernels, "kernel_rows", refuse)
    build_eigenfunction(delta_construction_matrix(0.05), 10**5)
    model_eigendata(MoranGeneral(100, MutationMatrix(_HEAVY_LAST_ROW)))


def test_build_eigenfunction_standard_closed_forms():
    n, m, p = 10, 0.4, (0.2, 0.3, 0.5)
    ed = build_eigenfunction(MoranStandard(n, m, p).M, n)
    assert ed.lam == pytest.approx(1 - m / n, abs=1e-15)
    assert ed.a_star == pytest.approx((1.0, 1.0), abs=1e-14)
    assert ed.a_d == pytest.approx(-(1 - p[-1]), abs=1e-14)
    assert ed.c1 == pytest.approx(1.0, abs=1e-14)
    assert ed.c2 == pytest.approx(max(n * p[-1], n * (1 - p[-1])), abs=1e-12)


def test_model_eigendata_standard_is_exact():
    ed = model_eigendata(MoranStandard(100, 0.7, (0.2,) * 5))
    assert ed.lam == 0.993
    assert ed.c1 == 1.0
    assert ed.c2 == 80.0
    assert ed.value((0, 10, 0, 10, 80)) == -60.0


def test_model_eigendata_urn_eigenvalues():
    assert model_eigendata(PolyaDownUp(100, 1, (180.0,) * 5)).lam == 1 - 1 / 111
    assert model_eigendata(PolyaLevel(100, 2, (180.0,) * 5)).lam == 1 - 9 / 500
    assert model_eigendata(Ehrenfest(100, 1, (0.2,) * 5)).lam == 0.99
    # Full redistribution mixes in one step.
    assert model_eigendata(Ehrenfest(6, 6, (0.25,) * 4)).lam == 0.0


def test_eigen_identity_on_full_lattice():
    rng = np.random.default_rng(10)
    m = random_dominated_matrix(rng, 3)
    spec = MoranGeneral(4, m)
    states = enumerate_states(4, 3)
    assert eigen_residual(spec, model_eigendata(spec), states) <= 1e-10


def test_claimed_eigenvalue_is_in_spectrum():
    cases = [
        MoranStandard(5, 0.6, (0.3, 0.2, 0.5)),
        PolyaLevel(5, 2, (1.5, 2.0, 1.0)),
        PolyaUpDown(5, 2, (1.5, 2.0, 1.0)),
        PolyaDownUp(5, 2, (1.5, 2.0, 1.0)),
        Ehrenfest(5, 2, (0.3, 0.3, 0.4)),
    ]
    for spec in cases:
        ed = model_eigendata(spec)
        eigs = np.linalg.eigvals(build_matrix(spec).csr.toarray())
        assert np.min(np.abs(eigs - ed.lam)) <= 1e-8


def test_eigenfunction_strictly_monotone():
    rng = np.random.default_rng(11)
    specs = [
        MoranGeneral(5, random_dominated_matrix(rng, 3)),
        PolyaUpDown(5, 2, (1.5, 2.0, 1.0)),
    ]
    for spec in specs:
        ed = model_eigendata(spec)
        states = enumerate_states(5, 3)
        for x in states:
            for y in states:
                if x != y and partial_leq(x, y):
                    assert ed.value(y) - ed.value(x) >= ed.c1 - 1e-12


def test_sup_norm_equals_c2_for_urn_family():
    spec = PolyaLevel(7, 1, (2.0, 1.0, 3.0))
    ed = model_eigendata(spec)
    sup = max(abs(ed.value(x)) for x in enumerate_states(7, 3))
    assert sup == ed.c2


def test_stationary_mean_of_eigenfunction_vanishes():
    cases = [
        MoranStandard(6, 0.5, (0.3, 0.2, 0.5)),
        PolyaLevel(6, 2, (1.0, 2.0, 1.5)),
        Ehrenfest(6, 2, (0.25, 0.35, 0.4)),
    ]
    for spec in cases:
        tm = build_matrix(spec)
        pi = stationary(tm)
        ed = model_eigendata(spec)
        mean = math.fsum(p * ed.value(x) for p, x in zip(pi, tm.states))
        assert abs(mean) <= 1e-10


def test_bounds_invariant_under_eigenfunction_rescaling():
    ed = model_eigendata(PolyaLevel(8, 2, (1.0, 2.0, 1.5)))
    t = 3.7
    scaled = EigenData(
        lam=ed.lam,
        gap=ed.gap,
        a_star=tuple(t * a for a in ed.a_star),
        a_d=t * ed.a_d,
        c1=t * ed.c1,
        c2=t * ed.c2,
        f0=t * ed.f0,
        N=ed.N,
    )
    x = (1, 3, 4)
    assert tv_bound_coefficients(scaled, x) == pytest.approx(tv_bound_coefficients(ed, x), rel=1e-12)


def test_eigendata_checks_replace_and_equality():
    ed = model_eigendata(PolyaLevel(8, 2, (1.0, 2.0, 1.5)))
    for bad in ({"lam": 1.0}, {"lam": -1e-12}, {"lam": math.nan},
                {"a_star": (1.0, 0.0)}, {"a_star": (-1.0, 1.0)},
                {"c1": 0.0}, {"c2": -1.0}):
        with pytest.raises(ValidationError):
            dataclasses.replace(ed, **bad)
    again = model_eigendata(PolyaLevel(8, 2, (1.0, 2.0, 1.5)))
    assert again == ed and again is not ed
    moved = dataclasses.replace(ed, lam=0.5)
    assert moved.lam == 0.5 and moved != ed and moved.a_star == ed.a_star
    assert moved.to_json_dict() == {**ed.to_json_dict(), "lambda": 0.5}
    # Slotted: no per-instance dict.
    assert not hasattr(ed, "__dict__")


def test_condition_reports_stay_frozen():
    # classify_conditions hands its kept report to every caller.
    M = MutationMatrix(_HEAVY_LAST_ROW)
    report = classify_conditions(M)
    assert classify_conditions(M) is report
    for name in ("c1_holds", "lam_star", "a_star"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, None)
