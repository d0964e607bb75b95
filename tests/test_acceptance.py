"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 1-4 reproduce the flagship worked-example numbers
analytically; 5-10 are property gates at reduced population sizes.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import monochain as mc
from monochain import exact
from monochain.coupling import CoupledPair, coupled_step
from helpers import (
    delta_construction_matrix,
    random_dominated_matrix,
    random_model,
    random_ordered_pair,
    random_positive_matrix,
)
from oracles import ehrenfest_row_oracle, polya_row_oracle


def _finish(num: int, label: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num}] {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_hubbell_downup_golden():
    t0 = time.perf_counter()
    spec = mc.PolyaDownUp(100, 1, (180.0,) * 5)
    report = mc.bound_report(spec, (0, 10, 0, 10, 80), 0.01)
    assert report.lower_coeff == 0.375
    assert report.upper_coeff == 100.0
    assert report.lam == 1 - 1 / 111
    assert report.steps_necessary == 401
    assert report.steps_sufficient == 1018
    assert report.crude_coeff == pytest.approx(2.2186e19, rel=1e-3)
    assert report.steps_crude == 5432
    _finish(1, "Hubbell down-up golden numbers", t0, 1.0)


def test_criterion_2_standard_moran_golden():
    t0 = time.perf_counter()
    spec = mc.MoranStandard(100, 0.7, (0.2,) * 5)
    report = mc.bound_report(spec, (0, 10, 0, 10, 80), 0.01)
    assert report.lower_coeff == 0.375
    assert report.upper_coeff == 100.0
    assert report.lam == 0.993
    assert report.steps_necessary == 516
    assert report.steps_sufficient == 1312
    assert report.crude_coeff == pytest.approx(2.1665e15, rel=1e-3)
    assert report.steps_crude == 5683
    _finish(2, "standard Moran golden numbers", t0, 1.0)


def test_criterion_3_polya_level_golden():
    t0 = time.perf_counter()
    spec = mc.PolyaLevel(100, 2, (180.0,) * 5)
    report = mc.bound_report(spec, (0, 20, 0, 20, 60), 0.01)
    assert report.lower_coeff == 0.25
    assert report.upper_coeff == 120.0
    assert report.lam == 1 - 9 / 500
    assert report.steps_necessary == 178
    assert report.steps_sufficient == 518
    assert report.crude_coeff == pytest.approx(6.1094e13, rel=1e-3)
    assert report.steps_crude == 2002
    _finish(3, "Polya level golden numbers", t0, 1.0)


def test_criterion_4_ehrenfest_golden():
    t0 = time.perf_counter()
    spec = mc.Ehrenfest(100, 1, (0.2,) * 5)
    report = mc.bound_report(spec, (0, 20, 0, 20, 60), 0.01)
    assert report.lower_coeff == 0.25
    assert report.upper_coeff == 120.0
    assert report.lam == 0.99
    assert report.steps_necessary == 321
    assert report.steps_sufficient == 935
    assert report.crude_coeff == pytest.approx(1.02e15, rel=1e-2)
    assert report.steps_crude == 3897
    _finish(4, "Ehrenfest golden numbers", t0, 1.0)


def test_criterion_5_eigen_identity_random_models():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        spec = random_model(rng, n_max=6, d_max=4)
        ed = mc.model_eigendata(spec)
        states = mc.enumerate_states(spec.N, spec.d)
        worst = max(worst, mc.eigen_residual(spec, ed, states))
    assert worst <= 1e-10, f"worst eigen residual {worst:.3e}"
    _finish(5, f"eigen identity on 50 random models (worst residual {worst:.2e})", t0, 30.0)


def test_criterion_6_sandwich_property():
    t0 = time.perf_counter()
    instances = [
        mc.MoranStandard(8, 0.6, (0.3, 0.2, 0.5)),
        mc.MoranGeneral(8, delta_construction_matrix(0.05)),
        mc.PolyaLevel(8, 2, (1.5, 2.0, 1.0)),
        mc.PolyaUpDown(8, 2, (1.5, 2.0, 1.0)),
        mc.PolyaDownUp(8, 2, (1.5, 2.0, 1.0)),
        mc.Ehrenfest(8, 1, (0.25, 0.25, 0.5)),
    ]
    x0 = (4, 3, 1)
    slack = 1e-11  # double-precision floor of the exact TV recursion
    for spec in instances:
        tm = mc.build_matrix(spec)
        ed = mc.model_eigendata(spec)
        lower, upper = mc.tv_bound_coefficients(ed, x0)
        curve = mc.tv_curve(tm, x0, 500)
        decay = 1.0
        for n, tv in enumerate(curve):
            assert lower * decay - slack <= tv <= upper * decay + slack, (
                f"{type(spec).__name__}: TV({n})={tv:.3e} outside "
                f"[{lower * decay:.3e}, {upper * decay:.3e}]"
            )
            decay *= ed.lam
    _finish(6, "TV curves inside the bound envelope for all six instances", t0, 60.0)


def test_criterion_7_stationary_laws():
    t0 = time.perf_counter()
    cases = [
        (
            mc.MoranStandard(8, 0.5, (0.3, 0.2, 0.5)),
            lambda x: mc.dm_log_pmf(x, 8, tuple(8 * 0.5 * p / 0.5 for p in (0.3, 0.2, 0.5))),
        ),
        (
            mc.PolyaLevel(8, 2, (1.0, 2.0, 1.5)),
            lambda x: mc.dm_log_pmf(x, 8, (1.0, 2.0, 1.5)),
        ),
        (
            mc.Ehrenfest(8, 2, (0.25, 0.35, 0.4)),
            lambda x: mc.multinomial_log_pmf(x, 8, (0.25, 0.35, 0.4)),
        ),
    ]
    for spec, log_pmf in cases:
        tm = mc.build_matrix(spec)
        pi = mc.stationary(tm)
        err = max(abs(p - math.exp(log_pmf(x))) for p, x in zip(pi, tm.states))
        assert err <= 1e-10, f"{type(spec).__name__}: stationary error {err:.3e}"
    _finish(7, "exact stationary laws match closed forms to 1e-10", t0, 30.0)


def test_criterion_8_coupling_soundness():
    t0 = time.perf_counter()
    families = {
        "moran": mc.MoranGeneral(8, delta_construction_matrix(0.05)),
        "polya_level": mc.PolyaLevel(8, 2, (1.5, 2.0, 1.0)),
        "polya_updown": mc.PolyaUpDown(8, 2, (1.5, 2.0, 1.0)),
        "polya_downup": mc.PolyaDownUp(8, 2, (1.5, 2.0, 1.0)),
        "ehrenfest": mc.Ehrenfest(8, 2, (0.3, 0.3, 0.4)),
    }
    x0, y0 = (0, 2, 6), (3, 3, 2)
    for name, spec in families.items():
        # Order audit: one million coupled steps; any violation raises.
        rng = np.random.default_rng(77)
        steps = 0
        while steps < 1_000_000:
            x, y = random_ordered_pair(rng, 8, 3)
            pair = CoupledPair(x, y)
            for _ in range(500):
                pair = coupled_step(spec, pair, rng)
                steps += 1
        assert steps >= 1_000_000

        # Marginal faithfulness and one-step contraction from a fixed pair.
        rng = np.random.default_rng(78)
        ed = mc.model_eigendata(spec)
        n_samples = 100_000
        counts_x: dict = {}
        counts_y: dict = {}
        gaps = np.empty(n_samples)
        start = CoupledPair(x0, y0)
        for i in range(n_samples):
            out = coupled_step(spec, start, rng)
            counts_x[out.x] = counts_x.get(out.x, 0) + 1
            counts_y[out.y] = counts_y.get(out.y, 0) + 1
            gaps[i] = ed.value(out.y) - ed.value(out.x)
        row_x = mc.transition_row(spec, x0)
        row_y = mc.transition_row(spec, y0)
        for counts, row in ((counts_x, row_x), (counts_y, row_y)):
            support = set(counts) | set(row)
            tv = 0.5 * sum(
                abs(counts.get(z, 0) / n_samples - row.get(z, 0.0)) for z in support
            )
            assert tv <= 0.02, f"{name}: marginal TV {tv:.4f} above the hard gate"
            assert tv <= 0.01, f"{name}: marginal TV {tv:.4f} above the 0.01 gate"
        expected = ed.lam * (ed.value(y0) - ed.value(x0))
        se = gaps.std(ddof=1) / math.sqrt(n_samples)
        assert abs(gaps.mean() - expected) <= 3 * se, (
            f"{name}: contraction gap {gaps.mean():.5f} vs {expected:.5f} (se {se:.5f})"
        )
    _finish(8, "5M order-audited steps, marginals, and contraction", t0, 120.0)


def test_criterion_9_irreducible_aperiodic_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            m = random_positive_matrix(rng, d)
        else:
            m = random_dominated_matrix(rng, d)
        tm = mc.build_matrix(mc.MoranGeneral(n, m))
        assert exact._ergodicity_problem(tm.csr) is None
        checked += 1
    _finish(9, "chain irreducible and aperiodic for 100 random mutation matrices", t0, 10.0)


def test_criterion_10_urn_rows_match_ordered_draw_oracle():
    t0 = time.perf_counter()
    alpha = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    p = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    worst = 0.0
    for n in (1, 2, 3, 4):
        for d in (2, 3):
            a_d = alpha[:d] if d == 3 else (Fraction(2, 3), Fraction(4, 3))
            p_d = p[:d] if d == 3 else (Fraction(1, 4), Fraction(3, 4))
            alpha_f = tuple(float(v) for v in a_d)
            p_f = tuple(float(v) for v in p_d)
            for s in (1, 2):
                if s > n:
                    continue
                specs = {
                    "level": mc.PolyaLevel(n, s, alpha_f),
                    "updown": mc.PolyaUpDown(n, s, alpha_f),
                    "downup": mc.PolyaDownUp(n, s, alpha_f),
                }
                for x in mc.enumerate_states(n, d):
                    for kind, spec in specs.items():
                        closed = mc.transition_row(spec, x)
                        oracle = polya_row_oracle(kind, x, s, a_d)
                        for succ in set(closed) | set(oracle):
                            err = abs(
                                closed.get(succ, 0.0) - float(oracle.get(succ, Fraction(0)))
                            )
                            worst = max(worst, err)
                    closed = mc.transition_row(mc.Ehrenfest(n, s, p_f), x)
                    oracle = ehrenfest_row_oracle(x, s, p_d)
                    for succ in set(closed) | set(oracle):
                        err = abs(closed.get(succ, 0.0) - float(oracle.get(succ, Fraction(0))))
                        worst = max(worst, err)
    assert worst <= 1e-12, f"worst row discrepancy {worst:.3e}"
    _finish(10, f"closed-form urn rows match the oracle (worst {worst:.2e})", t0, 30.0)
