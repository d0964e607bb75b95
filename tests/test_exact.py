import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import monochain
from monochain import (
    CapacityError,
    Ehrenfest,
    MoranGeneral,
    MoranStandard,
    MutationMatrix,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
    StationaryConvergenceError,
    ValidationError,
    build_matrix,
    crude_bound,
    model_eigendata,
    stationary,
    tv_bound_coefficients,
    transition_row,
    tv_curve,
)
from monochain import exact, kernels
from monochain.exact import TransitionMatrix
from helpers import delta_construction_matrix, random_positive_matrix, random_prob_vector
from oracles import dm_pmf, monotonicity_audit, moran_row_scalar, multinomial_pmf, stationary_lu


def test_build_matrix_shape_and_rows():
    tm = build_matrix(Ehrenfest(8, 1, (1 / 3, 1 / 3, 1 / 3)))
    assert tm.dim == 45  # C(10, 8)
    sums = np.asarray(tm.csr.sum(axis=1)).ravel()
    assert sums == pytest.approx(np.ones(45), abs=1e-12)


def _all_families(n: int, d: int, s: int, rng) -> list:
    alpha = tuple(rng.uniform(0.5, 3.0, d))
    return [
        MoranGeneral(n, random_positive_matrix(rng, d)),
        MoranStandard(n, 0.4, random_prob_vector(rng, d)),
        PolyaLevel(n, s, alpha),
        PolyaUpDown(n, s, alpha),
        PolyaDownUp(n, s, alpha),
        Ehrenfest(n, s, random_prob_vector(rng, d)),
    ]


def _csr_row(tm, i: int) -> list:
    lo, hi = tm.csr.indptr[i], tm.csr.indptr[i + 1]
    return [(tm.states[j], p) for j, p in zip(tm.csr.indices[lo:hi], tm.csr.data[lo:hi])]


@pytest.mark.parametrize("budget", [None, 40], ids=["one_block", "blocks_of_states"])
@pytest.mark.parametrize("n,d", [(5, 2), (4, 3), (3, 4)])
def test_batched_rows_equal_single_rows(n, d, budget, monkeypatch):
    # Every CSR row, entries and column order, equals the row of one state,
    # and every Moran row, entries, bits and order, the scalar row builder's.
    # A small path budget splits the build into blocks of a few states.
    if budget is not None:
        monkeypatch.setattr(kernels, "_PATH_BUDGET", budget)
    rng = np.random.default_rng([n, d])
    for s in sorted({1, 2, n}):
        for spec in _all_families(n, d, s, rng):
            tm = build_matrix(spec)
            for i, x in enumerate(tm.states):
                assert _csr_row(tm, i) == list(transition_row(spec, x).items())
                if isinstance(spec, (MoranGeneral, MoranStandard)):
                    scalar = moran_row_scalar(spec, x)
                    assert _csr_row(tm, i) == list(scalar.items())


@pytest.mark.parametrize("ctor,weights", [
    (PolyaLevel, (1.5, 0.5)), (PolyaUpDown, (1.5, 0.5)),
    (PolyaDownUp, (1.5, 0.5)), (Ehrenfest, (0.3, 0.7)),
], ids=["polya_level", "polya_updown", "polya_downup", "ehrenfest"])
def test_batched_rows_beyond_exact_float_binomials(ctor, weights):
    # comb(60, 30) > 2**53, so a float numerator or denominator would round
    # (by a few 1e-16 relative).  transition_prob sums the same paths, with
    # the same arithmetic and in the same order, from exact integers, so
    # every entry is equal, not just close.
    spec = ctor(60, 30, weights)
    assert math.comb(60, 30) > 2**53
    tm = build_matrix(spec)
    for i, x in enumerate(tm.states):
        for z, p in _csr_row(tm, i):
            assert p == kernels.transition_prob(spec, x, z)


def _corrupt_first_row(change):
    """Wrap kernels._urn_paths so that ``change`` edits the path probabilities of state 0."""
    paths = kernels._urn_paths

    def corrupted(spec, x, comps):
        row, path, prob = paths(spec, x, comps)
        prob = prob.copy()
        prob[row == 0] = change(prob[row == 0])
        return row, path, prob

    return corrupted


def _flip_first(p):
    # Entry 0 turns negative; entry 1, of another successor, takes its mass
    # twice over, so the row still sums to 1.
    return np.concatenate([[-p[0], p[1] + 2.0 * p[0]], p[2:]])


@pytest.mark.parametrize("change,message", [(_flip_first, "must be > 0"),
                                            (lambda p: 2.0 * p, "sums to")],
                         ids=["entry_not_positive", "row_sum_off"])
def test_corrupted_path_probability_is_refused(change, message, monkeypatch):
    spec = PolyaLevel(4, 1, (1.0, 2.0, 1.5))
    monkeypatch.setattr(kernels, "_urn_paths", _corrupt_first_row(change))
    with pytest.raises(ValidationError, match=message):
        build_matrix(spec)
    with pytest.raises(ValidationError, match=message):
        transition_row(spec, (4, 0, 0))


def test_large_s_build_in_bounded_memory():
    # Down-up at N = 44, s = 22, d = 3: 1,035 states with up to 276 x 276
    # paths each.  Held at once they take about 1.5 GB; built a block of
    # states at a time they fit the child's 1 GB address space.
    resource = pytest.importorskip("resource")
    cap = 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    code = ("import monochain as mc; "
            "tm = mc.build_matrix(mc.PolyaDownUp(44, 22, (1.0, 2.0, 1.5))); "
            "print(tm.dim, tm.csr.nnz)")
    src = str(Path(monochain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, preexec_fn=limit_memory, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1035", "728157"]


def test_standard_and_general_matrices_coincide():
    std = MoranStandard(5, 0.6, (0.3, 0.2, 0.5))
    tm1 = build_matrix(std)
    tm2 = build_matrix(MoranGeneral(std.N, std.M))
    assert (tm1.csr != tm2.csr).nnz == 0


def _stationary_error(spec, pmf):
    tm = build_matrix(spec)
    pi = stationary(tm)
    return max(abs(p - pmf(x)) for p, x in zip(pi, tm.states))


def test_stationary_matches_multinomial_for_ehrenfest():
    p = (0.25, 0.35, 0.4)
    err = _stationary_error(Ehrenfest(7, 2, p), lambda x: multinomial_pmf(x, p))
    assert err <= 1e-10


def test_stationary_matches_dirichlet_multinomial_for_standard_moran():
    n, m, p = 6, 0.5, (0.3, 0.2, 0.5)
    alpha = tuple(n * m * pi / (1 - m) for pi in p)
    err = _stationary_error(MoranStandard(n, m, p), lambda x: dm_pmf(x, alpha))
    assert err <= 1e-10


def test_stationary_matches_multinomial_at_full_mutation():
    n, p = 5, (0.3, 0.2, 0.5)
    err = _stationary_error(MoranStandard(n, 1.0, p), lambda x: multinomial_pmf(x, p))
    assert err <= 1e-10


@pytest.mark.parametrize("ctor", [PolyaLevel, PolyaUpDown, PolyaDownUp])
def test_stationary_is_dirichlet_multinomial_for_all_polya_orders(ctor):
    # The reordered variants share the level model's stationary law; this is
    # what justifies reusing the Dirichlet-multinomial in their crude bounds.
    n, alpha = 6, (1.0, 2.0, 1.5)
    err = _stationary_error(ctor(n, 2, alpha), lambda x: dm_pmf(x, alpha))
    assert err <= 1e-10


def test_stationary_smallest_population():
    tm = build_matrix(Ehrenfest(1, 1, (0.25, 0.75)))
    pi = stationary(tm)
    assert dict(zip(tm.states, pi)) == pytest.approx({(1, 0): 0.25, (0, 1): 0.75})


def test_stationary_rejects_periodic_kernel():
    # Hand-built two-state flip: no valid model produces this, but the solver
    # must refuse rather than return garbage.
    states = [(0, 1), (1, 0)]
    csr = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    tm = TransitionMatrix(spec=None, csr=csr, state_array=np.array(states))
    with pytest.raises(StationaryConvergenceError):
        stationary(tm)


def _hand_built(dense) -> TransitionMatrix:
    """A TransitionMatrix over the states (k, n-1-k) from a dense row-stochastic array."""
    dense = np.asarray(dense, dtype=float)
    n = len(dense)
    states = [(k, n - 1 - k) for k in range(n)]
    return TransitionMatrix(spec=None, csr=sp.csr_matrix(dense), state_array=np.array(states))


def test_stationary_rejects_reducible_kernel():
    # Two closed classes, {0, 1} and {2}: the stationary law is not unique.
    tm = _hand_built([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(StationaryConvergenceError):
        stationary(tm)


def test_stationary_accepts_aperiodic_kernel_without_self_loops():
    # Cycles 0 -> 1 -> 0 and 0 -> 1 -> 2 -> 0 have lengths 2 and 3, so the
    # period is 1 although no state can stay put.  pi = (0.4, 0.4, 0.2) by hand:
    # pi_1 = pi_0, pi_2 = pi_1 / 2.
    tm = _hand_built([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
    assert np.max(np.abs(stationary(tm) - [0.4, 0.4, 0.2])) <= 1e-15


@pytest.mark.parametrize("spec", [
    MoranGeneral(17, MutationMatrix([[0.7, 0.1, 0.1, 0.1], [0.2, 0.6, 0.1, 0.1],
                                     [0.1, 0.2, 0.6, 0.1], [0.1, 0.1, 0.2, 0.6]])),
    MoranStandard(44, 0.5, (0.3, 0.2, 0.5)),
    PolyaLevel(44, 2, (1.0, 2.0, 3.0)),
    PolyaUpDown(44, 2, (1.0, 2.0, 3.0)),
    PolyaDownUp(44, 2, (1.0, 2.0, 3.0)),
    Ehrenfest(17, 2, (0.1, 0.2, 0.3, 0.4)),
    PolyaDownUp(12, 12, (1.0, 2.0, 1.5)),
    Ehrenfest(9, 9, (0.1, 0.2, 0.3, 0.4)),
    # Slowly mixing general Moran chains: rare mutation, where the spectral
    # gap (1 - lambda*(M)) / N is about 1e-4 (power iteration from uniform
    # does not settle the asymmetric one in 2^16 products); a cyclic mutation
    # matrix that meets none of the monotonicity conditions; and a
    # 1,001-state birth-death chain with gap 5e-4.
    MoranGeneral(10, MutationMatrix([[0.999, 0.0005, 0.0005], [0.0005, 0.999, 0.0005],
                                     [0.0005, 0.0005, 0.999]])),
    MoranGeneral(10, MutationMatrix([[0.999, 0.001, 0.0], [0.0005, 0.999, 0.0005],
                                     [0.0, 0.001, 0.999]])),
    MoranGeneral(20, MutationMatrix([[0.999, 0.001, 0.0], [0.0, 0.999, 0.001],
                                     [0.001, 0.0, 0.999]])),
    MoranGeneral(1000, MutationMatrix([[0.6, 0.4], [0.1, 0.9]])),
], ids=["moran_general", "moran_standard", "polya_level", "polya_updown",
        "polya_downup", "ehrenfest", "polya_downup_lambda0", "ehrenfest_lambda0",
        "moran_rare_symmetric", "moran_rare_asymmetric", "moran_cyclic_rare",
        "moran_d2_1001"])
def test_stationary_matches_lu_oracle(spec):
    # Desk sizes (about a thousand states; a few hundred for the lambda = 0
    # specs, whose rows all equal pi).  The urn families and standard Moran
    # iterate from their closed form; general Moran has none.
    tm = build_matrix(spec)
    assert np.max(np.abs(stationary(tm) - stationary_lu(tm.csr))) <= 1e-12


def test_stationary_corrects_a_wrong_start(monkeypatch):
    # The start only speeds convergence: from a point mass the iteration
    # still reaches the kernel's own law, within its budget (gap 0.062, about
    # 560 products) and to the accuracy its 1e-15 stop gives, about 1e-15/gap.
    alpha = (1.0, 2.0, 1.5)
    tm = build_matrix(PolyaLevel(10, 2, alpha))
    monkeypatch.setattr(exact, "_start", lambda tm: np.eye(tm.dim)[0])
    monkeypatch.setattr(exact, "_solve_direct", None)
    err = max(abs(p - dm_pmf(x, alpha))
              for p, x in zip(stationary(tm), tm.states))
    assert err <= 1e-13


def _count_products(monkeypatch) -> list:
    """Record each K^T product stationary makes; the direct solve raises."""
    products = []
    real_product = exact._product

    def counted(kt):
        product = real_product(kt)

        def count(v, out):
            products.append(1)
            return product(v, out)

        return count

    def refused(csr):
        raise AssertionError("direct solve reached")

    monkeypatch.setattr(exact, "_product", counted)
    monkeypatch.setattr(exact, "_solve_direct", refused)
    return products


@pytest.mark.parametrize("spec", [
    MoranStandard(200, 0.5, (0.3, 0.2, 0.5)),
    PolyaLevel(200, 2, (1.0, 2.0, 3.0)),
    PolyaUpDown(200, 2, (1.0, 2.0, 3.0)),
    PolyaDownUp(200, 2, (1.0, 2.0, 3.0)),
    Ehrenfest(200, 2, (0.3, 0.2, 0.5)),
    PolyaLevel(600, 2, (180.0,) * 3),
], ids=["moran_standard", "polya_level", "polya_updown", "polya_downup", "ehrenfest",
        "polya_level_at_the_cap"])
def test_closed_form_stationary_law_takes_one_product(spec, monkeypatch):
    # d = 3, N = 200 (20,301 states): one K^T product moves the closed-form
    # law by at most the 1e-15 stop, so the iteration ends there and the
    # direct solve is never reached.  N = 600 (180,901 states, the largest
    # d = 3 space under the state cap) is where that move came closest to
    # the stop, 4e-16, over the inputs of the tests and benchmarks.
    products = _count_products(monkeypatch)
    pi = stationary(build_matrix(spec))
    assert len(products) == 1
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_large_weight_law_settles_by_iteration(monkeypatch):
    # With weights of 1e5, lgamma(c + a) - lgamma(a) is a difference of
    # numbers near 1e6, so the closed-form law carries rounding near 1e-10
    # relative, and one K^T product moves it by 9e-14.  The iteration settles it to the kernel's own law within a few
    # dozen products and without the direct solve.  The oracle is the exact
    # law, prod_i C(x_i + a - 1, x_i) / C(N + 5a - 1, N) in integers.
    n, a = 20, 100_000
    products = _count_products(monkeypatch)
    tm = build_matrix(PolyaLevel(n, 2, (float(a),) * 5))
    pi = stationary(tm)
    denominator = math.comb(n + 5 * a - 1, n)
    want = [math.prod(math.comb(c + a - 1, c) for c in x) / denominator for x in tm.states]
    assert 1 < len(products) <= 64
    assert np.max(np.abs(pi - want)) <= 1e-14


def test_nearly_periodic_kernel_is_solved_quickly(monkeypatch):
    # One self-loop of 1e-9 makes the flip aperiodic, so the graph check
    # passes, but power iteration settles by a factor of only 1 - 1e-9 a
    # step.  Without a closed form the direct solve answers at once; from a
    # start, the iteration gives up at its budget and the solve takes over.
    tm = _hand_built([[1e-9, 1.0 - 1e-9], [1.0, 0.0]])
    t0 = time.perf_counter()
    assert np.max(np.abs(stationary(tm) - stationary_lu(tm.csr))) <= 1e-15
    monkeypatch.setattr(exact, "_start", lambda tm: np.array([0.9, 0.1]))
    assert np.max(np.abs(stationary(tm) - stationary_lu(tm.csr))) <= 1e-15
    assert time.perf_counter() - t0 < 1.0


def test_corrupted_kernel_entry_fails_the_residual_check():
    # Row 0 sums to 0.75, so no distribution is a fixed point of K: whatever
    # the solve returns fails the residual check.
    tm = _hand_built([[0.5, 0.25], [0.5, 0.5]])
    with pytest.raises(StationaryConvergenceError, match="stationarity residual"):
        stationary(tm)


def test_tv_curve_starts_at_complement_of_stationary_mass():
    spec = PolyaLevel(6, 1, (1.0, 2.0, 1.5))
    tm = build_matrix(spec)
    pi = stationary(tm)
    x0 = (2, 2, 2)
    curve = tv_curve(tm, x0, 0)
    assert curve[0] == pytest.approx(1.0 - pi[tm.index[x0]], abs=1e-12)


def test_stationary_and_tv_curve_share_one_transpose():
    tm = build_matrix(PolyaLevel(6, 1, (1.0, 2.0, 1.5)))
    pi = stationary(tm)
    kt = vars(tm)["kt"]  # built by the power iteration from the closed form
    tv_curve(tm, (2, 2, 2), 5, pi)
    tv_curve(tm, (0, 0, 6), 5)
    assert vars(tm)["kt"] is kt
    assert (kt != tm.csr.T).nnz == 0


def test_tv_curve_deterministic():
    tm = build_matrix(Ehrenfest(6, 1, (0.3, 0.3, 0.4)))
    a = tv_curve(tm, (0, 0, 6), 50)
    b = tv_curve(tm, (0, 0, 6), 50)
    assert np.array_equal(a, b)


def test_tv_curve_within_bound_envelope():
    spec = Ehrenfest(8, 1, (0.25, 0.25, 0.5))
    tm = build_matrix(spec)
    ed = model_eigendata(spec)
    x0 = (4, 4, 0)
    lower, upper = tv_bound_coefficients(ed, x0)
    curve = tv_curve(tm, x0, 300)
    decay = 1.0
    for tv in curve:
        assert lower * decay - 1e-11 <= tv <= upper * decay + 1e-11
        decay *= ed.lam


def test_tv_curve_under_crude_bound():
    for spec in [Ehrenfest(6, 1, (0.25, 0.35, 0.4)), PolyaLevel(6, 2, (1.0, 2.0, 1.5))]:
        tm = build_matrix(spec)
        ed = model_eigendata(spec)
        x0 = (1, 2, 3)
        coeff = crude_bound(spec, x0)
        curve = tv_curve(tm, x0, 200)
        decay = 1.0
        for tv in curve:
            assert tv <= coeff * decay + 1e-11
            decay *= ed.lam


def test_eigen_identity_matrix_wise():
    # K f = lam f as one sparse product over the whole state space.
    for spec in [
        MoranGeneral(6, delta_construction_matrix(0.05)),
        PolyaUpDown(6, 2, (1.0, 2.0, 1.5)),
        Ehrenfest(6, 2, (0.25, 0.35, 0.4)),
    ]:
        tm = build_matrix(spec)
        ed = model_eigendata(spec)
        f = np.array([ed.value(x) for x in tm.states])
        assert np.max(np.abs(tm.csr @ f - ed.lam * f)) <= 1e-10


def test_tv_curve_nonincreasing():
    # Observational: distance to stationarity under the same kernel never
    # grows step over step (up to the double-precision floor).
    for spec in [PolyaUpDown(7, 2, (1.0, 2.0, 1.5)), Ehrenfest(7, 1, (0.3, 0.3, 0.4))]:
        curve = tv_curve(build_matrix(spec), (3, 3, 1), 300)
        assert np.all(np.diff(curve) <= 1e-12)


@pytest.mark.parametrize("spec,x0", [
    (PolyaLevel(6, 2, (1.0, 2.0, 1.5)), (6, 0, 0)),  # 28 states, 4,681 rows a block
    (PolyaUpDown(44, 2, (1.5, 3.0, 1.5)), (0, 0, 44)),  # 1,035 states, 126 rows a block
], ids=["28_states", "1035_states"])
def test_tv_curve_matches_the_step_by_step_recurrence_bit_for_bit(spec, x0):
    # v -> kt @ v and 0.5 * |v - pi|.sum() one step at a time, at horizons
    # around the block edges; a change in scipy's private CSR kernel that
    # moves a single bit fails here.
    tm = build_matrix(spec)
    pi = stationary(tm)
    rows = max(2, exact._TV_BLOCK_BUDGET // tm.dim)
    v = np.zeros(tm.dim)
    v[tm.index[x0]] = 1.0
    recurrence = []
    for _ in range(3 * rows + 1):
        recurrence.append(0.5 * float(np.abs(v - pi).sum()))
        v = tm.kt @ v
    for n_max in (0, 1, rows - 1, rows, rows + 1, 3 * rows):
        assert np.array_equal(tv_curve(tm, x0, n_max, pi), recurrence[:n_max + 1])


def test_build_matrix_keeps_the_state_array():
    tm = build_matrix(PolyaLevel(5, 2, (1.0, 2.0, 1.5, 0.5)))
    assert not tm.state_array.flags.writeable
    assert tm.state_array.dtype == np.int64 and tm.dim == len(tm.state_array) == 56
    # states and index are formed from the array on first use, as plain tuples of ints.
    assert "states" not in vars(tm) and "index" not in vars(tm)
    assert tm.states == [tuple(int(c) for c in row) for row in tm.state_array]
    assert all(type(c) is int for x in tm.states for c in x)
    assert tm.index == {x: i for i, x in enumerate(tm.states)}
    assert tm.states is tm.states and tm.index is tm.index
    assert tm.states == monochain.enumerate_states(5, 4)


def test_tv_curve_on_a_permuted_state_space():
    # A hand-built kernel over its states in shuffled order gives the same
    # curve: the start is found in the state array, not by enumeration order.
    tm = build_matrix(PolyaUpDown(6, 2, (1.5, 3.0, 1.5)))
    pi = stationary(tm)
    x0 = (0, 0, 6)
    perm = np.random.default_rng(7).permutation(tm.dim)
    moved = TransitionMatrix(spec=None, csr=tm.csr[perm][:, perm].tocsr(),
                             state_array=tm.state_array[perm])
    assert moved.states == [tm.states[i] for i in perm]
    ordered = tv_curve(tm, x0, 40, pi)
    shuffled = tv_curve(moved, x0, 40, pi[perm])
    np.testing.assert_allclose(shuffled, ordered, rtol=0, atol=1e-14)
    # Solved from the shuffled kernel itself, by the direct solve.
    np.testing.assert_allclose(tv_curve(moved, x0, 40), ordered, rtol=0, atol=1e-12)
    # A start the space does not hold is refused, a composition of N among them.
    partial = TransitionMatrix(spec=None, csr=moved.csr[1:, 1:].tocsr(),
                               state_array=moved.state_array[1:])
    for bad in (moved.states[0], (7, 0, 0), (3, 3), (6, 0, 0, 0)):
        with pytest.raises(ValidationError, match="not in the state space"):
            tv_curve(partial, bad, 5, pi[perm][1:])


def test_tv_curve_reads_no_state_tuples_or_index(monkeypatch):
    # The start is matched against the state array, canonical or permuted,
    # so a curve forms neither tm.states nor tm.index.
    tm = build_matrix(PolyaUpDown(6, 2, (1.5, 3.0, 1.5)))
    pi, x0 = stationary(tm), (0, 0, 6)
    perm = np.random.default_rng(7).permutation(tm.dim)
    moved = TransitionMatrix(spec=None, csr=tm.csr[perm][:, perm].tocsr(),
                             state_array=tm.state_array[perm])
    want = [tv_curve(tm, x0, 40, pi), tv_curve(moved, x0, 40, pi[perm])]

    def refused(self):
        raise AssertionError("state tuples or index formed")

    monkeypatch.setattr(TransitionMatrix, "states", property(refused))
    monkeypatch.setattr(TransitionMatrix, "index", property(refused))
    fresh = [TransitionMatrix(spec=m.spec, csr=m.csr, state_array=m.state_array)
             for m in (tm, moved)]
    assert np.array_equal(tv_curve(fresh[0], x0, 40, pi), want[0])
    assert np.array_equal(tv_curve(fresh[1], x0, 40, pi[perm]), want[1])


def test_tv_curve_refuses_an_overlong_curve_before_any_work(monkeypatch):
    tm = build_matrix(Ehrenfest(4, 1, (0.3, 0.3, 0.4)))

    def refused(*args):
        raise AssertionError("stationary law solved")

    monkeypatch.setattr(exact, "stationary", refused)
    monkeypatch.setattr(exact, "_product", refused)
    for n_max in (exact._TV_CURVE_CAP, 10**12):
        with pytest.raises(CapacityError, match="TV curve too long"):
            tv_curve(tm, (0, 0, 4), n_max)


def test_tv_curve_rejects_foreign_state():
    tm = build_matrix(Ehrenfest(6, 1, (0.3, 0.3, 0.4)))
    with pytest.raises(ValidationError):
        tv_curve(tm, (7, 0, 0), 10)


@pytest.mark.parametrize("n_max", [2.5, "3", True, -1])
def test_tv_curve_refuses_a_non_integer_or_negative_length(n_max):
    tm = build_matrix(Ehrenfest(6, 1, (0.3, 0.3, 0.4)))
    with pytest.raises(ValidationError, match="n_max"):
        tv_curve(tm, (0, 0, 6), n_max)


def test_irreducible_aperiodic_for_random_mutation_matrices():
    rng = np.random.default_rng(22)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 7))
        spec = MoranGeneral(n, random_positive_matrix(rng, d))
        assert exact._ergodicity_problem(build_matrix(spec).csr) is None


def test_irreducible_aperiodic_accepts_standard_spec():
    tm = build_matrix(MoranStandard(4, 0.5, (0.4, 0.6)))
    assert exact._ergodicity_problem(tm.csr) is None


def test_monotone_families_pass_the_audit():
    for spec in [
        Ehrenfest(6, 1, (0.25, 0.35, 0.4)),
        PolyaDownUp(6, 2, (1.0, 2.0, 1.5)),
        MoranGeneral(6, delta_construction_matrix(0.05)),
    ]:
        pairs, violations, _ = monotonicity_audit(build_matrix(spec), trials=200, seed=0)
        assert violations == 0
        assert pairs > 0


def test_audit_runs_on_condition_violating_matrix():
    # Informative only: the audit may or may not find a witness, but it must
    # report coherently.
    bad = MoranGeneral(6, MutationMatrix([
        [0.2, 0.4, 0.4],
        [0.3, 0.4, 0.3],
        [0.5, 0.1, 0.4],
    ]))
    _, violations, max_excess = monotonicity_audit(build_matrix(bad), trials=50, seed=1)
    assert violations >= 0
    if violations:
        assert max_excess > 0


def test_audit_results_are_pinned():
    # Seeded results of a non-monotone Moran kernel and of a random kernel.
    cyclic = MoranGeneral(6, MutationMatrix([
        [0.05, 0.05, 0.9],
        [0.9, 0.05, 0.05],
        [0.05, 0.9, 0.05],
    ]))
    assert monotonicity_audit(build_matrix(cyclic), trials=50, seed=1) == (
        182, 24, 0.3634704430278084)
    rng = np.random.default_rng(5)
    states = monochain.enumerate_states(5, 4)
    dense = rng.random((len(states), len(states)))
    dense /= dense.sum(axis=1, keepdims=True)
    tm = TransitionMatrix(spec=None, csr=sp.csr_matrix(dense), state_array=np.array(states))
    assert monotonicity_audit(tm, trials=20, seed=4) == (406, 4966, 0.44224447808201317)
