import csv
import io
import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from monochain import (
    CapacityError,
    CoupledPair,
    CouplingOrderError,
    Ehrenfest,
    MoranGeneral,
    MoranStandard,
    MutationMatrix,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
    ValidationError,
    coupled_step,
    dominated_pick,
    model_eigendata,
    partial_leq,
    run_coupled,
)
from monochain import coupling
from monochain.coupling import (
    _draw_distinct,
    _draws,
    _moran_step,
    _urn_step,
    trajectory_csv,
)
from monochain.kernels import pick_index
from helpers import (
    BIT_GENERATORS,
    delta_construction_matrix,
    plain_state,
    random_dominated_matrix,
    random_ordered_pair,
    random_prob_vector,
)
from oracles import coupled_adds, pair_labels

MORAN = MoranGeneral(8, delta_construction_matrix(0.05))
FAMILIES = [
    MORAN,
    PolyaLevel(8, 2, (1.5, 2.0, 1.0)),
    PolyaUpDown(8, 2, (1.5, 2.0, 1.0)),
    PolyaDownUp(8, 2, (1.5, 2.0, 1.0)),
    Ehrenfest(8, 2, (0.3, 0.3, 0.4)),
]


def test_labeling_reproduces_worked_example():
    x, y = (1, 5, 7, 4), (2, 5, 8, 2)
    pop1, pop2 = pair_labels(x, y)
    assignments = list(zip(pop1, pop2))
    # The cut is k1 + k2 with k1 = N - x_d = 13 and k2 = y_d = 2.
    assert sum(x) - x[-1] + y[-1] == 13 + 2
    # The two surplus individuals of population 2 take the unused labels of
    # population 1's last species block, in ascending species order.
    assert assignments[15] == (3, 0)
    assert assignments[16] == (3, 2)
    # Shared labels carry equal species.
    assert all(s1 == s2 for s1, s2 in assignments[:15])


def test_labeling_identical_states():
    pop1, pop2 = pair_labels((2, 1, 3), (2, 1, 3))
    assert all(s1 == s2 for s1, s2 in zip(pop1, pop2))


def test_labeling_invariants_random_pairs():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, 13))
        x, y = random_ordered_pair(rng, n, d)
        pop1, pop2 = pair_labels(x, y)
        assignments = list(zip(pop1, pop2))
        cut = n - x[-1] + y[-1]
        assert all(s1 == s2 for s1, s2 in assignments[:cut])
        assert all(s1 == d - 1 and s2 < d - 1 for s1, s2 in assignments[cut:])
        for sp in range(d):
            assert sum(1 for s in pop1 if s == sp) == x[sp]
            assert sum(1 for s in pop2 if s == sp) == y[sp]


def test_dominated_pick_interval_measures():
    # Integrate the pick map over a fine grid of the shared uniform and
    # recover both marginals from the interval lengths.
    w_low = [0.2, 0.1, 0.3, 0.4]
    w_high = [0.3, 0.3, 0.3, 0.1]
    breaks = np.linspace(0, 1, 200_001)
    mids = (breaks[:-1] + breaks[1:]) / 2
    mass_low = np.zeros(4)
    mass_high = np.zeros(4)
    for v in mids:
        i1, i2 = dominated_pick(float(v), w_low, w_high)
        mass_low[i1] += 1
        mass_high[i2] += 1
    assert mass_low / len(mids) == pytest.approx(w_low, abs=1e-4)
    assert mass_high / len(mids) == pytest.approx(w_high, abs=1e-4)


def test_dominated_pick_order_property_bulk():
    # Over a million random draws: whenever the low chain picks an index
    # below the last, the high chain picks the same index.
    rng = np.random.default_rng(15)
    d = 4
    for _ in range(100):
        w_low = rng.random(d) + 0.05
        w_low /= w_low.sum()
        surplus = rng.random(d - 1) * 0.1
        w_high = w_low.copy()
        w_high[: d - 1] += surplus
        w_high[d - 1] -= surplus.sum()
        if w_high[d - 1] <= 0:
            continue
        for v in rng.random(10_000):
            i1, i2 = dominated_pick(float(v), list(w_low), list(w_high))
            if i1 < d - 1:
                assert i2 == i1
    # 100 * 10_000 = 1e6 draws total


def test_shared_label_removal_preserves_order_worked_example():
    # Removing labels 6, 8, 14, 16 (1-based) from the labeled pair
    # x=(1,5,7,4), y=(2,5,8,2) leaves (1,4,6,2) <= (1,4,7,1).
    pop1, pop2 = pair_labels((1, 5, 7, 4), (2, 5, 8, 2))
    x, y = [1, 5, 7, 4], [2, 5, 8, 2]
    for label in (5, 7, 13, 15):  # 0-based
        x[pop1[label]] -= 1
        y[pop2[label]] -= 1
    assert x == [1, 4, 6, 2] and y == [1, 4, 7, 1]
    assert partial_leq(tuple(x), tuple(y))


def test_coupled_step_identical_states_stay_identical():
    for spec in FAMILIES:
        rng = np.random.default_rng(16)
        pair = CoupledPair((2, 3, 3), (2, 3, 3))
        for _ in range(200):
            pair = coupled_step(spec, pair, rng)
            assert pair.x == pair.y


def test_coupled_step_preserves_order_bulk():
    rng = np.random.default_rng(17)
    for spec in FAMILIES:
        for _ in range(50):
            x, y = random_ordered_pair(rng, 8, 3)
            pair = CoupledPair(x, y)
            for _ in range(400):
                pair = coupled_step(spec, pair, rng)  # raises on violation
                assert partial_leq(pair.x, pair.y)


def test_coalescence_absorbs():
    rng = np.random.default_rng(18)
    for spec in FAMILIES:
        traj, coal = run_coupled(spec, (0, 0, 8), (4, 3, 1), 20_000, rng)
        assert coal is not None
        pair = traj[-1]
        assert pair.x == pair.y
        for _ in range(50):
            pair = coupled_step(spec, pair, rng)
            assert pair.x == pair.y


def test_run_coupled_equal_starts_coalesce_immediately():
    rng = np.random.default_rng(19)
    traj, coal = run_coupled(FAMILIES[1], (2, 3, 3), (2, 3, 3), 100, rng)
    assert coal == 0 and len(traj) == 1


def test_run_coupled_rejects_unordered_or_invalid():
    rng = np.random.default_rng(20)
    with pytest.raises(ValidationError):
        run_coupled(FAMILIES[1], (4, 3, 1), (0, 0, 8), 10, rng)
    bad_moran = MoranGeneral(8, delta_construction_matrix(0.05))
    with pytest.raises(ValidationError):
        run_coupled(bad_moran, (0, 0, 9), (4, 3, 2), 10, rng)  # wrong total


# No dominated-last-row condition holds: the last row is not even weakly dominated.
NO_CONDITION = [[0.2, 0.4, 0.4], [0.3, 0.4, 0.3], [0.5, 0.1, 0.4]]


def test_run_coupled_requires_monotone_mutation_matrix():
    bad = MoranGeneral(6, MutationMatrix(NO_CONDITION))
    with pytest.raises(ValidationError, match="monotonicity"):
        run_coupled(bad, (0, 0, 6), (2, 2, 2), 10, np.random.default_rng(0))


def test_run_coupled_checks_each_mutation_matrix_once(perron_runs):
    spec = MoranGeneral(8, delta_construction_matrix(0.05))
    for seed in range(4):
        run_coupled(spec, (0, 0, 8), (4, 3, 1), 20, np.random.default_rng(seed))
    assert len(perron_runs) == 1
    # A matrix that fails is refused on every call, not only the first.  Its
    # last row is weakly dominated, so its check makes a Perron run, but the
    # reduced matrix [[0.3, 0], [0, 0]] is reducible with eigenvector (1, 0).
    bad = MoranGeneral(6, MutationMatrix([
        [0.5, 0.3, 0.2],
        [0.2, 0.3, 0.5],
        [0.2, 0.3, 0.5],
    ]))
    for _ in range(2):
        with pytest.raises(ValidationError, match="monotonicity"):
            run_coupled(bad, (0, 0, 6), (2, 2, 2), 10, np.random.default_rng(0))
    assert len(perron_runs) == 2


def test_run_coupled_keeps_only_the_steps_asked_for():
    spec, x0, y0 = FAMILIES[2], (0, 0, 8), (4, 3, 1)
    full, coal = run_coupled(spec, x0, y0, 500, np.random.default_rng(6))
    for keep in (0, 1, 3):
        kept, coal_kept = run_coupled(spec, x0, y0, 500, np.random.default_rng(6), keep)
        assert kept == full[:keep + 1] and coal_kept == coal


@pytest.mark.parametrize("budget", [
    {"max_steps": 10.0}, {"max_steps": -3}, {"max_steps": True},
    {"keep_steps": -2}, {"keep_steps": 2.5},
], ids=lambda budget: "-".join(f"{k}={v!r}" for k, v in budget.items()))
def test_run_coupled_refuses_a_bad_step_budget(budget):
    args = {"max_steps": 10, "keep_steps": None, **budget}
    rng, twin = np.random.default_rng(25), np.random.default_rng(25)
    with pytest.raises(ValidationError, match=next(iter(budget))):
        run_coupled(FAMILIES[1], (0, 0, 8), (4, 3, 1), args["max_steps"], rng, args["keep_steps"])
    assert rng.bit_generator.state == twin.bit_generator.state


def _stepped(spec, x0, y0, max_steps, rng, keep_steps):
    """run_coupled's result, made by a loop of coupled_step calls."""
    pair = CoupledPair(x0, y0)
    trajectory = [pair]
    for step in range(1, max_steps + 1):
        pair = coupled_step(spec, pair, rng)
        if keep_steps is None or step <= keep_steps:
            trajectory.append(pair)
        if pair.x == pair.y:
            return trajectory, step
    return trajectory, None


@pytest.mark.parametrize("n", [8, 100, 10_000])
def test_run_coupled_matches_a_loop_of_coupled_steps(n):
    # The trajectory path and the one-step path run the same step: the same
    # pairs, the same coalescence step and the same generator state after.
    params = np.random.default_rng(26)
    specs = [
        MoranGeneral(n, random_dominated_matrix(params, 3)),
        MoranStandard(n, 0.3, random_prob_vector(params, 3)),
        PolyaLevel(n, 2, (1.5, 2.0, 1.0)),
        PolyaUpDown(n, 2, (1.5, 2.0, 1.0)),
        PolyaDownUp(n, 1, (0.5, 2.0, 1.0)),
        Ehrenfest(n, 2, random_prob_vector(params, 3)),
    ]
    far = ((0, 0, n), (n // 2, n // 4, n - n // 2 - n // 4))
    near = ((0, 0, n), (1, 0, n - 1))
    coalesced = 0
    for seed, spec in enumerate(specs):
        for x0, y0 in (far, near):
            for keep in (None, 1):
                rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                got = run_coupled(spec, x0, y0, 300, rng, keep)
                assert got == _stepped(spec, x0, y0, 300, twin, keep), (spec, x0, y0, keep)
                assert rng.bit_generator.state == twin.bit_generator.state
                coalesced += got[1] is not None
    if n == 8:
        assert coalesced == len(specs) * 4


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: type(spec).__name__)
def test_a_broken_order_raises_and_frees_the_generator(spec, monkeypatch):
    # Whether a step returns or raises CouplingOrderError, the generator's
    # lock is free afterwards and the generator still draws.  The lock is
    # tried from another thread: in some numpy versions it is reentrant.
    rng = np.random.default_rng(27)
    lock = rng.bit_generator.lock

    def assert_free():
        acquired = []

        def try_lock():
            if lock.acquire(blocking=False):
                acquired.append(True)
                lock.release()

        other = threading.Thread(target=try_lock)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive() and acquired == [True]
        assert 0.0 <= rng.random() < 1.0

    x0, y0 = (0, 2, 6), (3, 3, 2)
    checked = []
    real = coupling._check_order
    monkeypatch.setattr(coupling, "_check_order", lambda x, y: checked.append(1) or real(x, y))
    _, coal = run_coupled(spec, x0, y0, 50, rng)
    # The order is checked after every step.
    assert len(checked) == (50 if coal is None else coal)
    assert_free()
    coupled_step(spec, CoupledPair(x0, y0), rng)
    assert_free()
    # A swapped pair is refused before the lock is taken, without a draw.
    before = rng.bit_generator.state
    with pytest.raises(ValidationError):
        coupled_step(spec, CoupledPair(y0, x0), rng)
    assert rng.bit_generator.state == before
    assert_free()

    def broken(x, y):
        raise CouplingOrderError(f"coupled step broke the order: {x} !<= {y}")

    monkeypatch.setattr(coupling, "_check_order", broken)
    with pytest.raises(CouplingOrderError):
        run_coupled(spec, x0, y0, 50, rng)
    assert_free()
    with pytest.raises(CouplingOrderError):
        coupled_step(spec, CoupledPair(x0, y0), rng)
    assert_free()


def test_run_coupled_memory_is_flat_in_the_step_budget():
    # Keeping one step, a replicate of 2 * 10^4 steps (none coalescing this
    # far apart at N = 10^4) peaks within 1 MB of one of 10^3 steps.  Keeping
    # every pair of 2 * 10^4 steps would hold several MB.
    spec = PolyaDownUp(10_000, 1, (1.0, 2.0, 1.5))
    x0, y0 = (0, 0, 10_000), (5_000, 4_000, 1_000)

    def peak(steps):
        tracemalloc.start()
        try:
            traj, coal = run_coupled(spec, x0, y0, steps, np.random.default_rng(4), 1)
            return tracemalloc.get_traced_memory()[1], len(traj), coal
        finally:
            tracemalloc.stop()

    small, large = peak(1_000), peak(20_000)
    assert small[1:] == large[1:] == (2, None)
    assert large[0] - small[0] <= 2**20


def test_gap_contracts_at_eigenvalue_rate():
    # E[f(Y_n) - f(X_n)] = lam^n (f(y0) - f(x0)), checked by Monte Carlo at n=3.
    spec = PolyaDownUp(6, 1, (1.0, 1.5, 0.5))
    ed = model_eigendata(spec)
    x0, y0 = (0, 0, 6), (3, 2, 1)
    n_steps, reps = 3, 100_000
    rng = np.random.default_rng(21)
    gaps = np.empty(reps)
    for r in range(reps):
        pair = CoupledPair(x0, y0)
        for _ in range(n_steps):
            pair = coupled_step(spec, pair, rng)
        gaps[r] = ed.value(pair.y) - ed.value(pair.x)
    expected = ed.lam**n_steps * (ed.value(y0) - ed.value(x0))
    se = gaps.std(ddof=1) / math.sqrt(reps)
    assert abs(gaps.mean() - expected) <= 3 * se


def test_tail_bound_on_coalescence_time():
    # P(no coalescence by n) <= (f(y0) - f(x0)) lam^n / c1.
    spec = Ehrenfest(6, 1, (0.25, 0.35, 0.4))
    ed = model_eigendata(spec)
    x0, y0 = (0, 0, 6), (2, 2, 2)
    gap0 = ed.value(y0) - ed.value(x0)
    horizon = 25
    reps = 4000
    not_coalesced = 0
    for r in range(reps):
        _, coal = run_coupled(spec, x0, y0, horizon, np.random.default_rng(1000 + r))
        if coal is None:
            not_coalesced += 1
    bound = gap0 * ed.lam**horizon / ed.c1
    frac = not_coalesced / reps
    se = math.sqrt(frac * (1 - frac) / reps) if 0 < frac < 1 else 1 / reps
    assert frac <= bound + 3 * se


def test_trajectory_csv_rows():
    # The text equals csv.writer's bytes for the same rows, CRLF line ends included.
    rng = np.random.default_rng(24)
    for d in range(2, 6):
        for coalesced_at in (None, 0, 3, 7):
            traj = [CoupledPair(*random_ordered_pair(rng, int(rng.integers(0, 10**6)), d))
                    for _ in range(8)]
            buf = io.StringIO(newline="")
            csv.writer(buf).writerows(
                (5, step, ";".join(map(str, pair.x)), ";".join(map(str, pair.y)),
                 int(coalesced_at is not None and step >= coalesced_at))
                for step, pair in enumerate(traj))
            assert trajectory_csv(5, traj, coalesced_at) == buf.getvalue()
    traj = [CoupledPair((0, 2), (1, 1)), CoupledPair((1, 1), (1, 1))]
    assert trajectory_csv(0, traj, 1) == "0,0,0;2,1;1,0\r\n0,1,1;1,1;1,1\r\n"


# ---------------------------------------------------------------------------
# The block form of the labelling against explicit label lists
# ---------------------------------------------------------------------------

def dense_draw_distinct(rng, n, k):
    """Partial Fisher-Yates over a materialised range(n)."""
    idx = list(range(n))
    for t in range(k):
        j = t + int(rng.integers(0, n - t))
        idx[t], idx[j] = idx[j], idx[t]
    return idx[:k]


def dense_coupled_step(spec, pair, rng):
    """One coupled step read off explicit label lists (same draws as coupled_step)."""
    x, y = pair
    xn, yn = list(x), list(y)
    if isinstance(spec, MoranGeneral):
        pop1, pop2 = pair_labels(x, y)
        death = int(rng.integers(0, len(pop1)))
        parent = int(rng.integers(0, len(pop1)))
        u = rng.random()
        rows = spec.M.rows
        if pop1[parent] == pop2[parent]:
            born1 = born2 = pick_index(u, rows[pop1[parent]])
        else:
            born1, born2 = dominated_pick(u, rows[-1], rows[pop2[parent]])
        xn[born1] += 1
        yn[born2] += 1
        xn[pop1[death]] -= 1
        yn[pop2[death]] -= 1
        return CoupledPair(tuple(xn), tuple(yn))
    n, s = spec.N, spec.s
    added = []
    if spec.order == "updown":
        coupled_adds(spec, x, y, n, xn, yn, rng, added)
    pop1, pop2 = pair_labels(x, y, added)
    for lbl in dense_draw_distinct(rng, len(pop1), s):
        xn[pop1[lbl]] -= 1
        yn[pop2[lbl]] -= 1
    if spec.order == "level":
        coupled_adds(spec, x, y, n, xn, yn, rng)
    elif spec.order == "downup":
        coupled_adds(spec, xn, yn, n - s, xn, yn, rng)
    return CoupledPair(tuple(xn), tuple(yn))


def _removed(before, after) -> int:
    """The species a step took one individual from, when it added one to species 0."""
    (species,) = [i for i, (a, b) in enumerate(zip(before, after)) if b - a - (i == 0) == -1]
    return species


def test_block_map_matches_explicit_label_lists():
    # Both step bodies, fed a scripted death or mark label and a zero uniform
    # (every offspring and every added ball then goes to species 0), take
    # that label's individual from the species the explicit lists give it.
    rng = np.random.default_rng(22)
    params = np.random.default_rng(122)
    for _ in range(2000):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(0, 41))
        x, y = random_ordered_pair(rng, n, d)
        if n == 0:
            continue
        pop1, pop2 = pair_labels(x, y)
        bodies = ((_moran_step, MoranGeneral(n, random_dominated_matrix(params, d))),
                  (_urn_step, Ehrenfest(n, 1, random_prob_vector(params, d))))
        for lbl in range(n):
            draws = (lambda _n: lbl, lambda _state: 0.0, None)
            for step, model in bodies:
                xn, yn = step(model, draws, x, y)
                assert (_removed(x, xn), _removed(y, yn)) == (pop1[lbl], pop2[lbl])


def test_coupled_steps_match_explicit_label_lists():
    # Every family, including the up-down extension over the added balls:
    # the block coupler and the list coupler agree draw for draw.
    rng = np.random.default_rng(23)
    for trial in range(300):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 41))
        s = int(rng.integers(1, n + 1))
        alpha = tuple(rng.uniform(0.4, 3.0, size=d))
        spec = [
            MoranGeneral(n, random_dominated_matrix(rng, d)),
            PolyaLevel(n, s, alpha),
            PolyaUpDown(n, s, alpha),
            PolyaDownUp(n, s, alpha),
            Ehrenfest(n, s, random_prob_vector(rng, d)),
        ][trial % 5]
        pair = CoupledPair(*random_ordered_pair(rng, n, d))
        rng_blocks = np.random.default_rng(trial)
        rng_lists = np.random.default_rng(trial)
        for _ in range(20):
            expected = dense_coupled_step(spec, pair, rng_lists)
            pair = coupled_step(spec, pair, rng_blocks)
            assert pair == expected, (spec, pair, expected)


def test_sparse_draw_distinct_matches_dense_fisher_yates():
    for seed in range(40):
        for n in (1, 2, 3, 5, 8, 13, 40, 100, 10_000):
            for k in {0, 1, 2, n // 2, n - 1, n} & set(range(min(n, 100) + 1)):
                rng_sparse = np.random.default_rng([seed, n, k])
                rng_dense = np.random.default_rng([seed, n, k])
                below = _draws(rng_sparse.bit_generator.ctypes)[0]
                labels = _draw_distinct(below, n, k)
                assert labels == dense_draw_distinct(rng_dense, n, k)
                assert len(set(labels)) == k
                # Same generator consumption.
                assert rng_sparse.random() == rng_dense.random()


# ---------------------------------------------------------------------------
# Draws read off the bit generator equal the Generator methods
# ---------------------------------------------------------------------------

EDGE_BOUNDS = [1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_bit_stream_draws_match_the_generator_methods(bit_generator):
    # Interleaved bounded draws and uniforms against a twin generator: the
    # same values, and the same generator state at the end.
    rng = np.random.Generator(bit_generator(77))
    twin = np.random.Generator(bit_generator(77))
    below, next_double, state = _draws(rng.bit_generator.ctypes)
    picks = np.random.default_rng(78)
    for t in range(20_000):
        if t % 4 == 3:
            assert next_double(state) == twin.random()
            continue
        if t % 4 == 0:
            n = EDGE_BOUNDS[(t // 4) % len(EDGE_BOUNDS)]
        elif t % 4 == 2:
            # Ranges past int64, drawn as uint64 by numpy.
            n = 2**63 + int(picks.integers(1, 2**63, endpoint=True, dtype=np.uint64))
            if t % 40 == 2:
                n = (2**63 + 1, 2**64)[t % 80 == 2]
            assert below(n) == int(twin.integers(0, n, dtype=np.uint64)), n
            continue
        else:
            n = int(picks.integers(1, 2 ** int(picks.integers(1, 64))))
        assert below(n) == int(twin.integers(0, n)), n
    with pytest.raises(ValueError):
        twin.integers(0, 0)
    with pytest.raises(ValueError):
        below(0)
    assert plain_state(rng.bit_generator.state) == plain_state(twin.bit_generator.state)


def test_below_refuses_a_range_beyond_2_64_without_a_draw():
    # numpy refuses such a range; no 64-bit word reaches the rejection
    # threshold, so a draw loop would never end.
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(0, 2**64 + 1, dtype=np.uint64)

    def draw(state):
        raise AssertionError("drew a word")

    bits = SimpleNamespace(next_uint32=draw, next_uint64=draw, next_double=draw, state=None)
    below = _draws(bits)[0]
    for n in (2**64 + 1, 2**65, 3**50):
        with pytest.raises(ValueError, match="range"):
            below(n)


@pytest.mark.parametrize("spec, pair", [
    (PolyaLevel(2**64 + 1, 2, (1.0, 2.0)), ((0, 2**64 + 1), (1, 2**64))),
    (PolyaUpDown(2**64, 1, (1.0, 2.0)), ((0, 2**64), (1, 2**64 - 1))),
    (MoranStandard(2**64 + 1, 0.5, (0.5, 0.5)), ((0, 2**64 + 1), (1, 2**64))),
], ids=["level", "updown-N+s", "moran"])
def test_coupled_draws_beyond_2_64_labels_are_refused_without_a_draw(spec, pair):
    # No 64-bit bounded draw covers such a label range: both entry points
    # refuse it before drawing, where the draw loop would never end.
    rng = np.random.default_rng(86)
    before = rng.bit_generator.state
    # The shared check first, so that code without it fails here, not in a
    # draw loop that never ends.
    with pytest.raises(CapacityError, match="2\\^64"):
        coupling._valid_pair(spec, *pair)
    with pytest.raises(CapacityError, match="2\\^64"):
        coupled_step(spec, CoupledPair(*pair), rng)
    with pytest.raises(CapacityError, match="2\\^64"):
        run_coupled(spec, *pair, 1, rng)
    assert rng.bit_generator.state == before


def test_coupled_step_at_2_64_labels_runs():
    pair = CoupledPair((0, 2**64), (1, 2**64 - 1))
    got = coupled_step(PolyaLevel(2**64, 2, (1.0, 2.0)), pair, np.random.default_rng(87))
    assert sum(got.x) == sum(got.y) == 2**64 and got.x[0] <= got.y[0]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: type(spec).__name__)
def test_coupled_step_waits_for_the_generator_lock(spec):
    # A Generator method holds its bit generator's lock while it draws; a
    # coupled step takes the same lock, so it waits while another holder has it.
    pair = CoupledPair((0, 2, 6), (3, 3, 2))
    rng, twin = np.random.default_rng(79), np.random.default_rng(79)
    done = []
    worker = threading.Thread(target=lambda: done.append(coupled_step(spec, pair, rng)))
    with rng.bit_generator.lock:
        worker.start()
        worker.join(timeout=0.1)
        assert worker.is_alive() and not done
    worker.join(timeout=10)
    assert done == [coupled_step(spec, pair, twin)]
    assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# coupled_step validates its pair, and trusts only the pair it returned last
# ---------------------------------------------------------------------------

NINE_BALLS = CoupledPair((0, 0, 9), (4, 3, 2))


@pytest.mark.parametrize("spec, pair", [
    (Ehrenfest(8, 2, (0.3, 0.3, 0.4)), NINE_BALLS),
    (PolyaLevel(8, 2, (1.5, 2.0, 1.0)), NINE_BALLS),
    (PolyaUpDown(8, 2, (1.5, 2.0, 1.0)), NINE_BALLS),
    (MORAN, NINE_BALLS),
    (FAMILIES[1], CoupledPair((0, 0, 0, 8), (2, 2, 2, 2))),
    (FAMILIES[3], CoupledPair((3, 3, 2), (0, 2, 6))),
    (FAMILIES[4], CoupledPair((0, 0, 8), (3, True, 4))),
    (MORAN, CoupledPair((0, 2.0, 6), (3, 3, 2))),
], ids=["ehrenfest-9", "level-9", "updown-9", "moran-9", "d4-on-d3", "swapped",
        "bool", "float"])
def test_coupled_step_refuses_a_bad_pair_without_a_draw(spec, pair):
    rng = np.random.default_rng(80)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError):
        coupled_step(spec, pair, rng)
    assert rng.bit_generator.state == before
    assert rng.bit_generator.lock.acquire(blocking=False)
    rng.bit_generator.lock.release()


def test_coupled_step_takes_numpy_integers_and_returns_ints():
    x, y = (np.int64(0), np.int32(2), np.int64(6)), np.array([3, 3, 2])
    for spec in FAMILIES:
        got = coupled_step(spec, CoupledPair(x, y), np.random.default_rng(81))
        assert got == coupled_step(spec, CoupledPair((0, 2, 6), (3, 3, 2)),
                                   np.random.default_rng(81))
        assert all(type(c) is int for c in got.x + got.y)


def test_coupled_step_record_alternating_generators_and_specs():
    # Chains that share the one-slot record, call by call in a random order,
    # make the same pairs and leave their generators in the same states as
    # each chain run alone.
    specs = [FAMILIES[0], FAMILIES[2], FAMILIES[0], FAMILIES[4]]
    start = CoupledPair((0, 2, 6), (3, 3, 2))
    alone = []
    for seed, spec in enumerate(specs):
        rng, pair, pairs = np.random.default_rng(seed), start, []
        for _ in range(300):
            pair = coupled_step(spec, pair, rng)
            pairs.append(pair)
        alone.append((pairs, rng.bit_generator.state))
    rngs = [np.random.default_rng(seed) for seed in range(len(specs))]
    pairs = [start] * len(specs)
    got = [[] for _ in specs]
    order = np.random.default_rng(82).permutation(np.repeat(np.arange(len(specs)), 300))
    for k in order.tolist():
        pairs[k] = coupled_step(specs[k], pairs[k], rngs[k])
        got[k].append(pairs[k])
    assert [(g, r.bit_generator.state) for g, r in zip(got, rngs)] == alone


@pytest.mark.parametrize("other", [
    PolyaDownUp(9, 2, (1.5, 2.0, 1.0)),
    PolyaDownUp(8, 2, (1.5, 2.0, 1.0, 1.0)),
    MoranGeneral(9, delta_construction_matrix(0.05)),
], ids=["N", "d", "moran-N"])
def test_coupled_step_record_is_kept_per_spec(other):
    # The pair returned under one spec is not trusted under another.
    rng = np.random.default_rng(83)
    pair = coupled_step(FAMILIES[3], CoupledPair((0, 2, 6), (3, 3, 2)), rng)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError):
        coupled_step(other, pair, rng)
    assert rng.bit_generator.state == before


def test_coupled_step_record_trusts_only_its_own_pair(monkeypatch):
    calls = []
    real = coupling._valid_pair
    monkeypatch.setattr(coupling, "_valid_pair",
                        lambda spec, x, y: calls.append(1) or real(spec, x, y))
    spec, rng = FAMILIES[1], np.random.default_rng(84)
    pair = coupled_step(spec, CoupledPair((0, 2, 6), (3, 3, 2)), rng)
    assert len(calls) == 1
    pair = coupled_step(spec, pair, rng)
    assert len(calls) == 1
    for copy in (CoupledPair(*pair), tuple(pair), [list(pair.x), list(pair.y)]):
        coupled_step(spec, copy, np.random.default_rng(85))
    assert len(calls) == 4


def test_coupled_step_record_miss_refuses_a_matrix_meeting_no_condition():
    # A pair the record does not hold gets run_coupled's check: the matrix is
    # refused before any draw, and the record keeps the last good call.
    bad = MoranGeneral(6, MutationMatrix(NO_CONDITION))
    rng = np.random.default_rng(88)
    coupled_step(MORAN, CoupledPair((0, 2, 6), (3, 3, 2)), rng)
    record, before = coupling._last_coupled, rng.bit_generator.state
    for _ in range(2):
        with pytest.raises(ValidationError, match="monotonicity"):
            coupled_step(bad, CoupledPair((0, 0, 6), (2, 2, 2)), rng)
        assert rng.bit_generator.state == before
        assert coupling._last_coupled is record


def test_coupled_step_record_frees_the_last_generator():
    # numpy generators take no weak references, so the count of references
    # shows whether the record still holds the first one.
    first, second = np.random.default_rng(86), np.random.default_rng(87)
    bits = first.bit_generator
    baseline = sys.getrefcount(bits)
    pair = coupled_step(FAMILIES[0], CoupledPair((0, 2, 6), (3, 3, 2)), first)
    assert sys.getrefcount(bits) > baseline
    coupled_step(FAMILIES[0], pair, second)
    assert sys.getrefcount(bits) == baseline
