import dataclasses
import math
import sys
import threading
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from monochain import (
    CapacityError,
    Ehrenfest,
    MoranGeneral,
    MoranStandard,
    MutationMatrix,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
    UrnSpec,
    ValidationError,
    build_matrix,
    enumerate_states,
    model_eigendata,
    run_coupled,
    sample_step,
    spec_from_json,
    spec_to_json,
    transition_row,
)
from monochain import kernels
from monochain.kernels import _step_vectors, kernel_rows, pick_index, transition_prob
from monochain.statespace import compositions
from helpers import (
    BIT_GENERATORS,
    plain_state,
    random_dominated_matrix,
    random_positive_matrix,
    random_prob_vector,
    random_state,
)
from oracles import (
    ehrenfest_row_oracle,
    eigen_residual,
    moran_row_oracle,
    polya_row_oracle,
    sample_step_reference,
)

M2 = MutationMatrix([[0.9, 0.1], [0.2, 0.8]])


def test_moran_row_two_species_case():
    # Direct substitution: K((1,1), (2,0)) = (1/2)(0.5*0.9 + 0.5*0.2) = 0.275, etc.
    row = transition_row(MoranGeneral(2, M2), (1, 1))
    assert row == pytest.approx({(2, 0): 0.275, (0, 2): 0.225, (1, 1): 0.5})


def test_moran_row_against_label_enumeration():
    m = [[0.5, 0.3, 0.2], [0.25, 0.55, 0.2], [0.05, 0.0, 0.95]]
    spec = MoranGeneral(3, MutationMatrix(m))
    m_frac = [[Fraction(str(v)) for v in row] for row in m]
    for x in enumerate_states(3, 3):
        closed = transition_row(spec, x)
        oracle = moran_row_oracle(x, m_frac)
        for succ in set(closed) | set(oracle):
            assert closed.get(succ, 0.0) == pytest.approx(
                float(oracle.get(succ, Fraction(0))), abs=1e-14
            )


def test_absorbing_row_requires_reducible_matrix():
    # A last row e_d would make the bottom state absorbing, but such a matrix
    # is reducible and rejected at construction.
    with pytest.raises(ValidationError, match="reducible"):
        MutationMatrix([[0.7, 0.1, 0.2], [0.2, 0.6, 0.2], [0.0, 0.0, 1.0]])


def test_rows_sum_to_one_random_cases():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        spec = MoranGeneral(n, random_positive_matrix(rng, d))
        x = random_state(rng, n, d)
        row = transition_row(spec, x)
        assert math.fsum(row.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in row.values())
        assert all(sum(y) == n and min(y) >= 0 for y in row)


def test_standard_rows_match_general_expansion():
    rng = np.random.default_rng(4)
    spec = MoranStandard(5, 0.6, (0.3, 0.2, 0.5))
    general = MoranGeneral(spec.N, spec.M)
    for _ in range(20):
        x = random_state(rng, 5, 3)
        assert transition_row(spec, x) == transition_row(general, x)


def test_ehrenfest_full_redistribution_forgets_state():
    spec = Ehrenfest(3, 3, (0.5, 0.25, 0.25))
    rows = [transition_row(spec, x) for x in enumerate_states(3, 3)]
    for other in rows[1:]:
        assert other.keys() == rows[0].keys()
        for succ in rows[0]:
            assert other[succ] == pytest.approx(rows[0][succ], abs=1e-14)


def test_ehrenfest_two_urn_case():
    row = transition_row(Ehrenfest(2, 1, (0.5, 0.5)), (2, 0))
    assert row == pytest.approx({(2, 0): 0.5, (1, 1): 0.5})


def test_polya_level_single_ball_case():
    # Remove the one ball, add with weights (alpha + x) / 3: 2/3 vs 1/3.
    row = transition_row(PolyaLevel(1, 1, (1.0, 1.0)), (1, 0))
    assert row == pytest.approx({(1, 0): 2 / 3, (0, 1): 1 / 3})


def test_polya_downup_full_swap_forgets_state():
    spec = PolyaDownUp(3, 3, (1.0, 2.0))
    rows = [transition_row(spec, x) for x in enumerate_states(3, 2)]
    for other in rows[1:]:
        for succ in rows[0]:
            assert other[succ] == pytest.approx(rows[0][succ], abs=1e-14)


@pytest.mark.parametrize("kind,ctor", [
    ("level", PolyaLevel),
    ("updown", PolyaUpDown),
    ("downup", PolyaDownUp),
])
def test_polya_rows_match_ordered_draw_oracle(kind, ctor):
    alpha = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    spec = ctor(3, 2, tuple(float(a) for a in alpha))
    for x in enumerate_states(3, 3):
        closed = transition_row(spec, x)
        oracle = polya_row_oracle(kind, x, 2, alpha)
        assert set(closed) == {k for k, v in oracle.items() if v > 0}
        for succ, pr in oracle.items():
            assert closed.get(succ, 0.0) == pytest.approx(float(pr), abs=1e-13)


def test_ehrenfest_rows_match_ordered_draw_oracle():
    p = (Fraction(1, 4), Fraction(3, 4))
    spec = Ehrenfest(3, 2, tuple(float(v) for v in p))
    for x in enumerate_states(3, 2):
        closed = transition_row(spec, x)
        oracle = ehrenfest_row_oracle(x, 2, p)
        for succ, pr in oracle.items():
            assert closed.get(succ, 0.0) == pytest.approx(float(pr), abs=1e-13)


def test_transition_prob_matches_row_entries():
    # One entry by its paths against the whole row, at every state of small
    # specs of each family, including successors the row does not reach.
    specs = [
        MoranGeneral(4, random_dominated_matrix(np.random.default_rng(8), 3)),
        MoranStandard(4, 0.4, (0.3, 0.2, 0.5)),
        PolyaLevel(5, 2, (1.0, 2.0, 1.5)),
        PolyaUpDown(5, 3, (1.0, 2.0, 1.5)),
        PolyaDownUp(5, 2, (0.5, 2.0, 1.5)),
        Ehrenfest(5, 3, (0.25, 0.35, 0.4)),
    ]
    for spec in specs:
        states = enumerate_states(spec.N, spec.d)
        for x in states:
            row = transition_row(spec, x)
            for z in states:
                assert transition_prob(spec, x, z) == pytest.approx(row.get(z, 0.0), abs=1e-15)


def test_moran_transition_prob_equals_row_entries_exactly():
    # The scalar path sum and the batched row form the same products in the
    # same order, so every entry is equal, not just close, including the
    # stay and the successors no path reaches.
    rng = np.random.default_rng(41)
    for d in range(2, 6):
        for _ in range(4):
            n = int(rng.integers(1, 9))
            # Zero entries off a cycle keep it irreducible, and leave paths with probability 0.
            sparse = rng.random((d, d)) * (rng.random((d, d)) < 0.4)
            sparse[np.arange(d), (np.arange(d) + 1) % d] += 0.5
            m = MutationMatrix(sparse / sparse.sum(axis=1, keepdims=True))
            states = enumerate_states(n, d)
            for spec in (MoranGeneral(n, m), MoranGeneral(n, random_dominated_matrix(rng, d)),
                         MoranStandard(n, 0.3, random_prob_vector(rng, d))):
                for k in rng.choice(len(states), size=min(len(states), 12), replace=False):
                    x = states[k]
                    row = transition_row(spec, x)
                    for z in states:
                        assert transition_prob(spec, x, z) == row.get(z, 0.0), (spec, x, z)


def test_moran_transition_prob_at_zero_stay_and_out_of_reach():
    # From (1, 0) the only individual dies and its offspring always mutates:
    # every path moves, so the stay mass is 0 and the row holds no stay entry.
    spec = MoranGeneral(1, MutationMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert transition_row(spec, (1, 0)) == {(0, 1): 1.0}
    assert transition_prob(spec, (1, 0), (1, 0)) == 0.0
    assert transition_prob(spec, (1, 0), (0, 1)) == 1.0
    # One Moran step moves one individual: x + e0 - e1 + e2 - e3 is two moves away.
    spec = MoranGeneral(8, random_positive_matrix(np.random.default_rng(42), 4))
    x = (2, 2, 2, 2)
    assert transition_prob(spec, x, (3, 1, 3, 1)) == 0.0
    assert (3, 1, 3, 1) not in transition_row(spec, x)


def test_step_vectors_are_shared_and_read_only():
    _step_vectors.cache_clear()
    spec = PolyaDownUp(5, 2, (0.5, 2.0, 1.5))
    x = (1, 2, 2)
    transition_prob(spec, x, (2, 1, 2))
    transition_prob(spec, x, (0, 0, 5))
    next(kernel_rows(spec, np.array([x])))
    info = _step_vectors.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    comps = _step_vectors(2, 3)
    assert not comps.flags.writeable
    with pytest.raises(ValueError):
        comps[0, 0] = 1
    assert np.array_equal(comps, compositions(2, 3))
    # The enumerator itself caches nothing: state arrays stay fresh and writable.
    fresh = compositions(2, 3)
    assert fresh.flags.writeable and fresh is not compositions(2, 3)


def test_bisect_on_partial_sums_matches_pick_index():
    """bisect_left on the precomputed partial sums is pick_index for fixed weights.

    Checked on random uniforms, on each exact partial-sum value (ties go to
    the lower index), just past it, and at and beyond the float total (the
    fall-through to the last index).
    """
    rng = np.random.default_rng(31)
    weight_sets = [row for d in range(2, 8) for row in random_positive_matrix(rng, d).rows]
    weight_sets += [(0.3, 0.3, 0.4), (0.1,) * 10, (0.5, 0.0, 0.5), (1.0, 1e-300, 1e-17)]
    weight_sets += [Ehrenfest(5, 1, random_prob_vector(rng, d)).weights for d in (2, 5)]
    for w in weight_sets:
        cum = tuple(accumulate(w[:-1]))
        total = math.fsum(w)
        vs = list(rng.random(500) * total) + [0.0, total, sum(w), 1.0, 1.0 + 1e-12, 2.0]
        vs += list(cum) + [math.nextafter(c, math.inf) for c in cum]
        vs += [math.nextafter(c, -math.inf) for c in cum]
        for v in vs:
            assert bisect_left(cum, v) == pick_index(v, w), (w, v)
    # The specs keep exactly those partial sums.
    m = random_positive_matrix(rng, 4)
    assert m.cum_rows == tuple(tuple(accumulate(row[:-1])) for row in m.rows)
    spec = Ehrenfest(5, 2, (0.3, 0.3, 0.4))
    assert spec.cum_weights == tuple(accumulate(spec.weights[:-1]))


def test_sample_step_deterministic_given_seed():
    spec = PolyaUpDown(6, 2, (1.0, 2.0, 0.5))
    x = (2, 3, 1)
    out1 = [sample_step(spec, x, np.random.default_rng(11)) for _ in range(5)]
    out2 = [sample_step(spec, x, np.random.default_rng(11)) for _ in range(5)]
    assert out1 == out2


SAMPLED = [
    MoranGeneral(12, random_dominated_matrix(np.random.default_rng(5), 4)),
    MoranStandard(12, 0.6, (0.3, 0.2, 0.1, 0.4)),
    PolyaLevel(12, 3, (1.5, 2.0, 1.0, 0.5)),
    PolyaUpDown(12, 3, (1.5, 2.0, 1.0, 0.5)),
    PolyaDownUp(12, 3, (1.5, 2.0, 1.0, 0.5)),
    Ehrenfest(12, 3, (0.3, 0.2, 0.1, 0.4)),
]
SAMPLED_IDS = ["moran_general", "moran_standard", "polya_level", "polya_updown",
               "polya_downup", "ehrenfest"]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_sample_step_draws_match_the_generator_reference(bit_generator):
    # The sampler reads its uniforms off the bit stream; the reference reads
    # them through rng.random().  Same states, same generator state after.
    for seed, spec in enumerate(SAMPLED):
        rng = np.random.Generator(bit_generator(seed))
        twin = np.random.Generator(bit_generator(seed))
        x = ref = (0, 3, 4, 5)
        for _ in range(2_000):
            x = sample_step(spec, x, rng)
            ref = sample_step_reference(spec, ref, twin)
            assert x == ref, spec
        assert plain_state(rng.bit_generator.state) == plain_state(twin.bit_generator.state)


@pytest.mark.parametrize("spec", SAMPLED, ids=SAMPLED_IDS)
def test_sample_step_waits_for_the_generator_lock(spec):
    # A Generator method holds its bit generator's lock while it draws; the
    # sampler takes the same lock, so it waits while another holder has it.
    x = (0, 3, 4, 5)
    rng, twin = np.random.default_rng(79), np.random.default_rng(79)
    done = []
    worker = threading.Thread(target=lambda: done.append(sample_step(spec, x, rng)))
    with rng.bit_generator.lock:
        worker.start()
        worker.join(timeout=0.1)
        assert worker.is_alive() and not done
    worker.join(timeout=10)
    assert done == [sample_step(spec, x, twin)]
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.bit_generator.lock.acquire(blocking=False)
    rng.bit_generator.lock.release()


def test_sample_step_record_alternating_generators_and_specs():
    # Chains that share the one-slot record, call by call in a random order,
    # reach the same states and leave their generators in the same states as
    # each chain run alone.
    specs = [SAMPLED[0], SAMPLED[3], SAMPLED[0], SAMPLED[5]]
    start = (0, 3, 4, 5)
    alone = []
    for seed, spec in enumerate(specs):
        rng, x, states = np.random.default_rng(seed), start, []
        for _ in range(300):
            x = sample_step(spec, x, rng)
            states.append(x)
        alone.append((states, rng.bit_generator.state))
    rngs = [np.random.default_rng(seed) for seed in range(len(specs))]
    xs = [start] * len(specs)
    got = [[] for _ in specs]
    order = np.random.default_rng(82).permutation(np.repeat(np.arange(len(specs)), 300))
    for k in order.tolist():
        xs[k] = sample_step(specs[k], xs[k], rngs[k])
        got[k].append(xs[k])
    assert [(g, r.bit_generator.state) for g, r in zip(got, rngs)] == alone


@pytest.mark.parametrize("other", [
    PolyaDownUp(13, 3, (1.5, 2.0, 1.0, 0.5)),
    PolyaDownUp(12, 3, (1.5, 2.0, 1.0)),
    MoranStandard(11, 0.6, (0.3, 0.2, 0.1, 0.4)),
], ids=["N", "d", "moran-N"])
def test_sample_step_record_is_kept_per_spec(other):
    # The state returned under one spec is not trusted under another.
    rng = np.random.default_rng(83)
    x = sample_step(SAMPLED[4], (0, 3, 4, 5), rng)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError):
        sample_step(other, x, rng)
    assert rng.bit_generator.state == before


def test_sample_step_record_trusts_only_its_own_state(monkeypatch):
    calls = []
    real = kernels.validate_composition
    monkeypatch.setattr(kernels, "validate_composition",
                        lambda x, n, d: calls.append(1) or real(x, n, d))
    spec, rng = SAMPLED[2], np.random.default_rng(84)
    x = sample_step(spec, (0, 3, 4, 5), rng)
    assert len(calls) == 1
    x = sample_step(spec, x, rng)
    assert len(calls) == 1
    for copy in (tuple(list(x)), list(x)):
        sample_step(spec, copy, np.random.default_rng(85))
    assert len(calls) == 3


def test_sample_step_record_frees_the_last_generator():
    # numpy generators take no weak references, so the count of references
    # shows whether the record still holds the first one.
    first, second = np.random.default_rng(86), np.random.default_rng(87)
    bits = first.bit_generator
    baseline = sys.getrefcount(bits)
    x = sample_step(SAMPLED[0], (0, 3, 4, 5), first)
    assert sys.getrefcount(bits) > baseline
    sample_step(SAMPLED[0], x, second)
    assert sys.getrefcount(bits) == baseline


def _empirical_tv(spec, x, n, seed):
    rng = np.random.default_rng(seed)
    counts: dict = {}
    for _ in range(n):
        y = sample_step(spec, x, rng)
        counts[y] = counts.get(y, 0) + 1
    row = transition_row(spec, x)
    support = set(counts) | set(row)
    return 0.5 * sum(abs(counts.get(z, 0) / n - row.get(z, 0.0)) for z in support)


def test_sample_step_matches_moran_row_statistically():
    m = [[0.5, 0.3, 0.2], [0.25, 0.55, 0.2], [0.05, 0.0, 0.95]]
    spec = MoranGeneral(4, MutationMatrix(m))
    assert _empirical_tv(spec, (1, 2, 1), 100_000, seed=6) <= 0.01


@pytest.mark.parametrize("spec,x", [
    (PolyaLevel(4, 2, (1.5, 2.0, 1.0)), (0, 1, 3)),
    (PolyaUpDown(4, 2, (1.5, 2.0, 1.0)), (2, 2, 0)),
    (PolyaDownUp(4, 2, (1.5, 2.0, 1.0)), (1, 2, 1)),
    (Ehrenfest(4, 2, (0.3, 0.3, 0.4)), (0, 2, 2)),
    (MoranStandard(4, 0.6, (0.3, 0.2, 0.5)), (1, 0, 3)),
])
def test_sample_step_matches_rows_statistically(spec, x):
    assert _empirical_tv(spec, x, 30_000, seed=7) <= 0.02


def test_spec_json_roundtrip():
    specs = [
        MoranGeneral(4, M2),
        MoranStandard(10, 0.7, (0.2, 0.3, 0.5)),
        PolyaLevel(5, 2, (1.0, 2.0)),
        PolyaUpDown(5, 1, (1.0, 2.0)),
        PolyaDownUp(5, 2, (1.0, 2.0)),
        Ehrenfest(6, 3, (0.25, 0.75)),
    ]
    for spec in specs:
        doc = spec_to_json(spec)
        back = spec_from_json(doc)
        assert spec_to_json(back) == doc


def test_spec_validation_errors():
    with pytest.raises(ValidationError):
        MoranStandard(5, 0.0, (0.5, 0.5))  # m must be > 0
    with pytest.raises(ValidationError):
        MoranStandard(5, 0.5, (0.5, 0.6))  # p must sum to 1
    with pytest.raises(ValidationError):
        PolyaLevel(5, 6, (1.0, 1.0))  # s > N
    with pytest.raises(ValidationError):
        Ehrenfest(5, 0, (0.5, 0.5))  # s < 1
    with pytest.raises(ValidationError):
        PolyaDownUp(5, 1, (1.0, -1.0))  # negative weight
    with pytest.raises(ValidationError):
        MutationMatrix([[1.0, 0.1], [0.2, 0.8]])  # row sum off
    with pytest.raises(ValidationError):
        spec_from_json({"model": "nope", "N": 3})
    with pytest.raises(ValidationError):
        transition_row(MoranGeneral(3, M2), (1, 1))  # wrong total
    # N and s must be integers: no float, bool or numeric string is coerced.
    for bad in (8.0, 8.7, True, "8"):
        with pytest.raises(ValidationError, match="must be an integer"):
            MoranGeneral(bad, M2)
        with pytest.raises(ValidationError, match="must be an integer"):
            spec_from_json({"model": "moran_standard", "N": bad, "m": 0.5, "p": [0.5, 0.5]})
        with pytest.raises(ValidationError, match="must be an integer"):
            spec_from_json({"model": "ehrenfest", "N": bad, "s": 1, "p": [0.5, 0.5]})
    for bad in (1.0, 1.5, True, "1"):
        with pytest.raises(ValidationError, match="must be an integer"):
            PolyaLevel(5, bad, (1.0, 1.0))
        with pytest.raises(ValidationError, match="must be an integer"):
            spec_from_json({"model": "polya_updown", "N": 5, "s": bad, "alpha": [1.0, 2.0]})
    # numpy integers are integers.
    spec = spec_from_json({"model": "polya_downup", "N": np.int64(5), "s": np.int32(2),
                           "alpha": [1.0, 2.0]})
    assert spec == PolyaDownUp(5, 2, (1.0, 2.0)) and type(spec.N) is int
    # Weights, p and m must be real numbers: no string or bool is coerced.
    for bad in ("1", True, None):
        with pytest.raises(ValidationError, match="must be a real number"):
            PolyaLevel(5, 1, (bad, 2.0))
        with pytest.raises(ValidationError, match="must be a real number"):
            spec_from_json({"model": "polya_level", "N": 5, "s": 1, "alpha": [1.0, bad]})
        with pytest.raises(ValidationError, match="must be a real number"):
            spec_from_json({"model": "ehrenfest", "N": 5, "s": 1, "p": [bad, 0.5]})
        with pytest.raises(ValidationError, match="must be a real number"):
            spec_from_json({"model": "moran_standard", "N": 5, "m": 0.5, "p": [0.5, bad]})
    for bad in ("0.5", True, np.True_, None):
        with pytest.raises(ValidationError, match="must be a real number"):
            spec_from_json({"model": "moran_standard", "N": 5, "m": bad, "p": [0.5, 0.5]})
        with pytest.raises(ValidationError, match="must be a real number"):
            MoranStandard(5, bad, (0.5, 0.5))
    with pytest.raises(ValidationError, match="must be a real number"):
        spec_from_json({"model": "polya_level", "N": 5, "s": 1, "alpha": ["1", "2"]})
    with pytest.raises(ValidationError, match="must be a real number"):
        spec_from_json({"model": "polya_downup", "N": 5, "s": 1, "alpha": "12"})
    # Ints and numpy reals are real numbers, stored as float.
    spec = PolyaLevel(5, 1, (1, np.float32(2.5), np.int64(3)))
    assert spec.weights == (1.0, 2.5, 3.0) and all(type(w) is float for w in spec.weights)
    spec = spec_from_json({"model": "moran_standard", "N": 5, "m": 1, "p": [np.float64(0.5), 0.5]})
    assert spec == MoranStandard(5, 1.0, (0.5, 0.5)) and type(spec.m) is float
    for bad in ("0.5", True):
        with pytest.raises(ValidationError, match="must be a real number"):
            spec_from_json({"model": "moran_general", "N": 5,
                            "mutation_matrix": [[0.5, 0.5], [bad, 0.5]]})
    assert MutationMatrix(np.array([[0.5, 0.5], [0.25, 0.75]])).rows[1] == (0.25, 0.75)
    # NaN and infinite entries are not valid weights, probabilities or rates.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="must be positive and finite"):
            PolyaLevel(5, 1, (bad, 1.0))
        with pytest.raises(ValidationError, match="must be positive and finite"):
            Ehrenfest(5, 1, (bad, 0.5))
        with pytest.raises(ValidationError):
            MutationMatrix([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            MoranStandard(5, bad, (0.5, 0.5))


def test_urn_constructors_share_one_spec():
    families = {
        "polya_level": PolyaLevel(5, 2, (1.0, 2.0)),
        "polya_updown": PolyaUpDown(5, 2, (1.0, 2.0)),
        "polya_downup": PolyaDownUp(5, 2, (1.0, 2.0)),
        "ehrenfest": Ehrenfest(5, 2, (0.25, 0.75)),
    }
    for tag, spec in families.items():
        assert isinstance(spec, UrnSpec)
        assert spec_to_json(spec)["model"] == tag
        assert UrnSpec(spec.N, spec.s, spec.weights, spec.order, spec.reinforced) == spec
    assert len(set(families.values())) == 4
    for order, reinforced in [("level", False), ("updown", False), ("sideways", True)]:
        with pytest.raises(ValidationError, match="no urn family"):
            UrnSpec(5, 2, (0.25, 0.75), order, reinforced)
    with pytest.raises(ValidationError, match="must sum to 1"):
        Ehrenfest(5, 2, (1.0, 2.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_addition_laws_beyond_the_float_range_raise_capacity_error():
    # (4.98e189)^2 overflows, and inf / inf is NaN.
    spec = PolyaUpDown(10, 2, (4.98e189, 1.46e-110, 1.53e-93))
    with pytest.raises(CapacityError, match="beyond the float range"):
        transition_row(spec, (0, 0, 10))
    with pytest.raises(CapacityError, match="beyond the float range"):
        transition_prob(spec, (0, 0, 10), (1, 0, 9))
    # (7e-119)^5 underflows to 0, a probability no longer > 0.
    spec = Ehrenfest(8, 5, (3.4e-83, 1.0, 7.0e-119))
    with pytest.raises(CapacityError, match="beyond the float range"):
        transition_row(spec, (0, 0, 8))
    with pytest.raises(CapacityError, match="beyond the float range"):
        transition_prob(spec, (0, 0, 8), (0, 0, 8))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_path_products_below_the_float_range_raise_capacity_error():
    # From (51, 9), removing two balls of species 1 (0.02) and adding two of
    # species 0 (about 1e-322, subnormal) are both positive; their product is 0.0.
    spec = Ehrenfest(60, 2, (1e-161, 1.0))
    with pytest.raises(CapacityError, match=r"^row from \(51, 9\) .*float range"):
        build_matrix(spec)
    with pytest.raises(CapacityError, match="float range"):
        transition_row(spec, (51, 9))


def test_specs_stay_frozen():
    # The one-slot records of sample_step and coupled_step trust `spec is last_spec`.
    specs = [
        MoranGeneral(4, M2),
        MoranStandard(10, 0.7, (0.2, 0.3, 0.5)),
        PolyaLevel(5, 2, (1.0, 2.0)),
        Ehrenfest(6, 3, (0.25, 0.75)),
    ]
    for spec in specs:
        n = spec.N
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.N = n + 1
        assert spec.N == n
    with pytest.raises(dataclasses.FrozenInstanceError):
        specs[2].weights = (2.0, 1.0)


def test_standard_spec_and_its_general_twin_agree():
    # A standard spec is the general chain with its own matrix M: every
    # consumer gives the same bits for both.
    spec = MoranStandard(6, 0.4, (0.3, 0.2, 0.5))
    assert spec == MoranStandard(6, 0.4, (0.3, 0.2, 0.5))
    assert "MutationMatrix" not in repr(spec)
    p = np.array([0.3, 0.2, 0.5])
    expected = (1.0 - 0.4) * np.eye(3) + 0.4 * np.tile(p, (3, 1))
    assert np.array_equal(spec.M.matrix, expected)
    twin = MoranGeneral(spec.N, spec.M)

    a, b = build_matrix(spec).csr, build_matrix(twin).csr
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    states = enumerate_states(6, 3)
    for x in states:
        for z in states:
            assert transition_prob(spec, x, z) == transition_prob(twin, x, z)
    chains = []
    for s in (spec, twin):
        rng, x, chain = np.random.default_rng(91), (0, 1, 5), []
        for _ in range(500):
            x = sample_step(s, x, rng)
            chain.append(x)
        chains.append((chain, rng.bit_generator.state))
    assert chains[0] == chains[1]
    runs = [run_coupled(s, (0, 1, 5), (3, 2, 1), 400, np.random.default_rng(92))
            for s in (spec, twin)]
    assert runs[0] == runs[1]
    ed = model_eigendata(spec)
    assert eigen_residual(spec, ed, states) == eigen_residual(twin, ed, states)
