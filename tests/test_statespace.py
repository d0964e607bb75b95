import itertools
import math

import numpy as np
import pytest

from monochain import (
    CapacityError,
    PolyaLevel,
    ValidationError,
    enumerate_states,
    minimal_element,
    partial_leq,
    run_coupled,
    sample_step,
    state_count,
    validate_composition,
)
from monochain.statespace import compositions, ranks, state_array


def test_enumerate_tiny_cases():
    assert enumerate_states(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert enumerate_states(0, 3) == [(0, 0, 0)]


def test_enumerate_counts_and_distinctness():
    for n, d in [(4, 3), (6, 4), (5, 2), (0, 2)]:
        states = enumerate_states(n, d)
        assert len(states) == state_count(n, d) == math.comb(n + d - 1, n)
        assert len(set(states)) == len(states)
        assert all(sum(x) == n and len(x) == d for x in states)


def test_enumerate_is_colex_on_prefix():
    states = enumerate_states(3, 3)
    prefixes = [x[:-1] for x in states]
    # Colex: the reversed prefix compares lexicographically.
    assert prefixes == sorted(prefixes, key=lambda p: p[::-1])


def test_cap_rejection_names_size():
    # C(104, 100) computed by exact binomial arithmetic.
    assert state_count(100, 5) == 4_598_126
    with pytest.raises(CapacityError, match="state space too large.*4598126"):
        enumerate_states(100, 5)
    # Cap is configurable.
    assert len(enumerate_states(10, 3, cap=None)) == 66


def test_rank_unrank_roundtrip_exhaustive():
    # (44, 3) and (17, 4) are the exact benchmark's state spaces.  A state's
    # rank is its row in state_array.
    for n, d in [(4, 3), (2, 2), (5, 4), (0, 3), (44, 3), (17, 4)]:
        states = state_array(n, d)
        assert ranks(states, n).tolist() == list(range(state_count(n, d)))


def test_compositions_match_filtered_product():
    for total in range(7):
        for parts in range(2, 6):
            expected = [c for c in itertools.product(range(total + 1), repeat=parts)
                        if sum(c) == total]
            got = compositions(total, parts)
            assert got.dtype == np.int64
            assert list(map(tuple, got.tolist())) == expected, (total, parts)


def test_rank_unrank_endpoints():
    assert ranks(np.array([(0, 2), (2, 0)]), 2).tolist() == [0, 2]
    assert state_array(2, 2)[2].tolist() == [2, 0]


def test_rank_unrank_exact_at_large_scale():
    # Integer binomials keep ranking exact at N = 100: every row of the
    # 176,851-state space at d = 4, and the end states of the 4,598,126-state
    # space at d = 5, beyond the enumeration cap; no floats in the index
    # arithmetic.
    n = 100
    states = state_array(n, 4)
    assert ranks(states, n).tolist() == list(range(state_count(n, 4)))
    ends = np.array([(0, 0, 0, 0, n), (0, 0, 0, n, 0)])
    assert ranks(ends, n).tolist() == [0, state_count(n, 5) - 1]


def test_partial_order_axioms_exhaustive():
    states = enumerate_states(5, 3)
    prefix = np.array([x[:-1] for x in states])
    leq = np.all(prefix[:, None, :] <= prefix[None, :, :], axis=2)
    # Reflexive.
    assert np.all(np.diag(leq))
    # Antisymmetric.
    both = leq & leq.T
    assert np.array_equal(both, np.eye(len(states), dtype=bool))
    # Transitive: reachability adds nothing.
    closure = (leq.astype(int) @ leq.astype(int)) > 0
    assert np.all(leq[closure])
    # Matches the scalar implementation.
    for i, x in enumerate(states):
        for j, y in enumerate(states):
            assert partial_leq(x, y) == bool(leq[i, j])


def test_partial_leq_examples():
    assert partial_leq((1, 5, 7, 4), (2, 5, 8, 2))
    x = (2, 0, 1)
    assert partial_leq(x, x)
    assert not partial_leq((2, 0, 1), (0, 2, 1))
    assert not partial_leq((0, 2, 1), (2, 0, 1))


def test_partial_leq_rejects_mismatch():
    with pytest.raises(ValidationError):
        partial_leq((1, 1), (1, 1, 0))
    with pytest.raises(ValidationError):
        partial_leq((1, 1), (2, 1))


def test_minimal_element_dominates_everything():
    assert minimal_element(3, 3) == (0, 0, 3)
    assert minimal_element(0, 2) == (0, 0)
    bottom = minimal_element(4, 3)
    states = enumerate_states(4, 3)
    assert all(partial_leq(bottom, x) for x in states)
    # No other state is below all states.
    for x in states:
        if x != bottom:
            assert not all(partial_leq(x, y) for y in states)


# Inputs the plain-int fast path of validate_composition must treat as the
# general path does, at N = 8, d = 3: (input, phrase of the refusal).
REFUSED_COMPOSITIONS = [
    ((True, 7, 0), "must be integers"),
    ((1.0, 7, 0), "must be integers"),
    ((-1, 9, 0), "must be >= 0"),
    ((8,), "at least 2 parts"),
    ((1, 7, 0, 0), "expected d=3"),
    ((1, 6, 0), "expected N=8"),
]


@pytest.mark.parametrize("x, phrase", REFUSED_COMPOSITIONS)
def test_invalid_compositions_refused_everywhere(x, phrase):
    spec = PolyaLevel(8, 2, (1.5, 2.0, 1.0))
    with pytest.raises(ValidationError, match=phrase):
        validate_composition(x, 8, 3)
    with pytest.raises(ValidationError, match=phrase):
        sample_step(spec, x, np.random.default_rng(0))
    with pytest.raises(ValidationError, match=phrase):
        run_coupled(spec, (0, 0, 8), x, 5, np.random.default_rng(0))


@pytest.mark.parametrize("x", [(np.int64(1), 7, 0), np.array([1, 7, 0])])
def test_numpy_integer_compositions_become_ints(x):
    out = validate_composition(x, 8, 3)
    assert out == (1, 7, 0) and type(out) is tuple
    assert all(type(c) is int for c in out)
    spec = PolyaLevel(8, 2, (1.5, 2.0, 1.0))
    step = sample_step(spec, x, np.random.default_rng(0))
    assert step == sample_step(spec, (1, 7, 0), np.random.default_rng(0))
    assert all(type(c) is int for c in step)
    (pair,), coal = run_coupled(spec, x, (1, 7, 0), 5, np.random.default_rng(0))
    assert coal == 0 and all(type(c) is int for c in pair.x)
