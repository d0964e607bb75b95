"""Shared generators for randomized tests: valid specs and mutation matrices."""
from __future__ import annotations

import numpy as np

from monochain import (
    Ehrenfest,
    MoranGeneral,
    MoranStandard,
    MutationMatrix,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
)


def random_prob_vector(rng, d: int) -> tuple[float, ...]:
    v = rng.random(d) + 0.05
    return tuple(v / v.sum())


def random_positive_matrix(rng, d: int) -> MutationMatrix:
    """Strictly positive rows: irreducible and aperiodic for free."""
    m = rng.random((d, d)) + 0.05
    m /= m.sum(axis=1, keepdims=True)
    return MutationMatrix(m)


def random_dominated_matrix(rng, d: int) -> MutationMatrix:
    """Strictly positive matrix whose last row is scaled below the others.

    Shrinking the last row's first d-1 entries under the columnwise minimum
    of the other rows enforces the strict domination condition.
    """
    m = rng.random((d, d)) + 0.1
    m /= m.sum(axis=1, keepdims=True)
    col_min = m[: d - 1, : d - 1].min(axis=0)
    scale = rng.uniform(0.2, 0.8)
    last = col_min * scale * rng.uniform(0.3, 1.0, size=d - 1)
    m[d - 1, : d - 1] = last
    m[d - 1, d - 1] = 1.0 - last.sum()
    return MutationMatrix(m)


def delta_construction_matrix(delta: float = 0.05) -> MutationMatrix:
    """d=3 matrix with last row (delta, 0, 1-delta) and large entries elsewhere.

    Satisfies both the strict and the weak+irreducible domination conditions.
    """
    return MutationMatrix([
        [0.50, 0.30, 0.20],
        [0.30, 0.55, 0.15],
        [delta, 0.00, 1.0 - delta],
    ])


def random_model(rng, n_max: int = 6, d_max: int = 4):
    """One random valid spec drawn across the five families."""
    family = rng.integers(0, 6)
    d = int(rng.integers(2, d_max + 1))
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(1, n + 1))
    alpha = tuple(float(a) for a in rng.uniform(0.4, 3.0, size=d))
    if family == 0:
        return MoranGeneral(n, random_dominated_matrix(rng, d))
    if family == 1:
        return MoranStandard(n, float(rng.uniform(0.1, 1.0)), random_prob_vector(rng, d))
    if family == 2:
        return PolyaLevel(n, s, alpha)
    if family == 3:
        return PolyaUpDown(n, s, alpha)
    if family == 4:
        return PolyaDownUp(n, s, alpha)
    return Ehrenfest(n, s, random_prob_vector(rng, d))


def random_state(rng, n: int, d: int) -> tuple[int, ...]:
    cuts = np.sort(rng.integers(0, n + 1, size=d - 1))
    bounds = np.concatenate(([0], cuts, [n]))
    return tuple(int(b - a) for a, b in zip(bounds[:-1], bounds[1:]))


def random_ordered_pair(rng, n: int, d: int):
    """Random (x, y) with x dominated by y: push mass of x's prefix into the last part."""
    y = random_state(rng, n, d)
    x = list(y)
    for i in range(d - 1):
        if x[i]:
            drop = int(rng.integers(0, x[i] + 1))
            x[i] -= drop
            x[d - 1] += drop
    return tuple(x), y


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64, np.random.PCG64DXSM]


def plain_state(state):
    """A bit generator's state with its arrays as lists, comparable with ==."""
    if isinstance(state, dict):
        return {key: plain_state(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state
