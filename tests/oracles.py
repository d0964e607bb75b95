"""Brute-force oracles: exact-rational row distributions from ordered draws,
stationary laws by a sparse direct solve, and the checks only the tests run.

The row oracles enumerate every ordered (ball-label, destination) sequence of
one urn step and accumulate Fraction probabilities, staying deliberately
independent of the closed-form rows in the package (no hypergeometric or
Dirichlet-multinomial formulas here).  The stationary oracle solves the
linear system instead of iterating, so it shares no start, stop rule or
closed form with the package's power iteration; for kernels with no closed
form the package runs the same solve.  The Perron oracle is the reduced
matrix's power iteration as first written, on numpy arrays throughout, and
the scalar Moran row is the one-state row builder as first written.  The
coupled urn additions, and the reference sampler, draw through Generator
methods, not the bit stream.  The closed-form stationary laws are products of
rising factorials, not the package's log-gamma tables; the eigen residual reads
the kernel rows; the monotonicity audit is a randomized search for a witness
pair, not a proof.  ``minimal_element`` writes out the lattice minimum, which
no package path forms.  ``path_sum_csr`` is the one-CSR kernel of summed
paths, which build_matrix no longer forms for the down-up urns.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from monochain import (
    Composition,
    PerronConvergenceError,
    UrnSpec,
    ValidationError,
    dominated_pick,
    validate_composition,
)
from monochain.kernels import kernel_rows, pick_index
from monochain.statespace import ranks, state_array


def species_of_labels(x) -> list[int]:
    """Label -> urn map: urn blocks in order, one label per ball."""
    out: list[int] = []
    for sp, cnt in enumerate(x):
        out += [sp] * cnt
    return out


def pair_labels(x, y, added=()) -> tuple[list[int], list[int]]:
    """Explicit shared labelling of an ordered pair x <= y, one entry per label.

    Population 1 is species_of_labels(x).  Population 2 keeps population 1's
    species on the labels below the cut N - x_d + y_d and puts its surplus
    individuals (y_i - x_i of species i < d, ascending) on the labels from the
    cut up.  ``added`` holds the (population 1, population 2) urns of balls
    added before an up-down removal; they take the labels N, N+1, ...
    """
    pop1 = species_of_labels(x)
    cut = len(pop1) - x[-1] + y[-1]
    pop2 = pop1[:cut] + species_of_labels([b - a for a, b in zip(x[:-1], y)])
    return pop1 + [a for a, _ in added], pop2 + [b for _, b in added]


def coupled_adds(spec, cx, cy, n_balls, out1, out2, rng, added=None) -> None:
    """The coupler's s shared urn additions, one ``rng.random()`` each.

    Population 1 picks by weights[i] + cx[i], population 2 by
    weights[i] + cy[i] (n_balls balls each), through dominated_pick's
    rearranged intervals, and each pick adds 1 to the weight it takes.
    Without reinforcement both populations invert the CDF of the spec's own
    weights.  The balls go into out1 and out2, and their urn pairs onto
    ``added`` if given.
    """
    if not spec.reinforced:
        for _ in range(spec.s):
            i = pick_index(rng.random() * spec.weight_total, spec.weights)
            out1[i] += 1
            out2[i] += 1
        return
    w1 = [w + c for w, c in zip(spec.weights, cx)]
    w2 = [w + c for w, c in zip(spec.weights, cy)]
    total = spec.weight_total + n_balls
    for _ in range(spec.s):
        i1, i2 = dominated_pick(rng.random() * total, w1, w2)
        w1[i1] += 1.0
        w2[i2] += 1.0
        out1[i1] += 1
        out2[i2] += 1
        if added is not None:
            added.append((i1, i2))
        total += 1.0


def _remove_counts_reference(rng, counts, s: int, out: list[int]) -> None:
    """A uniform s-subset of the balls in counts taken out of out, urn by urn, one rng.random() per choice."""
    remaining = sum(counts)
    need = s
    for i, xi in enumerate(counts):
        if need == 0:
            break
        rest = remaining - xi
        k = max(0, need - rest)
        hi = min(need, xi)
        if k < hi:
            denom = math.comb(remaining, need)
            v = rng.random()
            cum = 0.0
            while k < hi:
                cum += math.comb(xi, k) * math.comb(rest, need - k) / denom
                if v <= cum:
                    break
                k += 1
        out[i] -= k
        need -= k
        remaining -= xi


def _add_counts_reference(rng, spec, counts, n_balls: int, out: list[int]) -> None:
    """The spec's s sequential additions into out, one rng.random() each."""
    if not spec.reinforced:
        cum, total = spec.cum_weights, spec.weight_total
        for _ in range(spec.s):
            out[bisect_left(cum, rng.random() * total)] += 1
        return
    w, total = spec.add_weights(counts, n_balls)
    inc = spec.inc
    for _ in range(spec.s):
        i = pick_index(rng.random() * total, w)
        w[i] += inc
        out[i] += 1
        total += inc


def sample_step_reference(spec, x, rng):
    """The sampler as it read its uniforms through ``rng.random()``: one step from x.

    Validates x on every call and keeps nothing between calls.
    """
    N, d = spec.N, spec.d
    x = validate_composition(x, N, d)
    if not isinstance(spec, UrnSpec):
        death = pick_index(rng.random() * N, x)
        parent = pick_index(rng.random() * N, x)
        offspring = bisect_left(spec.M.cum_rows[parent], rng.random())
        out = list(x)
        out[offspring] += 1
        out[death] -= 1
        return tuple(out)
    s = spec.s
    out = list(x)
    if spec.order == "updown":
        _add_counts_reference(rng, spec, x, N, out)
        _remove_counts_reference(rng, out, s, out)
    else:
        _remove_counts_reference(rng, x, s, out)
        if spec.order == "level":
            _add_counts_reference(rng, spec, x, N, out)
        else:
            _add_counts_reference(rng, spec, out, N - s, out)
    return tuple(out)


def _mark_prob(n_balls: int, s: int) -> Fraction:
    pr = Fraction(1)
    for t in range(s):
        pr /= n_balls - t
    return pr


def ehrenfest_row_oracle(x, s, p) -> dict:
    """Exact row of the redistribution chain from ordered label/destination sequences."""
    d = len(x)
    n = sum(x)
    p = [Fraction(v) for v in p]
    labels = species_of_labels(x)
    seq_prob = _mark_prob(n, s)
    rows: dict = {}
    for marks in permutations(range(n), s):
        base = list(x)
        for lbl in marks:
            base[labels[lbl]] -= 1
        for dest in product(range(d), repeat=s):
            pr = seq_prob
            succ = list(base)
            for t in dest:
                pr *= p[t]
                succ[t] += 1
            key = tuple(succ)
            rows[key] = rows.get(key, Fraction(0)) + pr
    return rows


def _reinforced_pick_sequences(weights, total, s):
    """All ordered sequences of s weighted draws where each draw adds unit weight.

    Yields (picks, prob) with exact Fractions.
    """
    d = len(weights)

    def rec(w, tot, k, picks, pr):
        if k == 0:
            yield list(picks), pr
            return
        for i in range(d):
            w2 = list(w)
            w2[i] += 1
            yield from rec(w2, tot + 1, k - 1, picks + [i], pr * Fraction(w[i], 1) / tot)

    yield from rec([Fraction(v) for v in weights], Fraction(total), s, [], Fraction(1))


def polya_row_oracle(kind: str, x, s, alpha) -> dict:
    """Exact row of a sequential urn chain ('level', 'updown', or 'downup')."""
    d = len(x)
    n = sum(x)
    alpha = [Fraction(v) for v in alpha]
    atot = sum(alpha)
    labels = species_of_labels(x)
    rows: dict = {}

    if kind == "level":
        mark_prob = _mark_prob(n, s)
        for marks in permutations(range(n), s):
            base = list(x)
            for lbl in marks:
                base[labels[lbl]] -= 1
            weights = [a + xi for a, xi in zip(alpha, x)]
            for picks, pa in _reinforced_pick_sequences(weights, atot + n, s):
                succ = list(base)
                for i in picks:
                    succ[i] += 1
                key = tuple(succ)
                rows[key] = rows.get(key, Fraction(0)) + mark_prob * pa
    elif kind == "downup":
        mark_prob = _mark_prob(n, s)
        for marks in permutations(range(n), s):
            base = list(x)
            for lbl in marks:
                base[labels[lbl]] -= 1
            weights = [a + bi for a, bi in zip(alpha, base)]
            for picks, pa in _reinforced_pick_sequences(weights, atot + n - s, s):
                succ = list(base)
                for i in picks:
                    succ[i] += 1
                key = tuple(succ)
                rows[key] = rows.get(key, Fraction(0)) + mark_prob * pa
    elif kind == "updown":
        weights = [a + xi for a, xi in zip(alpha, x)]
        mark_prob = _mark_prob(n + s, s)
        for picks, pa in _reinforced_pick_sequences(weights, atot + n, s):
            grown = list(x)
            ext_labels = list(labels)
            for i in picks:
                grown[i] += 1
                ext_labels.append(i)
            for marks in permutations(range(n + s), s):
                succ = list(grown)
                for lbl in marks:
                    succ[ext_labels[lbl]] -= 1
                key = tuple(succ)
                rows[key] = rows.get(key, Fraction(0)) + pa * mark_prob
    else:
        raise ValueError(f"unknown urn kind {kind!r}")
    return rows


def path_sum_csr(spec) -> sp.csr_matrix:
    """The kernel as kernel_rows sums its paths, one CSR over state_array(N, d).

    Each row's entries in the order of the first path to each successor.
    build_matrix's csr for every family but the down-up urns, whose csr is
    the product R A of their two stages.
    """
    array = state_array(spec.N, spec.d)
    lengths, cols, data = [np.zeros(1, dtype=np.int64)], [], []
    for n, succ, probs in kernel_rows(spec, array):
        lengths.append(n)
        cols.append(ranks(succ, spec.N))
        data.append(probs)
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(cols), np.cumsum(np.concatenate(lengths))),
        shape=(len(array), len(array)))


def moran_row_scalar(spec, x: Composition) -> dict:
    """One-step row {successor: probability} of the Moran chain from x, one path at a time.

    The reference for the batched Moran rows of kernels.kernel_rows: their
    entries, bits and order.
    """
    if isinstance(spec, UrnSpec):
        raise ValidationError("moran_row_scalar needs a Moran spec")
    N, d = spec.N, spec.d
    x = validate_composition(x, N, d)
    # Offspring species distribution: parent uniform, then one mutation step.
    target = (spec.M.matrix.T @ (np.asarray(x, dtype=float) / N)).tolist()
    probs: dict = {}
    off_total = 0.0
    for j in range(d):
        if x[j] == 0:
            continue
        death_frac = x[j] / N
        for i in range(d):
            if i == j:
                continue
            p = death_frac * target[i]
            if p > 0.0:
                succ = list(x)
                succ[i] += 1
                succ[j] -= 1
                succ = tuple(succ)
                probs[succ] = probs.get(succ, 0.0) + p
                off_total += p
    stay = 1.0 - off_total
    if stay > 1e-13:
        probs[x] = probs.get(x, 0.0) + stay
    return probs


def moran_row_oracle(x, m_rows) -> dict:
    """Exact Moran row by enumerating (death label, parent label, mutation target)."""
    d = len(x)
    n = sum(x)
    labels = species_of_labels(x)
    base = Fraction(1, n * n)
    rows: dict = {}
    for death in range(n):
        for parent in range(n):
            for target in range(d):
                pr = base * Fraction(m_rows[labels[parent]][target])
                if pr == 0:
                    continue
                succ = list(x)
                succ[target] += 1
                succ[labels[death]] -= 1
                key = tuple(succ)
                rows[key] = rows.get(key, Fraction(0)) + pr
    return rows


def stationary_lu(csr) -> np.ndarray:
    """Stationary law of an irreducible kernel by one sparse LU solve.

    Pins the last state's mass at 1 and solves the other rows of
    pi (I - K) = 0, a nonsingular minor for an irreducible kernel; then
    normalizes.
    """
    a = (sp.identity(csr.shape[0], format="csc") - csr.T).tocsc()
    # With pi[-1] = 1, the last column of (I - K)^T moves to the right-hand side.
    pi = np.append(spsolve(a[:-1, :-1], -a[:-1, -1].toarray().ravel()), 1.0)
    return pi / pi.sum()


_PERRON_RESIDUAL_TOL = 1e-12
_PERRON_STEP_TOL = 1e-14
_PERRON_MAX_ITER = 100_000


def perron_oracle(m_star: np.ndarray,
                  step_tol: float = _PERRON_STEP_TOL,
                  max_iter: int = _PERRON_MAX_ITER) -> tuple[float, np.ndarray]:
    """The power iteration as first written, on numpy arrays from end to end.

    ``spectral.perron`` must give the same bits or raise the same error
    class: it does the same IEEE operations on Python floats.
    """
    a = np.asarray(m_star, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"reduced matrix must be square, got shape {a.shape}")
    if np.any(a < 0.0):
        raise ValidationError("reduced matrix must be nonnegative")
    k = a.shape[0]
    if not np.any(a):
        # Zero matrix: every positive vector is an eigenvector for 0.
        return 0.0, np.ones(k)

    v = np.ones(k)
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v
        mx = float(w.max())
        if mx <= 0.0:
            raise PerronConvergenceError(
                "Perron iteration failed: iterate vanished (nilpotent reduced matrix?)"
            )
        w /= mx
        if float(abs(w - v).max()) < step_tol:
            lam = mx
            v = w
            break
        v = w
    else:
        raise PerronConvergenceError(
            f"Perron iteration failed to converge within {max_iter} iterations"
        )

    residual = float(np.max(np.abs(a @ v - lam * v)))
    if residual > _PERRON_RESIDUAL_TOL:
        raise PerronConvergenceError(
            f"Perron iteration converged to residual {residual:.3e} > {_PERRON_RESIDUAL_TOL}"
        )
    if not lam < 1.0:
        raise PerronConvergenceError(
            f"dominant reduced eigenvalue {lam} is not < 1; invalid mutation matrix?"
        )
    return lam, v


def dm_pmf(x, alpha) -> float:
    """Dirichlet-multinomial pmf N!/prod x_i! * prod alpha_i^(x_i rising) / |alpha|^(N rising)."""
    out = float(math.factorial(sum(x)))
    for xi, ai in zip(x, alpha):
        out *= math.prod(ai + t for t in range(xi)) / math.factorial(xi)
    return out / math.prod(sum(alpha) + t for t in range(sum(x)))


def multinomial_pmf(x, p) -> float:
    """Multinomial pmf N!/prod x_i! * prod p_i^x_i."""
    out = float(math.factorial(sum(x)))
    for xi, pi in zip(x, p):
        out *= pi**xi / math.factorial(xi)
    return out


def eigen_residual(spec, ed, states) -> float:
    """Max-norm residual of Kf - lam f = (Kf - f) + gap f over the given states.

    Kf - f sums p (f(y) - f(x)) over the kernel_rows of the states, as one
    array; f(y) - f(x) is a*.(y - x)_{<d}, so no term cancels f(x) ~ N.
    """
    x = np.array([validate_composition(y, spec.N, spec.d) for y in states],
                 dtype=np.int64).reshape(-1, spec.d)
    a = np.array(ed.a_star)
    kf_minus_f, lo = np.zeros(len(x)), 0
    for lengths, succ, probs in kernel_rows(spec, x):
        row = np.repeat(np.arange(lo, lo + len(lengths)), lengths)
        np.add.at(kf_minus_f, row, probs * ((succ - x[row])[:, :-1] @ a))
        lo += len(lengths)
    f = x[:, :-1] @ a + ed.f0
    return float(np.max(np.abs(kf_minus_f + ed.gap * f), initial=0.0))


def monotonicity_audit(tm, trials: int, seed: int, tol: float = 1e-10) -> tuple[int, int, float]:
    """(comparable pairs, violations, max excess) of Kg(x) <= Kg(y) over all x <= y, x != y.

    Each trial draws a monotone g: states in order of prefix level, each the
    largest g of its predecessors x - e_i + e_d (i < d - 1) plus a uniform
    increment, looked up by dictionary in any state order.  A pair violates
    when Kg(x) - Kg(y) exceeds tol.
    """
    d = len(tm.states[0])
    prefix = np.asarray(tm.states)[:, : d - 1]
    comparable = np.all(prefix[:, None, :] <= prefix[None, :, :], axis=2)
    np.fill_diagonal(comparable, False)
    rng = np.random.default_rng(seed)
    violations, max_excess = 0, 0.0
    for _ in range(trials):
        increments = rng.random(tm.dim)
        g = np.zeros(tm.dim)
        for idx in np.argsort(prefix.sum(axis=1), kind="stable"):
            x = tm.states[idx]
            preds = [x[:i] + (x[i] - 1,) + x[i + 1: d - 1] + (x[d - 1] + 1,)
                     for i in range(d - 1) if x[i] > 0]
            g[idx] = max((g[tm.index[y]] for y in preds), default=0.0) + increments[idx]
        kg = tm.csr @ g
        excess = kg[:, None] - kg[None, :] - tol
        bad = comparable & (excess > 0.0)
        violations += int(bad.sum())
        if bad.any():
            max_excess = max(max_excess, float(excess[bad].max()))
    return int(comparable.sum()), violations, max_excess


def minimal_element(n_total: int, d: int) -> Composition:
    """The unique minimum of the lattice: everything in the last part."""
    return (0,) * (d - 1) + (n_total,)
