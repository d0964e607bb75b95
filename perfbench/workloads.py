"""The four seeded workloads, their output checks and their failure accounting.

Each workload is built from the benchmark seed only; the program receives the
generated inputs.  ``run_round`` makes one pass over the inputs and records
every op in a ``Recorder``: only the calls into ``monochain`` are timed, and
the output checks run outside the timed region.  A failed check raises
``CheckFailed``, which stops the run.  An op that raises is counted as failed
by exception class and layer, and stays in the denominator of ``fail_frac``.

Functions are looked up as attributes of ``monochain`` (or its modules) at
call time, so that a traced run sees the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from time import perf_counter as _clock

import numpy as np
from scipy.special import gammaln

import monochain as mc
import monochain.cli as mc_cli
from reference import Reference, trimmed_mean


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def error_key(exc: BaseException) -> str:
    """Failure key "<layer>.err.<ExceptionClass>", from the deepest monochain frame."""
    layer = None
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("monochain."):
            layer = module.split(".", 1)[1]
        tb = tb.tb_next
    if layer is None:
        # Raised outside the program: a defect of the benchmark, not a failed op.
        raise exc
    return f"{layer}.err.{type(exc).__name__}"


class Recorder:
    """Latency samples, failures by class, and plain counters of a measurement.

    Latency samples (seconds per op, one per timed call or batch) and the op
    group of each (its family, and for step_small its size and kind) go to
    buffers that are allocated and touched up front, so that peak RSS does
    not grow with the number of ops a run completes.  The buffers take about
    2.6 MB, small next to the program's own memory; a 25 s run fills a few
    thousand entries, bounds_sweep about 1.5 * 10^5.  Calls past the capacity are
    timed and counted but not sampled.  Between ops, outside the timed calls,
    the host-speed reference kernel is timed at most every 20 ms (``ref``).
    """

    def __init__(self, capacity: int = 1 << 18):
        self._samples = np.ones(capacity, dtype=np.float32)
        self._groups = np.full(capacity, -1, dtype=np.int16)
        self._ref_at = np.zeros(capacity, dtype=np.int32)
        self._group_ids: dict[str, int] = {}
        self.n_samples = 0
        self.busy_s = 0.0  # timed work, failed ops included
        self.ok_ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.ref = Reference()

    def ok(self, elapsed: float, group: str, ops: int = 1, sample: bool = True) -> None:
        self.busy_s += elapsed
        self.ok_ops += ops
        self.attempted += ops
        if sample and self.n_samples < len(self._samples):
            gid = self._group_ids.setdefault(group, len(self._group_ids))
            self._samples[self.n_samples] = elapsed / ops
            self._groups[self.n_samples] = gid
            self._ref_at[self.n_samples] = len(self.ref.samples)
            self.n_samples += 1
        self.ref.maybe_sample()

    def fail(self, elapsed: float, key: str, ops: int = 1) -> None:
        self.busy_s += elapsed
        self.attempted += ops
        self.failed += ops
        self.errors[key] = self.errors.get(key, 0) + 1
        self.ref.maybe_sample()

    def latencies(self, scaled: bool = True) -> tuple[list[float], np.ndarray]:
        """Mean latency of each op group, then all samples sorted.

        With ``scaled``, each sample is first scaled to nominal host speed by
        the reference times taken around it.  A group's mean drops its
        highest and lowest tenth of samples, so that a few preempted calls
        do not move it; a group's median would jump between the host's fast
        and slow clusters as the share of slow phases in a run varies.
        """
        samples = self._samples[: self.n_samples].astype(np.float64)
        if scaled:
            samples *= self.ref.local_scales(self._ref_at[: self.n_samples])
        groups = self._groups[: self.n_samples]
        means = [trimmed_mean(samples[groups == gid]) for gid in self._group_ids.values()]
        samples.sort()
        return means, samples

    def busy_scale(self) -> float:
        """Scale for ``busy_s``: the samples' scales, weighted by their time.

        A workload's samples all cover the same number of ops, so a sample's
        per-op time is proportional to the time it covers.
        """
        samples = self._samples[: self.n_samples].astype(np.float64)
        scales = self.ref.local_scales(self._ref_at[: self.n_samples])
        return float(np.dot(samples, scales) / samples.sum())

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def timed(rec: Recorder, group: str, fn, *args):
    """Call fn, record its latency under ``group``, and return (ok, result).

    A ``CouplingOrderError`` is a wrong output and stops the run; any other
    exception counts as a failed op.
    """
    t0 = _clock()
    try:
        result = fn(*args)
    except mc.CouplingOrderError as exc:
        raise CheckFailed(f"{group}: {exc}") from exc
    except Exception as exc:  # noqa: BLE001 -- every failed op is counted, not fatal
        rec.fail(_clock() - t0, error_key(exc))
        return False, None
    rec.ok(_clock() - t0, group)
    return True, result


def timed_chain(rec: Recorder, group: str, step, spec, state, rng, steps: int) -> list:
    """Make ``steps`` chained calls state = step(spec, state, rng), timed as one sample.

    Returns every state reached.  A ``CouplingOrderError`` is a wrong output
    and stops the run; any other exception ends the chain and counts as one
    failed op, with the steps completed before it counted but not sampled.
    """
    out = []
    t0 = _clock()
    try:
        for _ in range(steps):
            state = step(spec, state, rng)
            out.append(state)
    except mc.CouplingOrderError as exc:
        raise CheckFailed(f"{group}: {exc}") from exc
    except Exception as exc:  # noqa: BLE001 -- every failed op is counted, not fatal
        elapsed = _clock() - t0
        rec.fail(elapsed, error_key(exc))
        rec.ok(0.0, group, ops=len(out), sample=False)
        return out
    rec.ok(_clock() - t0, group, ops=steps)
    return out


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

FAMILIES = ("moran_general", "moran_standard", "polya_level", "polya_updown",
            "polya_downup", "ehrenfest")


def prob_vector(rng, d: int) -> tuple[float, ...]:
    v = rng.random(d) + 0.05
    return tuple(float(x) for x in v / v.sum())


def dominated_rows(rng, d: int) -> list[list[float]]:
    """Positive mutation matrix whose last row is strictly dominated off the diagonal."""
    m = rng.random((d, d)) + 0.1
    m /= m.sum(axis=1, keepdims=True)
    last = m[: d - 1, : d - 1].min(axis=0) * rng.uniform(0.2, 0.8) * rng.uniform(0.3, 1.0, d - 1)
    m[d - 1, : d - 1] = last
    m[d - 1, d - 1] = 1.0 - last.sum()
    return m.tolist()


def composition(rng, n: int, d: int) -> tuple[int, ...]:
    cuts = sorted(int(c) for c in rng.integers(0, n + 1, size=d - 1))
    edges = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(edges[:-1], edges[1:]))


def typical_start(rng, doc: dict, n: int, d: int) -> tuple[int, ...]:
    """A start drawn around the stationary mean; uniform for the general Moran chain."""
    shares = doc.get("alpha", doc.get("p"))
    if shares is None:
        return composition(rng, n, d)
    q = np.asarray(shares) / np.sum(shares)
    return tuple(int(c) for c in rng.multinomial(n, q))


def ordered_pair(rng, n: int, d: int):
    """(x, y) with x <= y: move part of y's prefix mass into the last part."""
    y = composition(rng, n, d)
    x = list(y)
    for i in range(d - 1):
        drop = int(rng.integers(0, x[i] + 1))
        x[i] -= drop
        x[d - 1] += drop
    return tuple(x), y


def model_doc(family: str, rng, n: int, d: int, s: int, alpha_total: float | None = None) -> dict:
    """JSON model document with seeded parameters.

    With ``alpha_total`` the urn weights are a random split of a fixed total,
    which fixes every Polya eigenvalue and so the cost of a stationary solve.
    """
    doc: dict = {"model": family, "N": n}
    if family == "moran_general":
        doc["mutation_matrix"] = dominated_rows(rng, d)
    elif family == "moran_standard":
        doc["m"] = 0.5 if alpha_total is not None else float(rng.uniform(0.1, 1.0))
        doc["p"] = list(prob_vector(rng, d))
    elif family == "ehrenfest":
        doc["s"] = s
        doc["p"] = list(prob_vector(rng, d))
    else:
        doc["s"] = s
        if alpha_total is None:
            doc["alpha"] = [float(a) for a in rng.uniform(0.5, 200.0, d)]
        else:
            w = rng.random(d) + 0.2
            doc["alpha"] = [float(a) for a in alpha_total * w / w.sum()]
    return doc


def valid_state(z, n: int, d: int) -> bool:
    return (isinstance(z, tuple) and len(z) == d and sum(z) == n
            and all(isinstance(c, int) and c >= 0 for c in z))


def ordered(x, y) -> bool:
    return all(a <= b for a, b in zip(x[:-1], y[:-1]))


def stationary_reference(doc: dict, states) -> np.ndarray | None:
    """Closed-form stationary law over ``states``, or None where none is known."""
    family = doc["model"]
    n = doc["N"]
    x = np.asarray(states, dtype=float)
    if family == "moran_general":
        return None
    if family == "ehrenfest" or (family == "moran_standard" and doc["m"] == 1.0):
        logp = np.log(np.asarray(doc["p"]))
        out = gammaln(n + 1) - gammaln(x + 1).sum(axis=1) + (x * logp).sum(axis=1)
        return np.exp(out)
    if family == "moran_standard":
        alpha = n * doc["m"] * np.asarray(doc["p"]) / (1.0 - doc["m"])
    else:
        alpha = np.asarray(doc["alpha"])
    total = alpha.sum()
    out = (gammaln(n + 1) + gammaln(total) - gammaln(n + total)
           + (gammaln(x + alpha) - gammaln(x + 1) - gammaln(alpha)).sum(axis=1))
    return np.exp(out)


# ---------------------------------------------------------------------------
# exact_desk
# ---------------------------------------------------------------------------

class ExactDesk:
    """One ``monochain exact``-equivalent solve per op, all six families.

    Shapes are fixed so that every seed costs the same: N=44, d=3 (1,035
    states) and N=17, d=4 (1,140 states).  Urn weights split a fixed total.
    """

    name = "exact_desk"
    # Most of an op is multithreaded dense products, which barely slow in the
    # host's slow phases: over ten seeds the unscaled times spread by 0.04 to
    # 0.09 of their median, times scaled by the reference by 0.11 to 0.16.
    HOST_SCALED = False
    # About 40 ops a run: the median is the highest percentile with ten beyond.
    TAIL_PCT = 50.0

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 1])
        self.n_max = 50 if tiny else 500
        shapes = {"moran_general": (17, 4), "ehrenfest": (17, 4)}
        self.inputs = []
        for family in FAMILIES:
            n, d = (5, 3) if tiny else shapes.get(family, (44, 3))
            doc = model_doc(family, rng, n, d, s=2, alpha_total=6.0)
            self.inputs.append((doc, mc.spec_from_json(doc), composition(rng, n, d)))

    def warm_up(self) -> None:
        rec = Recorder(capacity=64)
        rng = np.random.default_rng(0)
        for family in FAMILIES:
            doc = model_doc(family, rng, 3, 3, s=1, alpha_total=6.0)
            timed(rec, "warm-up", self._solve, mc.spec_from_json(doc), (1, 1, 1), 5)

    @staticmethod
    def _solve(spec, x0, n_max):
        tm = mc.build_matrix(spec)
        pi = mc.stationary(tm)
        curve = mc.tv_curve(tm, x0, n_max, pi=pi)
        ed = mc.model_eigendata(spec)
        lower, upper = mc.tv_bound_coefficients(ed, x0)
        crude = None if isinstance(spec, mc.MoranGeneral) else mc.crude_bound(spec, x0)
        return tm, pi, curve, ed.lam, lower, upper, crude

    def run_round(self, rec: Recorder) -> None:
        for doc, spec, x0 in self.inputs:
            ok, out = timed(rec, doc["model"], self._solve, spec, x0, self.n_max)
            if ok:
                self._check(doc, x0, *out)

    def _check(self, doc, x0, tm, pi, curve, lam, lower, upper, crude) -> None:
        family = doc["model"]
        _require(len(curve) == self.n_max + 1, f"{family}: curve length {len(curve)}")
        decay = lam ** np.arange(len(curve))
        slack = 1e-11
        inside = (lower * decay - slack <= curve) & (curve <= upper * decay + slack)
        _require(bool(inside.all()),
                 f"{family}: TV curve leaves its bound envelope at n={int(np.argmin(inside))}")
        _require(bool(np.all(np.diff(curve) <= 1e-12)), f"{family}: TV curve increases")
        _require(crude is None or crude > 0.0, f"{family}: crude coefficient {crude}")
        residual = float(np.max(np.abs(pi @ tm.csr - pi)))
        _require(residual <= 1e-12, f"{family}: stationarity residual {residual:.3e}")
        # The curve again, by row-vector products instead of tv_curve's transpose.
        v = np.zeros(len(pi))
        v[tm.index[x0]] = 1.0
        worst = 0.0
        for tv in curve:
            worst = max(worst, abs(0.5 * float(np.abs(v - pi).sum()) - tv))
            v = v @ tm.csr
        _require(worst <= 1e-12, f"{family}: TV curve off its recomputation by {worst:.3e}")
        ref = stationary_reference(doc, tm.states)
        if ref is not None:
            err = float(np.max(np.abs(pi - ref)))
            _require(err <= 1e-10, f"{family}: stationary law off its closed form by {err:.3e}")
        _require(abs(float(pi.sum()) - 1.0) <= 1e-12, f"{family}: pi sums to {pi.sum()}")


# ---------------------------------------------------------------------------
# couple_wide
# ---------------------------------------------------------------------------

class CoupleWide:
    """Coupled runs at N = 10^4 driven through ``monochain couple``; one op is one step.

    The start pair is far apart (x0 = (0, 0, N), y0 holds at least 3N/4 in its
    prefix) and the budget T is small, so no replicate can coalesce: every
    replicate runs the full budget.  The run counts the steps actually
    executed from the trajectories CSV and checks that every row is an
    ordered pair.  From so far apart only a gross break of the order can
    show; step_small checks pairs that start close.
    """

    name = "couple_wide"
    HOST_SCALED = True
    # About 280 runs of `couple` a run: p90 leaves some 28 beyond it.
    TAIL_PCT = 90.0

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.n = n = 200 if tiny else 10_000
        self.replicates = 2 if tiny else 4
        self.max_steps = 10 if tiny else 60
        os.makedirs(workdir, exist_ok=True)
        self.trajectories = os.path.join(workdir, "trajectories.csv")
        self.configs = []
        for family in FAMILIES:
            doc = model_doc(family, rng, n, 3, s=2)
            last = int(rng.integers(0, n // 4 + 1))
            upper = [*composition(rng, n - last, 2), last]
            cfg = {
                "model": doc,
                "start": [0, 0, n],
                "start_upper": upper,
                "seed": int(rng.integers(0, 2**31)),
                "replicates": self.replicates,
                "max_steps": self.max_steps,
            }
            path = os.path.join(workdir, f"{family}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.configs.append((family, path))

    def _couple(self, config: str, extra=()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mc_cli.main(["couple", "--config", config,
                                "--trajectories", self.trajectories, *extra])
        return code, out.getvalue()

    def warm_up(self) -> None:
        rec = Recorder(capacity=64)
        for _, path in self.configs:
            timed(rec, "warm-up", self._couple, path, ["--replicates", "1", "--max-steps", "2"])

    def run_round(self, rec: Recorder) -> None:
        budget = self.replicates * self.max_steps
        for family, path in self.configs:
            t0 = _clock()
            try:
                code, stdout = self._couple(path)
            except Exception as exc:  # noqa: BLE001 -- every failed op is counted, not fatal
                rec.fail(_clock() - t0, error_key(exc), ops=budget)
                continue
            elapsed = _clock() - t0
            # Exit 1 is an internal error, order violations among them: a wrong
            # output.  Exits 2 and 3 reject the input and count as failed ops.
            if code in (2, 3):
                rec.fail(elapsed, "cli.exit_nonzero", ops=budget)
                continue
            steps = self._check(family, code, stdout)
            rec.ok(elapsed, family, ops=steps)
            rec.count("cli.output_bytes",
                      len(stdout.encode()) + os.path.getsize(self.trajectories))

    def _check(self, family: str, code: int, stdout: str) -> int:
        """Validate the exit code, summary and CSV; return the number of steps executed."""
        try:
            summary = json.loads(stdout)
        except json.JSONDecodeError:
            summary = {}
        violations = summary.get("order_violations")
        _require(not violations, f"{family}: {violations} order violations")
        _require(code == 0 and summary, f"{family}: couple exited {code}")
        _require(summary["replicates"] == self.replicates, f"{family}: replicate count")
        with open(self.trajectories, newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == ["replicate", "step", "x", "y", "coalesced"], f"{family}: CSV header")
        body = rows[1:]
        last_step = {}
        for rep, step, xs, ys, coalesced in body:
            last_step[int(rep)] = max(last_step.get(int(rep), 0), int(step))
            _require(coalesced == "0", f"{family}: replicate {rep} coalesced within the budget")
            x = tuple(int(c) for c in xs.split(";"))
            y = tuple(int(c) for c in ys.split(";"))
            _require(valid_state(x, self.n, 3) and valid_state(y, self.n, 3) and ordered(x, y),
                     f"{family}: replicate {rep} step {step} is not an ordered pair: {x}, {y}")
        _require(summary["coalesced"] == 0, f"{family}: summary reports coalescence")
        steps = len(body) - len(last_step)
        _require(len(last_step) == self.replicates
                 and all(s == self.max_steps for s in last_step.values())
                 and steps == sum(last_step.values()),
                 f"{family}: trajectory rows do not match the steps run")
        return steps


# ---------------------------------------------------------------------------
# step_small
# ---------------------------------------------------------------------------

class StepSmall:
    """Single coupled and sampled steps at N = 8 and N = 100 (criterion-8 shape).

    Per family and N, one round draws a fresh ordered pair and makes 500
    ``coupled_step`` calls from it, then runs a 500-step ``sample_step`` chain.
    Each chain is timed as one sample of 500 ops, so ``op_p50_ms`` is the
    per-step latency of a chain rather than of a single ~10 us call.
    """

    name = "step_small"
    HOST_SCALED = True
    # About 1,400 chains a run.  p99 would leave 14 beyond it, each slowed by
    # whichever pause hit it; it spread by 0.17 of its median over five seeds.
    TAIL_PCT = 95.0
    D = 3

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 3])
        self.steps = 20 if tiny else 500
        self.specs = []
        for family in FAMILIES:
            # One parameter set per family, used at both population sizes.
            probe = model_doc(family, rng, 8, self.D, s=2)
            for n in (8, 100):
                self.specs.append((family, n, mc.spec_from_json(dict(probe, N=n))))
        self.rng = np.random.default_rng([seed, 4])

    def warm_up(self) -> None:
        rec = Recorder(capacity=64)
        rng = np.random.default_rng(0)
        for _, n, spec in self.specs:
            x, y = ordered_pair(rng, n, self.D)
            timed(rec, "warm-up", mc.coupled_step, spec, mc.CoupledPair(x, y), rng)
            timed(rec, "warm-up", mc.sample_step, spec, y, rng)

    def run_round(self, rec: Recorder) -> None:
        rng = self.rng
        d = self.D
        for family, n, spec in self.specs:
            x, y = ordered_pair(rng, n, d)
            pairs = timed_chain(rec, f"{family}/{n}/coupled", mc.coupled_step, spec,
                                mc.CoupledPair(x, y), rng, self.steps)
            for out in pairs:
                _require(valid_state(out.x, n, d) and valid_state(out.y, n, d)
                         and ordered(out.x, out.y),
                         f"{family} N={n}: coupled step left the ordered pairs: {out}")
            states = timed_chain(rec, f"{family}/{n}/sample", mc.sample_step, spec,
                                 composition(rng, n, d), rng, self.steps)
            for out in states:
                _require(valid_state(out, n, d), f"{family} N={n}: sampled {out!r}")


# ---------------------------------------------------------------------------
# bounds_sweep
# ---------------------------------------------------------------------------

# The four worked examples: spec, start, (steps_necessary, steps_sufficient,
# steps_crude) at epsilon = 0.01.
GOLDEN = (
    ({"model": "polya_downup", "N": 100, "s": 1, "alpha": [180.0] * 5},
     (0, 10, 0, 10, 80), (401, 1018, 5432)),
    ({"model": "moran_standard", "N": 100, "m": 0.7, "p": [0.2] * 5},
     (0, 10, 0, 10, 80), (516, 1312, 5683)),
    ({"model": "polya_level", "N": 100, "s": 2, "alpha": [180.0] * 5},
     (0, 20, 0, 20, 60), (178, 518, 2002)),
    ({"model": "ehrenfest", "N": 100, "s": 1, "p": [0.2] * 5},
     (0, 20, 0, 20, 60), (321, 935, 3897)),
)


class BoundsSweep:
    """One ``bound_report`` per op over all six families, d = 2..8, N = 10..10^8.

    Per family and d, N takes one log-uniform draw from each of 16 strata,
    so every seed holds the same mix of sizes: equal slices of [10, 10^8),
    and of [10, 10^5) for the general Moran chain.  Its inputs at d = 7, 8
    are the slowest and set op_tail_ms; with one draw per decade, the tail
    followed the three or four slowest draws of a seed.  Starts are typical:
    a multinomial draw around the stationary mean (the urn weights' or p's
    shares), uniform for the general Moran chain.

    The timed inputs are those the program answers today.  The inputs that
    fail today form a probe, run once per run untimed, each output checked
    and each failure counted by class (``run_probe``), so a fix shows as
    fewer probe failures without changing the timed mix: uniformly random
    starts at N = 10..10^9 (the crude coefficient overflows once
    pi(x) < 1e-617, from N ~ 10^3; the general Moran eigen check fails from
    N ~ 10^5), and typical starts at N = 10^8..10^9 with urn weights summing
    to 4 (a Polya chain's second eigenvalue rounds to 1 from N ~ 2 * 10^8).
    """

    name = "bounds_sweep"
    HOST_SCALED = True
    # Every round repeats the same 676 inputs, so ten samples beyond the tail
    # should be ten inputs: p98 leaves 13.
    TAIL_PCT = 98.0
    EPSILON = 0.01

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 5])
        dims = range(2, 5) if tiny else range(2, 9)
        self.inputs = [(mc.spec_from_json(doc), start, want) for doc, start, want in GOLDEN]
        for family in FAMILIES:
            top = 5.0 if family == "moran_general" else 8.0
            for d in dims:
                self.inputs += self._draw(rng, family, d, 1.0, top, 3 if tiny else 16, True)
        rng = np.random.default_rng([seed, 6])
        self.probe = []
        for family in FAMILIES:
            for d in dims:
                self.probe += self._draw(rng, family, d, 1.0, 4.0 if tiny else 9.0,
                                         3 if tiny else 8, False)
                self.probe += self._draw(rng, family, d, 8.0, 9.0, 1, True, alpha_total=4.0)

    @staticmethod
    def _draw(rng, family: str, d: int, lo: float, hi: float, strata: int, typical: bool,
              alpha_total: float | None = None):
        """One input per equal slice of [10^lo, 10^hi), N log-uniform within it."""
        out = []
        width = (hi - lo) / strata
        for k in range(strata):
            n = int(10 ** (lo + (k + rng.random()) * width))
            s = int(rng.integers(1, min(n, 8) + 1))
            doc = model_doc(family, rng, n, d, s, alpha_total)
            start = typical_start(rng, doc, n, d) if typical else composition(rng, n, d)
            out.append((mc.spec_from_json(doc), start, None))
        return out

    def warm_up(self) -> None:
        rec = Recorder(capacity=64)
        for spec, start, _ in self.inputs[:: max(1, len(self.inputs) // 12)]:
            timed(rec, "warm-up", mc.bound_report, spec, start, self.EPSILON)

    def run_round(self, rec: Recorder) -> None:
        # Each input is its own op group, so op_p50_ms is the median input's latency.
        for i, (spec, start, want) in enumerate(self.inputs):
            ok, report = timed(rec, str(i), mc.bound_report, spec, start, self.EPSILON)
            if ok:
                self._check(spec, report, want)

    def run_probe(self, rec: Recorder) -> None:
        """One pass over the inputs that fail today, outside the measurement."""
        for spec, start, _ in self.probe:
            ok, report = timed(rec, "probe", mc.bound_report, spec, start, self.EPSILON)
            if ok:
                self._check(spec, report, None)

    def _check(self, spec, r, want) -> None:
        label = f"{type(spec).__name__} N={spec.N} d={spec.d}"
        if want is not None:
            got = (r.steps_necessary, r.steps_sufficient, r.steps_crude)
            _require(got == want, f"golden {label}: step counts {got}, expected {want}")
        _require(0.0 < r.lam < 1.0, f"{label}: lambda {r.lam}")
        _require(0.0 <= r.lower_coeff <= r.upper_coeff, f"{label}: coefficients out of order")
        pairs = [(r.lower_coeff, r.steps_necessary), (r.upper_coeff, r.steps_sufficient)]
        if r.crude_coeff is not None:
            pairs.append((r.crude_coeff, r.steps_crude))
        for coeff, n in pairs:
            # n is the smallest step count with coeff * lam^n <= epsilon.
            _require(coeff * r.lam ** n <= self.EPSILON
                     and (n == 0 or coeff * r.lam ** (n - 1) > self.EPSILON),
                     f"{label}: {n} steps is not the first to reach epsilon for {coeff}")


WORKLOADS = {w.name: w for w in (ExactDesk, CoupleWide, StepSmall, BoundsSweep)}
