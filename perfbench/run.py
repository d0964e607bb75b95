"""Benchmark for monochain: four seeded workloads through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_desk --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists, workloads.py for inputs):

    exact_desk    build_matrix -> stationary -> tv_curve -> bound envelope
    couple_wide   `monochain couple` at N = 10^4; one op is one coupled step
    step_small    coupled_step and sample_step at N = 8 and N = 100
    bounds_sweep  bound_report over six families, d = 2..8, N = 10..10^8

Each run imports ``monochain`` from ``src/``, builds its inputs from
``--seed``, warms up, then makes whole passes ("rounds") over the inputs
until ``--seconds`` have passed.  Only calls into the program are timed;
output checks run between them and a wrong output stops the run with exit 1.

``--trace 0`` prints the end-to-end metrics: setup time (the median of five
set-ups: import in a fresh interpreter, input generation, warm-up), ops per
second of timed work, the typical and a tail per-op latency, and peak RSS.
Times and rates are scaled to nominal host speed by a reference kernel timed
between ops (reference.py), except exact_desk's (``HOST_SCALED``); the
unscaled values are on the report line.  Set-up times are always scaled.  Ops
fall into groups by family (in step_small also by N and coupled or sampled; in
bounds_sweep each input is a group); ``op_p50_ms`` is the median over groups
of each group's mean latency, ``op_tail_ms`` a fixed percentile of all
latencies pooled (``TAIL_PCT`` of each workload).  A latency sample is one
call, except in step_small and couple_wide, where it is the per-step time of
a whole chain or ``couple`` run.
``--trace 1`` spends a third of the time untraced and the rest with every
module's public functions wrapped (tracing.py), and prints per-layer self
times and counts per round, failures per pass by layer and exception class,
and the tracing overhead on ops per second.  Which layer metric should move
which end-to-end metric:

    statespace.*, kernels.transition_row_*, exact.*   exact_desk  ops_per_s
    exact.stationary_s, exact.dense_bytes             exact_desk  peak_rss_mb
    kernels.sample_step_*                             step_small  ops_per_s, op_p50_ms
    spectral.*, bounds.*                              bounds_sweep ops_per_s
    bounds.err.*, spectral.err.*, err.other           bounds_sweep probe.fail_frac
    coupling.coupled_step_s, coupling.steps           couple_wide, step_small  ops_per_s
    coupling.run_coupled_s                            couple_wide  ops_per_s
    coupling.coalesced_ratio                          couple_wide  must not move
    cli.main_s, cli.output_bytes                      couple_wide  ops_per_s, peak_rss_mb

``exact.dense_bytes`` is computed (8 S^2 per ``stationary`` call), not
measured.  ``fail_frac`` (failed ops / attempted ops) is printed on the
report line and is the result line's failed / attempted.  The timed inputs
are ones the program answers today, so it is zero and a per-layer metric
rather than a bounded end-to-end one.  The inputs bounds_sweep's program
fails on today (crude-bound overflow, the general Moran eigen check at large
N, a Polya second eigenvalue that rounds to 1) form a probe that runs once
per run, untimed and untraced, before the measurement: its failures by class
are on the report line and in the per-layer error counts, and
``probe.fail_frac`` is its failed / attempted.

The last stdout line is the result object; the line before it is a report
with provenance (seed, nproc, BLAS threads, versions) and the op counts
behind each statistic.  ``--smoke`` shrinks every input for a quick check.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
SETUP_REF_SAMPLES = 50
DECLARED_ERRORS = ("bounds.err.OverflowError", "spectral.err.EigenConsistencyError",
                   "spectral.err.ValidationError", "cli.exit_nonzero")


def limit_blas_threads() -> int:
    """Cap BLAS threads at nproc before numpy loads; return the cap."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    preset = [int(os.environ[n]) for n in names if os.environ.get(n, "").isdigit()]
    cap = min([len(os.sched_getaffinity(0))] + [n for n in preset if n > 0])
    for name in names:
        os.environ[name] = str(cap)
    return cap


def blas_threads_in_use(numpy) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_seconds() -> tuple[float, float]:
    """Time ``import monochain`` in a fresh interpreter, measured inside it.

    Returns the time and the scale to nominal host speed, from reference
    times the child takes right after the import.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import monochain; t = time.perf_counter() - t; import reference; "
            f"r = reference.Reference(); r.sample({SETUP_REF_SAMPLES}); print(t, r.scale())")
    child = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE],
                           capture_output=True, text=True, timeout=120, check=True)
    seconds, scale = child.stdout.split()
    return float(seconds), float(scale)


def measure(workload, seconds: float, rec) -> int:
    """Run whole rounds until ``seconds`` have passed; return the round count."""
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        workload.run_round(rec)
        rounds += 1
    return rounds


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile pct among n sorted samples."""
    return max(1, math.ceil(n * pct / 100))


def end_to_end(rec, setup_s: float, tail_pct: float, scaled: bool) -> tuple[dict, dict]:
    """End-to-end metrics, times scaled to nominal host speed if ``scaled``.

    The unscaled ones go in the detail.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A pooled median of a fixed mix of op groups sits on the edge between two
    # groups' latency clusters; the median of per-group means does not.
    raw_means, raw_ordered = rec.latencies(scaled=False)
    means, ordered = rec.latencies(scaled)
    n = len(ordered)
    tail_rank = nearest_rank(n, tail_pct)
    raw = {
        "ops_per_s": rec.ok_ops / rec.busy_s,
        "op_p50_ms": statistics.median(raw_means) * 1e3,
        "op_tail_ms": float(raw_ordered[tail_rank - 1]) * 1e3,
    }
    scale = rec.busy_scale() if scaled else 1.0
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": statistics.median(means) * 1e3,
        "op_tail_ms": float(ordered[tail_rank - 1]) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"tail_percentile": tail_pct, "latency_samples": n,
              "samples_beyond_tail": n - tail_rank, "op_groups": len(means),
              "host_scale": rec.busy_scale(), "host_scaled": scaled,
              "ref_samples": len(rec.ref.samples), "raw": raw}
    return metrics, detail


def per_layer(tracer, traced, rounds: int, untraced, probe, scaled: bool) -> dict:
    """Per-round self times and counts from the traced pass, and the overhead.

    Failures by class are per pass over the inputs: the traced rounds'
    average plus the probe's one pass.
    """
    scale = traced.busy_scale() if scaled else 1.0
    out = {f"{layer}.{fn}_s": tracer.self_s.get(f"{layer}.{fn}", 0.0) * scale / rounds
           for layer, fn in tracing.TRACED}
    calls = tracer.calls
    for name in ("kernels.transition_row", "kernels.sample_step", "spectral.perron"):
        out[f"{name}_calls"] = calls.get(name, 0) / rounds
    out["coupling.steps"] = calls.get("coupling.coupled_step", 0) / rounds
    for name in ("statespace.states", "exact.csr_nnz", "exact.dense_bytes", "bounds.reports"):
        out[name] = tracer.counts.get(name, 0) / rounds
    replicates = tracer.counts.get("coupling.replicates", 0)
    out["coupling.coalesced_ratio"] = (
        tracer.counts.get("coupling.coalesced", 0) / replicates if replicates else 0.0)
    out["cli.output_bytes"] = traced.counts.get("cli.output_bytes", 0) / rounds
    errors = {k: v / rounds for k, v in traced.errors.items()}
    for k, v in probe.errors.items():
        errors[k] = errors.get(k, 0) + v
    for key in DECLARED_ERRORS:
        out[key] = errors.get(key, 0)
    out["err.other"] = sum(v for k, v in errors.items() if k not in DECLARED_ERRORS)
    attempted = traced.attempted + untraced.attempted
    out["fail_frac"] = (traced.failed + untraced.failed) / attempted
    out["probe.fail_frac"] = probe.failed / probe.attempted if probe.attempted else 0.0
    out["trace.ops_per_s"] = traced.ok_ops / (traced.busy_s * scale)
    untraced_scale = untraced.busy_scale() if scaled else 1.0
    out["trace.ops_per_s_untraced"] = untraced.ok_ops / (untraced.busy_s * untraced_scale)
    out["trace.overhead"] = out["trace.ops_per_s_untraced"] / out["trace.ops_per_s"] - 1.0
    return out


TRACE_COUNTS = {
    "statespace.enumerate_states": lambda t, r: t.count("statespace.states", len(r)),
    "exact.build_matrix": lambda t, r: t.count("exact.csr_nnz", r.csr.nnz),
    # Computed, not measured: the dense copy stationary() makes of the kernel.
    "exact.stationary": lambda t, r: t.count("exact.dense_bytes", 8 * len(r) ** 2),
    "bounds.bound_report": lambda t, r: t.count("bounds.reports"),
    "coupling.run_coupled": lambda t, r: (t.count("coupling.replicates"),
                                          t.count("coupling.coalesced", r[1] is not None)),
}


def measure_run(workload, args, setup_s: float, recorders, probe) -> tuple[dict, dict]:
    """Measure into ``recorders`` (one, or untraced then traced); return metrics and detail."""
    if not args.trace:
        rounds = measure(workload, args.seconds, recorders[0])
        metrics, detail = end_to_end(recorders[0], setup_s, workload.TAIL_PCT,
                                     workload.HOST_SCALED)
        return metrics, dict(detail, rounds=rounds)
    untraced, traced = recorders
    measure(workload, args.seconds / 3, untraced)
    tracer = tracing.Tracer()
    tracer.install(TRACE_COUNTS)
    try:
        rounds = measure(workload, args.seconds * 2 / 3, traced)
    finally:
        tracer.restore()
    metrics = per_layer(tracer, traced, rounds, untraced, probe, workload.HOST_SCALED)
    return metrics, {"traced_rounds": rounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    blas_cap = limit_blas_threads()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import monochain
    except ImportError as exc:
        print(f"error: cannot import monochain from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    cls = wl.WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    recorders = [wl.Recorder() for _ in range(1 + args.trace)]
    probe = wl.Recorder(capacity=1)
    try:
        # Set-up is import, input generation and warm-up; each repeat imports
        # in a fresh interpreter, since this process has imported already.
        # The import is scaled by reference times the child takes, the rest
        # by ones taken just before and after it.
        setup_times, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            import_s, import_scale = import_seconds()
            ref = Reference()
            ref.sample(SETUP_REF_SAMPLES)
            t0 = time.perf_counter()
            workload = (cls(args.seed, args.smoke, workdir) if cls is wl.CoupleWide
                        else cls(args.seed, args.smoke))
            workload.warm_up()
            build_s = time.perf_counter() - t0
            ref.sample(SETUP_REF_SAMPLES)
            setup_raw.append(import_s + build_s)
            setup_times.append(import_s * import_scale + build_s * ref.scale())
        # Inputs the program fails on today run once, untimed and untraced.
        if hasattr(workload, "run_probe"):
            workload.run_probe(probe)
        metrics, detail = measure_run(workload, args, statistics.median(setup_times),
                                      recorders, probe)
        correct = True
    except wl.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        metrics, detail, correct = {}, {}, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)

    attempted = max(1, sum(r.attempted for r in recorders))
    failed = sum(r.failed for r in recorders)
    errors: dict[str, int] = {}
    for r in recorders:
        for key, n in r.errors.items():
            errors[key] = errors.get(key, 0) + n
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_cap": blas_cap,
        "blas_threads": blas_threads_in_use(numpy),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "monochain": getattr(monochain, "__version__", None),
        "setup_repeats_s": setup_times,
        "setup_repeats_raw_s": setup_raw,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": dict(sorted(errors.items())),
        "probe": {"attempted": probe.attempted, "failed": probe.failed,
                  "errors": dict(sorted(probe.errors.items()))},
        **detail,
    }
    print(json.dumps({"report": report}))
    result_metrics = {}
    if correct:
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"benchmark did not compute declared metrics {missing}")
        result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
