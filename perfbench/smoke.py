"""Smoke check of the benchmark: every workload at tiny sizes, untraced and traced.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Asserts that each run exits 0 with correct outputs (run.py itself exits
non-zero when it cannot compute a metric declared in BENCHMARK.json), that
every metric on its result line is a finite number, and that the report line
before it carries the provenance fields.  Exits 1 on the first mismatch.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROVENANCE = ("seed", "nproc", "blas_threads_cap", "blas_threads", "python", "numpy", "scipy")


def check_run(workload: str, trace: int) -> str:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if child.returncode != 0:
        return f"{where}: exit {child.returncode}: {child.stderr.strip()[-500:]}"
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return f"{where}: correct={result['correct']} attempted={result['attempted']}"
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            return f"{where}: {name} = {m['value']!r}"
    missing = [k for k in PROVENANCE if k not in report]
    if missing or report["seed"] != 1:
        return f"{where}: report lacks {missing}"
    return ""


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace in (0, 1):
            problem = check_run(workload, trace)
            if problem:
                print(f"smoke FAILED: {problem}", file=sys.stderr)
                return 1
            print(f"smoke ok: {workload} --trace {trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
