import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monochain
import numpy as np

from monochain import (
    CouplingOrderError,
    Ehrenfest,
    MoranGeneral,
    MoranStandard,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
    build_matrix,
    coupling,
    sample_step,
    stationary,
    transition_row,
    tv_curve,
)
from monochain import bounds, cli
from monochain.errors import MonochainError
from monochain.cli import _empirical_tv, main
from helpers import delta_construction_matrix

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

HUBBELL = {
    "model": {"model": "polya_downup", "N": 100, "s": 1, "alpha": [180] * 5},
    "start": [0, 10, 0, 10, 80],
    "epsilon": 0.01,
}

DELTA_MORAN = {
    "model": {
        "model": "moran_general",
        "N": 6,
        "mutation_matrix": [
            [0.50, 0.30, 0.20],
            [0.30, 0.55, 0.15],
            [0.05, 0.00, 0.95],
        ],
    },
    "start": [1, 2, 3],
    "epsilon": 0.01,
}


COUPLE = {
    "model": {"model": "polya_level", "N": 6, "s": 2, "alpha": [1.0, 2.0, 1.5]},
    "start": [0, 0, 6],
    "start_upper": [2, 2, 2],
    "seed": 5,
    "replicates": 3,
    "max_steps": 20,
}


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bounds_reproduces_flagship_numbers(tmp_path, capsys):
    cfg = _write(tmp_path, HUBBELL)
    out_path = tmp_path / "report.json"
    assert main(["bounds", "--config", cfg, "--output", str(out_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lower_coeff"] == 0.375
    assert doc["upper_coeff"] == 100.0
    assert doc["steps_necessary"] == 401
    assert doc["steps_sufficient"] == 1018
    assert doc["steps_crude"] == 5432
    assert doc["lambda"] == pytest.approx(1 - 1 / 111, abs=1e-12)
    assert json.loads(out_path.read_text()) == doc


@pytest.mark.parametrize("name,necessary,sufficient,crude_steps", [
    ("hubbell.json", 401, 1018, 5432),
    ("moran_standard.json", 516, 1312, 5683),
    ("polya_level.json", 178, 518, 2002),
    ("ehrenfest.json", 321, 935, 3897),
])
def test_sample_configs_reproduce_goldens(capsys, name, necessary, sufficient, crude_steps):
    assert main(["bounds", "--config", str(CONFIG_DIR / name)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps_necessary"] == necessary
    assert doc["steps_sufficient"] == sufficient
    assert doc["steps_crude"] == crude_steps


def test_bounds_start_override(tmp_path, capsys):
    cfg = _write(tmp_path, HUBBELL)
    assert main(["bounds", "--config", cfg, "--start", "0,0,0,0,100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # From the minimal state: |f| = N(1 - p_d) = 80.
    assert doc["lower_coeff"] == 0.5
    assert doc["upper_coeff"] == 80.0


def test_bounds_crude_is_null_for_general_moran(tmp_path, capsys):
    cfg = _write(tmp_path, DELTA_MORAN)
    assert main(["bounds", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["crude_coeff"] is None and doc["steps_crude"] is None
    assert doc["steps_necessary"] <= doc["steps_sufficient"]


def test_bounds_epsilon_above_coefficients(tmp_path, capsys):
    cfg = _write(tmp_path, HUBBELL)
    assert main(["bounds", "--config", cfg, "--epsilon", "200"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps_necessary"] == 0 and doc["steps_sufficient"] == 0


def test_exact_curve_csv(tmp_path, capsys):
    doc = {
        "model": {"model": "ehrenfest", "N": 8, "s": 1, "p": [1 / 3, 1 / 3, 1 / 3]},
        "start": [0, 2, 6],
        "n_max": 20,
    }
    cfg = _write(tmp_path, doc)
    out = tmp_path / "curve.csv"
    assert main(["exact", "--config", cfg, "--output", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["n", "tv_exact", "lower_bound", "upper_bound", "crude_bound"]
    assert len(rows) == 22
    for n, tv, lo, up, crude in rows[1:]:
        assert float(lo) - 1e-11 <= float(tv) <= float(up) + 1e-11
        assert float(tv) <= float(crude) + 1e-11
    # Determinism: a second run writes byte-identical output.
    first = out.read_text()
    assert main(["exact", "--config", cfg, "--output", str(out)]) == 0
    assert out.read_text() == first


def test_exact_single_row_curve(tmp_path, capsys):
    model = {"model": "ehrenfest", "N": 6, "s": 1, "p": [0.3, 0.3, 0.4]}
    cfg = _write(tmp_path, {"model": model, "start": [0, 0, 6], "n_max": 0})
    assert main(["exact", "--config", cfg]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2
    from monochain import Ehrenfest

    tm = build_matrix(Ehrenfest(6, 1, (0.3, 0.3, 0.4)))
    pi = stationary(tm)
    assert float(rows[1][1]) == pytest.approx(1 - pi[tm.index[(0, 0, 6)]], abs=1e-10)


def test_exact_computes_no_step_counts(tmp_path, capsys, monkeypatch):
    # exact prints each coefficient times lam^n and no step count, so what
    # the step counts refuse (steps_to_epsilon wants 0 < lam < 1 and a
    # finite coefficient) cannot stop the curve.
    cfg = _write(tmp_path, dict(COUPLE, n_max=5))
    assert main(["exact", "--config", cfg]) == 0
    want = capsys.readouterr().out

    def refused(*args):
        raise AssertionError("step count computed")

    monkeypatch.setattr(bounds, "steps_to_epsilon", refused)
    monkeypatch.setattr(bounds, "_report_steps", refused)
    assert main(["exact", "--config", cfg]) == 0
    assert capsys.readouterr().out == want


def test_exact_rejects_oversized_state_space(tmp_path, capsys):
    cfg = _write(tmp_path, HUBBELL)
    assert main(["exact", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "state space too large" in err and "reduce N" in err


def test_exact_refuses_an_overlong_curve_with_exit_3(tmp_path):
    # A curve of 10^12 points would need 7.3 TiB; it is refused before any
    # allocation, in a child whose address space is capped at 2 GB.
    resource = pytest.importorskip("resource")
    cap = 2 * 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(monochain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "monochain.cli", "exact", "--config",
         str(CONFIG_DIR / "couple_small.json"), "--n-max", str(10**12)],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "TV curve too long" in proc.stderr


# The crude coefficient exp(-log pi(x) / 2) / 2 at this start is past the float range.
OVERFLOWING_CRUDE = {
    "model": {"model": "moran_standard", "N": 5000, "m": 0.5, "p": [0.5, 0.5]},
    "start": [5000, 0],
}


@pytest.mark.parametrize("doc,argv,message", [
    (OVERFLOWING_CRUDE, ["bounds"], "math range error"),
    (OVERFLOWING_CRUDE, ["exact"], "math range error"),
    # crude_coeff / epsilon = 2.2e19 / 1e-300 is inf, so no step count exists.
    (HUBBELL, ["bounds", "--epsilon", "1e-300"], "infinity"),
], ids=["bounds", "exact", "bounds_tiny_epsilon"])
def test_overflow_exits_3_with_one_error_line(tmp_path, capsys, doc, argv, message):
    assert main(argv + ["--config", _write(tmp_path, doc)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert err.startswith("error: value beyond the float range (")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,doc", [
    # Rising products past the float range: NaN, or 0.0 where inf divides a
    # finite product.
    ("exact", {"model": {"model": "polya_updown", "N": 10, "s": 2,
                         "alpha": [4.98e189, 1.46e-110, 1.53e-93]}, "start": [0, 0, 10]}),
    ("exact", {"model": {"model": "polya_level", "N": 4, "s": 3,
                         "alpha": [3.34e257, 1.53e-269]}, "start": [0, 4]}),
    # A positive probability (7e-119)^5 that underflows to 0.
    ("exact", {"model": {"model": "ehrenfest", "N": 8, "s": 5,
                         "p": [3.4e-83, 1.0, 7.0e-119]}, "start": [0, 0, 8]}),
    # The summary's marginal TVs read the scalar entries of transition_prob.
    ("couple", {"model": {"model": "polya_level", "N": 530, "s": 2,
                          "alpha": [2.319198612343035e179, 3.609851512149163e93]},
                "start": [0, 530], "start_upper": [255, 275], "replicates": 2, "max_steps": 5}),
], ids=["exact_updown", "exact_level", "exact_underflow", "couple"])
def test_addition_law_beyond_the_float_range_exits_3(tmp_path, capsys, command, doc):
    assert main([command, "--config", _write(tmp_path, doc)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: urn addition law") and err.count("\n") == 1
    assert "beyond the float range" in err


def test_path_product_underflow_exits_3(tmp_path, capsys):
    doc = {"model": {"model": "ehrenfest", "N": 60, "s": 2, "p": [1e-161, 1.0]},
           "start": [0, 60]}
    assert main(["exact", "--config", _write(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: row from (51, 9)") and err.count("\n") == 1
    assert "float range" in err


def test_couple_makes_each_generator_as_its_replicate_starts(tmp_path, capsys, monkeypatch):
    # Replicate k runs with k + 1 generators made, not all of them up front;
    # the pinned digests below check that the streams are unchanged.
    made, seen = [], []
    default_rng, run_coupled = np.random.default_rng, coupling.run_coupled
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: made.append(None) or default_rng(*args))
    monkeypatch.setattr(coupling, "run_coupled",
                        lambda *args: seen.append(len(made)) or run_coupled(*args))
    assert main(["couple", "--config", _write(tmp_path, COUPLE)]) == 0
    assert seen == [1, 2, 3]


def test_couple_summary_and_trajectories(tmp_path, capsys):
    doc = {
        "model": {"model": "polya_level", "N": 6, "s": 2, "alpha": [1.0, 2.0, 1.5]},
        "start": [0, 0, 6],
        "start_upper": [2, 2, 2],
        "seed": 5,
        "replicates": 50,
        "max_steps": 400,
    }
    cfg = _write(tmp_path, doc)
    traj_path = tmp_path / "traj.csv"
    assert main(["couple", "--config", cfg, "--trajectories", str(traj_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["order_violations"] == 0
    assert summary["replicates"] == 50
    assert 0 <= summary["marginal_tv_x"] <= 1
    assert summary["coalesced"] >= 1
    rows = list(csv.reader(traj_path.read_text().splitlines()))
    assert rows[0] == ["replicate", "step", "x", "y", "coalesced"]
    assert rows[1][:3] == ["0", "0", "0;0;6"]

    # Same config and seed: identical summary.
    assert main(["couple", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out) == summary


def test_successive_main_calls_share_no_parsed_state(tmp_path, capsys, monkeypatch):
    seen = []
    real = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path, args: seen.append(args) or real(path, args))
    couple_cfg = _write(tmp_path, COUPLE, "couple.json")
    bounds_cfg = _write(tmp_path, HUBBELL, "bounds.json")
    assert main(["couple", "--config", couple_cfg, "--seed", "9", "--max-steps", "5",
                 "--replicates", "2", "--start-upper", "3,3,0"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["bounds", "--config", bounds_cfg, "--epsilon", "0.05"]) == 0
    capsys.readouterr()
    assert main(["couple", "--config", couple_cfg]) == 0
    last = json.loads(capsys.readouterr().out)
    assert (first["max_steps"], first["replicates"]) == (5, 2)
    assert (last["max_steps"], last["replicates"]) == (COUPLE["max_steps"], COUPLE["replicates"])
    assert len({id(args) for args in seen}) == 3
    assert vars(seen[1]) == {"command": "bounds", "config": bounds_cfg, "start": None,
                             "epsilon": 0.05, "output": None}
    assert vars(seen[2]) == {"command": "couple", "config": couple_cfg, "start": None,
                             "seed": None, "start_upper": None, "replicates": None,
                             "max_steps": None, "trajectories": None, "summary": None}


def test_couple_checks_the_mutation_matrix_once_per_run(tmp_path, capsys, perron_runs):
    # The eigendata and all six replicates share one condition check.
    doc = dict(DELTA_MORAN, start_upper=[2, 2, 2], replicates=6, max_steps=30)
    assert main(["couple", "--config", _write(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["replicates"] == 6
    assert len(perron_runs) == 1


def test_couple_contraction_statistics(tmp_path, capsys):
    doc = {
        "model": {"model": "polya_downup", "N": 8, "s": 1, "alpha": [1.0, 1.5, 0.5]},
        "start": [0, 0, 8],
        "start_upper": [3, 3, 2],
        "seed": 11,
        "replicates": 400,
        "max_steps": 300,
    }
    cfg = _write(tmp_path, doc)
    assert main(["couple", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    # One-step gap statistics agree with the eigenvalue contraction.
    gap = abs(summary["contraction_gap_mean"] - summary["contraction_gap_expected"])
    assert gap <= 3 * summary["contraction_gap_se"]


def test_couple_equal_starts(tmp_path, capsys):
    doc = {
        "model": {"model": "ehrenfest", "N": 6, "s": 1, "p": [0.3, 0.3, 0.4]},
        "start": [1, 2, 3],
        "start_upper": [1, 2, 3],
        "replicates": 10,
        "max_steps": 50,
    }
    cfg = _write(tmp_path, doc)
    assert main(["couple", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["coalesced"] == 10
    assert summary["coalescence_quantiles"]["q100"] == 0.0


def test_couple_rejects_unordered_pair(tmp_path, capsys):
    doc = {
        "model": {"model": "ehrenfest", "N": 6, "s": 1, "p": [0.3, 0.3, 0.4]},
        "start": [2, 2, 2],
        "start_upper": [0, 0, 6],
        "replicates": 5,
        "max_steps": 10,
    }
    cfg = _write(tmp_path, doc)
    assert main(["couple", "--config", cfg]) == 2
    assert "not ordered" in capsys.readouterr().err


# sha256 of (stdout, trajectories CSV) of `couple` runs: any change to the
# seeded draws, the summary or the CSV layout shows here.
COUPLE_DIGESTS = [
    (json.loads((CONFIG_DIR / "couple_small.json").read_text()),
     "f8cdaa0b23e47d8bb8f3c30f1dc5e1b81cef70d5d14a7802df6b11386bba271d",
     "9e577ff4d747799c22e11fdff8805c7fee66b30c07dfc95b65227dab875a3f55"),
    ({"model": {"model": "moran_standard", "N": 100, "m": 0.3, "p": [0.25, 0.35, 0.4]},
      "start": [0, 0, 100], "start_upper": [40, 30, 30], "seed": 11,
      "replicates": 6, "max_steps": 80},
     "53c468635d76222faf494ab6c3ba6ffa0fa437b227057185827e590c866a94bf",
     "e92b51ffff617db5f4532a452761bca8184924bbc1309496e98da3520c407320"),
    # Four of the eight replicates coalesce within the budget.
    ({"model": {"model": "polya_updown", "N": 20, "s": 3, "alpha": [1.5, 2.0, 1.0]},
      "start": [0, 0, 20], "start_upper": [10, 6, 4], "seed": 5,
      "replicates": 8, "max_steps": 80},
     "7fb8caabd6a52f2d3fcb56295baa43a4155a8ba3be2e32f494a31e49c7cbbe65",
     "2d6b1b87e5f37a5537554ce107f95bf212fbdc7f5c7e207afa2fd6d352e01293"),
]


@pytest.mark.parametrize("doc,stdout_sha,csv_sha", COUPLE_DIGESTS,
                         ids=["couple_small", "moran_standard", "polya_updown"])
def test_couple_outputs_match_pinned_digests(tmp_path, capsys, doc, stdout_sha, csv_sha):
    cfg = _write(tmp_path, doc)
    traj = tmp_path / "traj.csv"
    assert main(["couple", "--config", cfg, "--trajectories", str(traj)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(traj.read_bytes()).hexdigest() == csv_sha


def test_couple_builds_no_rows_without_trajectories(tmp_path, capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("trajectory rows built without --trajectories")

    monkeypatch.setattr(coupling, "trajectory_csv", no_rows)
    assert main(["couple", "--config", _write(tmp_path, COUPLE)]) == 0
    assert json.loads(capsys.readouterr().out)["replicates"] == 3


def test_couple_failed_replicate_writes_no_rows(tmp_path, capsys, monkeypatch):
    run_coupled = coupling.run_coupled
    calls = []

    def second_breaks_order(*args):
        calls.append(None)
        if len(calls) == 2:
            raise CouplingOrderError("injected")
        return run_coupled(*args)

    monkeypatch.setattr(coupling, "run_coupled", second_breaks_order)
    traj = tmp_path / "traj.csv"
    assert main(["couple", "--config", _write(tmp_path, COUPLE),
                 "--trajectories", str(traj)]) == 1
    assert json.loads(capsys.readouterr().out)["order_violations"] == 1
    rows = list(csv.reader(traj.read_text().splitlines()))
    assert {row[0] for row in rows[1:]} == {"0", "2"}


def test_couple_at_a_billion_individuals_in_bounded_memory(tmp_path):
    # The coupler holds block boundaries, not N labels: N = 10^9 runs in a
    # child process whose address space is capped at 2 GB.
    resource = pytest.importorskip("resource")
    n = 10**9
    doc = {
        "model": {"model": "moran_standard", "N": n, "m": 0.3, "p": [0.25, 0.35, 0.4]},
        "start": [0, 0, n],
        "start_upper": [n // 2, 2 * n // 5, n // 10],
        "seed": 3,
        "replicates": 2,
        "max_steps": 5,
    }
    cap = 2 * 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(monochain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "monochain.cli", "couple", "--config", _write(tmp_path, doc),
         "--trajectories", str(tmp_path / "traj.csv")],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=60)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["order_violations"] == 0 and summary["coalesced"] == 0
    rows = (tmp_path / "traj.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 6


def test_exact_at_twelve_thousand_states_in_bounded_memory(tmp_path):
    # N = 40, d = 4 has 12,341 states: a dense copy of the kernel alone would
    # be 1.2 GB, over the child's 1 GB address space.
    resource = pytest.importorskip("resource")
    doc = {
        "model": {"model": "polya_level", "N": 40, "s": 1, "alpha": [1.0, 2.0, 1.5, 0.5]},
        "start": [40, 0, 0, 0],
        "n_max": 50,
    }
    cap = 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(monochain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "monochain.cli", "exact", "--config", _write(tmp_path, doc)],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    assert len(rows) == 51
    assert all(float(r["lower_bound"]) - 1e-11 <= float(r["tv_exact"])
               <= float(r["upper_bound"]) + 1e-11 for r in rows)


def test_exact_at_d5_in_bounded_memory(tmp_path):
    # N = 30, d = 5: 46,376 states.  A level-order Polya kernel of 4.8M
    # nonzeros and its power iteration fit a 2 GB address space, and so does
    # an Ehrenfest kernel with its two stages; a sparse LU of such a kernel
    # fills in beyond it.
    resource = pytest.importorskip("resource")
    models = [
        {"model": "polya_level", "N": 30, "s": 2, "alpha": [1.0, 2.0, 1.5, 0.5, 1.0]},
        {"model": "ehrenfest", "N": 30, "s": 2, "p": [0.2] * 5},
    ]
    cap = 2 * 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(monochain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for model in models:
        doc = {"model": model, "start": [30, 0, 0, 0, 0], "n_max": 20}
        proc = subprocess.run(
            [sys.executable, "-m", "monochain.cli", "exact", "--config", _write(tmp_path, doc)],
            capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert len(rows) == 21
        assert all(float(r["lower_bound"]) - 1e-11 <= float(r["tv_exact"])
                   <= float(r["upper_bound"]) + 1e-11 for r in rows)


# Imports the package in a fresh interpreter; given a command and config
# paths, runs `cli.main([command, "--config", path])` on each.  Prints the
# exit codes and what was loaded.
_LOADED_MODULES = """
import contextlib, io, json, sys
import monochain.cli
args = sys.argv[1:]
codes = []
for path in args[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(monochain.cli.main([args[0], "--config", path]))
print(json.dumps({"codes": codes, "exact": "monochain.exact" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _loaded_after(*args):
    src = str(Path(monochain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *args],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    # The exact engine's module is imported with the package; scipy is not.
    loaded = _loaded_after()
    assert loaded["exact"] and loaded["scipy"] == []


@pytest.mark.parametrize("command", ["bounds", "couple", "spectral"])
def test_subcommands_without_the_exact_engine_load_no_scipy(command):
    configs = sorted(str(p) for p in CONFIG_DIR.glob("*.json"))
    loaded = _loaded_after(command, *configs)
    assert 0 in loaded["codes"] and set(loaded["codes"]) <= {0, 2}
    assert loaded["scipy"] == []


def test_exact_loads_scipy_on_first_use():
    loaded = _loaded_after("exact", str(CONFIG_DIR / "couple_small.json"))
    assert loaded["codes"] == [0]
    assert "scipy.sparse" in loaded["scipy"]


@pytest.mark.parametrize("spec,x", [
    (MoranGeneral(6, delta_construction_matrix(0.05)), (1, 2, 3)),
    (MoranStandard(6, 0.4, (0.3, 0.2, 0.5)), (0, 0, 6)),
    (PolyaLevel(6, 2, (1.0, 2.0, 1.5)), (2, 2, 2)),
    (PolyaUpDown(6, 3, (1.0, 2.0, 1.5)), (0, 1, 5)),
    (PolyaDownUp(6, 2, (0.5, 2.0, 1.5)), (3, 0, 3)),
    (Ehrenfest(6, 3, (0.25, 0.35, 0.4)), (6, 0, 0)),
], ids=["moran_general", "moran_standard", "polya_level", "polya_updown", "polya_downup",
        "ehrenfest"])
def test_marginal_tv_matches_full_row(spec, x):
    row = transition_row(spec, x)
    rng = np.random.default_rng(17)
    for n in (1, 7, 400):
        samples = [sample_step(spec, x, rng) for _ in range(n)]
        counts = {z: samples.count(z) for z in set(samples)}
        full = 0.5 * sum(abs(counts.get(z, 0) / n - row.get(z, 0.0))
                         for z in set(counts) | set(row))
        assert _empirical_tv(spec, x, samples) == pytest.approx(full, abs=1e-14)


def test_couple_marginal_tv_at_thirty_balls_a_step(tmp_path, capsys):
    # A full row here would hold every removal x addition vector; the
    # marginal TV reads the row only at the observed successors.
    doc = {
        "model": {"model": "polya_level", "N": 1000, "s": 30, "alpha": [1.0, 2.0, 1.5, 0.5]},
        "start": [0, 0, 0, 1000],
        "start_upper": [300, 300, 200, 200],
        "seed": 5,
        "replicates": 2,
        "max_steps": 5,
    }
    cfg = _write(tmp_path, doc)
    t0 = time.perf_counter()
    assert main(["couple", "--config", cfg]) == 0
    assert time.perf_counter() - t0 < 10.0
    summary = json.loads(capsys.readouterr().out)
    assert 0.0 <= summary["marginal_tv_x"] <= 1.0 and 0.0 <= summary["marginal_tv_y"] <= 1.0


def test_spectral_standard_choice(tmp_path, capsys):
    doc = {
        "model": {"model": "moran_standard", "N": 100, "m": 0.7, "p": [0.2] * 5},
        "start": [0, 10, 0, 10, 80],
    }
    cfg = _write(tmp_path, doc)
    assert main(["spectral", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == 0.993
    assert out["c1"] == 1.0
    assert out["conditions"]["weak_domination_positive_eigenvector"] is True


def test_spectral_delta_construction(tmp_path, capsys):
    cfg = _write(tmp_path, DELTA_MORAN)
    assert main(["spectral", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["conditions"]["strict_domination"] is True
    assert out["conditions"]["weak_domination_irreducible"] is True


# General Moran configs (N = 6, d = 3 and N = 40, d = 5) and a standard one,
# with the sha256 of their ``monochain spectral`` stdout.
SPECTRAL_DIGESTS = [
    (DELTA_MORAN,
     "8cf0269667e602dadb1097b16dc58a6662fb3c7258d78a3e28a14b77f8f9757e"),
    ({"model": {"model": "moran_general", "N": 40, "mutation_matrix": [
        [0.08071615825672791, 0.14643777061443777, 0.39185423498327643,
         0.2965889893656557, 0.08440284677990217],
        [0.22028524852760262, 0.2392609517436984, 0.1073227538224566,
         0.3448428907608592, 0.08828815514538316],
        [0.15529309063472044, 0.19497148358129346, 0.16774864892089064,
         0.2171192021665572, 0.2648675746965382],
        [0.31269453761267424, 0.11373788659890009, 0.22159791636767612,
         0.23570965754989914, 0.11626000187085032],
        [0.02802026895454947, 0.052732886757197395, 0.01899997613400497,
         0.09510996702338655, 0.8051369011308616]]}, "start": [8] * 5},
     "2f24e26e66c48f5590fac4340c673519f021e473c519fd5f095089ce8a55cb70"),
    ({"model": {"model": "moran_standard", "N": 100, "m": 0.7, "p": [0.2] * 5},
      "start": [0, 10, 0, 10, 80]},
     "f1efc660d1a5b2401b7c2237de012ef687e93e173dd0194ed523ef53c1abdd36"),
]


@pytest.mark.parametrize("doc,digest", SPECTRAL_DIGESTS,
                         ids=["moran_general_d3", "moran_general_d5", "moran_standard"])
def test_spectral_makes_one_perron_run(tmp_path, capsys, perron_runs, doc, digest):
    # The condition flags and the eigendata share one Perron run; the report
    # is unchanged byte for byte.
    cfg = _write(tmp_path, doc)
    assert main(["spectral", "--config", cfg]) == 0
    assert len(perron_runs) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_couple_makes_one_perron_run(capsys, perron_runs):
    # The eigendata reuse the Perron run of the coupler's condition check.
    assert main(["couple", "--config", str(CONFIG_DIR / "moran_general.json")]) == 0
    assert json.loads(capsys.readouterr().out)["order_violations"] == 0
    assert len(perron_runs) == 1


def test_spectral_on_the_general_config_makes_one_perron_run(capsys, perron_runs):
    # The condition flags and the eigendata read one cached report.
    assert main(["spectral", "--config", str(CONFIG_DIR / "moran_general.json")]) == 0
    assert any(json.loads(capsys.readouterr().out)["conditions"].values())
    assert len(perron_runs) == 1


def test_spectral_failing_matrix_exits_nonzero(tmp_path, capsys):
    doc = {
        "model": {
            "model": "moran_general",
            "N": 6,
            "mutation_matrix": [
                [0.2, 0.4, 0.4],
                [0.3, 0.4, 0.3],
                [0.5, 0.1, 0.4],
            ],
        },
        "start": [1, 2, 3],
    }
    cfg = _write(tmp_path, doc)
    assert main(["spectral", "--config", cfg]) == 3
    assert "monotonicity" in capsys.readouterr().err


def test_spectral_rejects_urn_models(tmp_path, capsys):
    cfg = _write(tmp_path, HUBBELL)
    assert main(["spectral", "--config", cfg]) == 2


def test_validation_failures_exit_2(tmp_path, capsys):
    bad1 = _write(tmp_path, {"model": {"model": "nope", "N": 3}, "start": [1, 2]}, "b1.json")
    assert main(["bounds", "--config", bad1]) == 2
    capsys.readouterr()
    bad2 = _write(tmp_path, {"model": HUBBELL["model"], "start": [1, 1, 1]}, "b2.json")
    assert main(["bounds", "--config", bad2]) == 2
    capsys.readouterr()
    bad3 = _write(tmp_path, dict(HUBBELL, epsilon=-1), "b3.json")
    assert main(["bounds", "--config", bad3]) == 2
    capsys.readouterr()
    assert main(["bounds", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad4 = _write(
        tmp_path,
        {"model": {"model": "polya_level", "N": 5, "s": 1, "alpha": 180}, "start": [1, 4]},
        "b4.json",
    )
    assert main(["bounds", "--config", bad4]) == 2
    capsys.readouterr()
    bad5 = _write(tmp_path, dict(HUBBELL, start=[0, 10.5, 0, 9.5, 80]), "b5.json")
    assert main(["bounds", "--config", bad5]) == 2
    capsys.readouterr()
    # N and s must be JSON integers: floats, bools and numeric strings exit 2.
    for field, value in [("N", 100.0), ("N", 100.7), ("N", True), ("N", "100"),
                         ("s", 1.0), ("s", True), ("s", "1")]:
        model = dict(HUBBELL["model"], **{field: value})
        bad = _write(tmp_path, dict(HUBBELL, model=model), "b6.json")
        assert main(["bounds", "--config", bad]) == 2, (field, value)
        assert "must be an integer" in capsys.readouterr().err
    # Run settings are not coerced either: seed, replicates, max_steps and n_max
    # must be integers, epsilon a real number; seed must not be negative.
    couple = _write(tmp_path, COUPLE, "couple.json")
    assert main(["couple", "--config", couple]) == 0
    capsys.readouterr()
    for field, value, message in [
        ("replicates", 2.7, "must be an integer"),
        ("replicates", 2.0, "must be an integer"),
        ("max_steps", True, "must be an integer"),
        ("seed", 1.9, "must be an integer"),
        ("seed", "1", "must be an integer"),
        ("seed", None, "must be an integer"),
        ("n_max", "3", "must be an integer"),
        ("epsilon", True, "must be a real number"),
        ("epsilon", "0.01", "must be a real number"),
        ("epsilon", None, "must be a real number"),
        ("seed", -1, "seed >= 0"),
        ("start", [True, 0, 5], "must be an integer"),
        ("start", [1.0, 0, 5], "must be an integer"),
        ("start_upper", [2, 2, True], "must be an integer"),
    ]:
        bad = _write(tmp_path, dict(COUPLE, **{field: value}), "b7.json")
        for command in ("couple", "bounds"):
            assert main([command, "--config", bad]) == 2, (command, field, value)
            assert message in capsys.readouterr().err, (command, field, value)
    assert main(["couple", "--config", couple, "--seed", "-3"]) == 2
    capsys.readouterr()
    # A config that is not a JSON object exits 2, not with a traceback.
    for doc in (5, None, "model", [1]):
        bad = _write(tmp_path, doc, "b9.json")
        assert main(["bounds", "--config", bad]) == 2, doc
        assert "must be an object" in capsys.readouterr().err, doc


def test_options_a_subcommand_never_reads_exit_2(tmp_path, capsys):
    # --seed belongs to couple alone, and exact takes no --epsilon.
    cfg = _write(tmp_path, COUPLE, "couple.json")
    for argv in (["exact", "--config", cfg, "--epsilon", "0.1"],
                 ["exact", "--config", cfg, "--seed", "3"],
                 ["bounds", "--config", cfg, "--seed", "3"],
                 ["spectral", "--config", cfg, "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    # The config keys are unchanged: exact reads and checks epsilon and seed.
    assert main(["exact", "--config", _write(tmp_path, dict(COUPLE, epsilon=0.1, n_max=3))]) == 0
    assert main(["exact", "--config", _write(tmp_path, dict(COUPLE, epsilon=True))]) == 2


def test_bad_output_paths_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "no_such_dir" / "out")
    couple = _write(tmp_path, COUPLE, "couple.json")
    assert main(["couple", "--config", couple, "--trajectories", missing]) == 2
    assert main(["couple", "--config", couple, "--summary", missing]) == 2
    assert main(["bounds", "--config", couple, "--output", missing]) == 2
    assert main(["exact", "--config", couple, "--output", missing]) == 2
    assert "cannot write" in capsys.readouterr().err
    # A number is not a path: it would open (and close) that file descriptor.
    for key in ("output", "trajectories", "summary"):
        bad = _write(tmp_path, dict(COUPLE, **{key: 2}), "b8.json")
        assert main(["couple", "--config", bad]) == 2
        assert "must be a path string" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["couple_small.json", "moran_general.json"])
def test_exact_csv_is_csv_writer_bytes(capsys, name):
    # The text equals csv.writer's bytes for the same rows, CRLF line ends
    # included; the general Moran chain has no crude bound, so its last
    # field is empty.
    path = str(CONFIG_DIR / name)
    assert main(["exact", "--config", path]) == 0
    out = capsys.readouterr().out
    cfg = cli.load_config(path, argparse.Namespace())
    lam, lower, upper, crude = bounds.bound_coefficients(cfg.spec, cfg.start)
    curve = tv_curve(build_matrix(cfg.spec), cfg.start, cfg.n_max)
    decays = itertools.accumulate([1.0] + [lam] * cfg.n_max, operator.mul)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["n", "tv_exact", "lower_bound", "upper_bound", "crude_bound"])
    writer.writerows(
        (n, f"{tv:.12g}", f"{lower * decay:.12g}", f"{upper * decay:.12g}",
         "" if crude is None else f"{crude * decay:.12g}")
        for n, (tv, decay) in enumerate(zip(curve, decays)))
    assert out == buf.getvalue()
    assert out.count("\r\n") == cfg.n_max + 2
    assert out.startswith("n,tv_exact,lower_bound,upper_bound,crude_bound\r\n0,")
    if crude is None:
        assert out.endswith(",\r\n")


# ---------------------------------------------------------------------------
# The exit contract: the exception class decides the exit code
# ---------------------------------------------------------------------------

def _subclasses(cls):
    """Every subclass of cls, walked recursively."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


EXIT_CODES = {
    "ValidationError": 2,
    "CapacityError": 3,
    "PerronConvergenceError": 3,
    "NoMonotoneConditionError": 3,
    "UnknownStationaryError": 3,
    "StationaryConvergenceError": 3,
    "EigenConsistencyError": 1,
    "CouplingOrderError": 1,
}


def test_every_error_class_has_an_exit_code():
    assert {cls.__name__ for cls in _subclasses(MonochainError)} == set(EXIT_CODES)


@pytest.mark.parametrize("exc_type", [OverflowError, *_subclasses(MonochainError)],
                         ids=lambda cls: cls.__name__)
def test_the_error_class_decides_the_exit_code(tmp_path, capsys, monkeypatch, exc_type):
    def fail(cfg):
        raise exc_type("the cause")

    monkeypatch.setattr(cli, "cmd_bounds", fail)
    expected = 3 if exc_type is OverflowError else EXIT_CODES[exc_type.__name__]
    assert main(["bounds", "--config", _write(tmp_path, HUBBELL)]) == expected
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "the cause" in err
    assert err.startswith("internal error: " if expected == 1 else "error: ")


def _cli_child(argv, stdout):
    """Exit code and stderr of the CLI in a child whose stdout is block-buffered.

    PYTHONUNBUFFERED is removed: with it, a failed write shows at once, and
    the failure of the flush at exit does not show.
    """
    src = str(Path(monochain.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-m", "monochain.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    return proc.returncode, proc.stderr


# (command, config, the flags that name output files)
OUTPUT_RUNS = [
    ("bounds", "hubbell.json", ["--output"]),
    ("exact", "couple_small.json", ["--output"]),
    ("couple", "couple_small.json", ["--trajectories", "--summary"]),
    ("spectral", "moran_general.json", ["--output"]),
]


@pytest.mark.parametrize("command,config,file_flags", OUTPUT_RUNS,
                         ids=[run[0] for run in OUTPUT_RUNS])
def test_closed_stdout_exits_0_quietly(tmp_path, capsys, command, config, file_flags):
    # The reader of stdout has exited before the child starts: a run with or
    # without output files exits 0 with nothing on stderr, and the files
    # equal a normal run's.
    argv = [command, "--config", str(CONFIG_DIR / config)]

    def files(prefix):
        return [arg for flag in file_flags for arg in (flag, str(tmp_path / (prefix + flag)))]

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for extra in ([], files("closed")):
            assert _cli_child(argv + extra, write_end) == (0, ""), extra
    finally:
        os.close(write_end)
    assert main(argv + files("normal")) == 0
    capsys.readouterr()
    for flag in file_flags:
        assert (tmp_path / ("closed" + flag)).read_bytes() == \
            (tmp_path / ("normal" + flag)).read_bytes(), flag


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command,config,flag", [
    *((command, config, None) for command, config, _ in OUTPUT_RUNS),
    *((command, config, flag) for command, config, flags in OUTPUT_RUNS for flag in flags),
])
def test_full_device_exits_2_with_one_line(command, config, flag):
    # flag None: stdout is the full device.
    argv = [command, "--config", str(CONFIG_DIR / config)]
    if flag is None:
        with open("/dev/full", "w") as full:
            code, err = _cli_child(argv, full)
    else:
        code, err = _cli_child(argv + [flag, "/dev/full"], subprocess.DEVNULL)
    assert code == 2, err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_unwritable_file_leaves_the_callers_stdout_alone():
    # Only a stdout that itself fails is pointed at devnull: a caller of
    # main, whose stdout is a real descriptor, still prints after it.
    script = ("from monochain.cli import main; "
              f"code = main(['bounds', '--config', {str(CONFIG_DIR / 'hubbell.json')!r}, "
              "'--output', '/dev/full']); print('after', code)")
    src = str(Path(monochain.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0 and proc.stdout == "after 2\n", proc.stderr
    assert proc.stderr.startswith("error: cannot write output: ")


def test_json_numbers_are_rounded_to_12_significant_digits(tmp_path, capsys):
    cfg = _write(tmp_path, HUBBELL)
    assert main(["bounds", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    crude = doc["crude_coeff"]
    assert crude == float(f"{crude:.12g}")
    assert abs(crude - 2.2186e19) / 2.2186e19 < 1e-3

