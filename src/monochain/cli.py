"""Batch command-line front end.

Subcommands:
    bounds    -- evaluate the two-sided TV bound and step counts (JSON)
    exact     -- exact TV curve with bound envelopes (CSV)
    couple    -- coupled trajectories and a coalescence summary (CSV + JSON)
    spectral  -- eigenvalue/eigenfunction report for Moran chains (JSON)

A run is configured by a single JSON document (--config) with optional flag
overrides.  Exit codes: 0 success, 2 validation failure, 3 capability failure
(state space over the cap, unknown stationary law, failed monotonicity, an
urn addition law, coefficient or step count beyond the float range).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import coupling, exact, spectral
from .errors import (
    CapacityError,
    CouplingOrderError,
    MonochainError,
    NoMonotoneConditionError,
    PerronConvergenceError,
    StationaryConvergenceError,
    UnknownStationaryError,
    ValidationError,
)
from .kernels import (
    ModelSpec,
    UrnSpec,
    as_integer,
    as_real,
    spec_from_json,
    transition_prob,
)
from .statespace import Composition, partial_leq, validate_composition

# OverflowError: the crude coefficient exp(-log pi(x) / 2) / 2 past the
# float range (MoranStandard(5000, 0.5, (0.5, 0.5)) from (5000, 0)), or a
# step count coeff / epsilon that is inf (epsilon = 1e-300).  Its message
# names no cause, so main prefixes one.
_CAPABILITY_ERRORS = (
    OverflowError,
    CapacityError,
    UnknownStationaryError,
    NoMonotoneConditionError,
    PerronConvergenceError,
    StationaryConvergenceError,
)


@dataclass
class RunConfig:
    spec: ModelSpec
    start: Composition
    epsilon: float = 0.01
    seed: int = 0
    replicates: int = 200
    max_steps: int = 10_000
    n_max: int = 200
    start_upper: Composition | None = None
    output: str | None = None
    trajectories: str | None = None
    summary: str | None = None


def _parse_start(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad composition {text!r}: expected comma-separated integers") from exc


def load_config(path: str, args: argparse.Namespace) -> RunConfig:
    """Read the config document and apply flag overrides."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "model" not in doc:
        raise ValidationError("config must be an object with a 'model' document")
    spec = spec_from_json(doc["model"])

    def pick(key):
        """The flag if given, else the document's value, else RunConfig's default."""
        flag = getattr(args, key, None)
        return doc.get(key, getattr(RunConfig, key, None)) if flag is None else flag

    def parse_state(value, name):
        if isinstance(value, str):
            value = _parse_start(value)
        try:
            counts = tuple(as_integer(c, f"{name} entry") for c in value)
        except TypeError as exc:
            raise ValidationError(f"bad {name}: {value!r}") from exc
        return validate_composition(counts, spec.N, spec.d)

    start = pick("start")
    if start is None:
        raise ValidationError("config must set 'start' (or pass --start)")
    start = parse_state(start, "start")

    start_upper = pick("start_upper")
    if start_upper is not None:
        start_upper = parse_state(start_upper, "start_upper")

    cfg = RunConfig(
        spec=spec,
        start=start,
        epsilon=as_real(pick("epsilon"), "epsilon"),
        start_upper=start_upper,
        **{key: as_integer(pick(key), key) for key in ("seed", "replicates", "max_steps", "n_max")},
        **{key: pick(key) for key in ("output", "trajectories", "summary")},
    )
    for key in ("output", "trajectories", "summary"):
        path = getattr(cfg, key)
        if path is not None and not isinstance(path, str):
            raise ValidationError(f"{key} must be a path string, got {path!r}")
    if not cfg.epsilon > 0.0:
        raise ValidationError(f"epsilon must be positive, got {cfg.epsilon}")
    if cfg.replicates < 1 or min(cfg.max_steps, cfg.n_max, cfg.seed) < 0:
        raise ValidationError("replicates must be >= 1; max_steps, n_max and seed >= 0")
    return cfg


def _round_floats(obj):
    """Render floats with 12 significant digits throughout a JSON document."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _open_output(path: str):
    """Open an output file for writing; an unwritable path is invalid input."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _emit_json(doc: dict, path: str | None) -> None:
    text = json.dumps(_round_floats(doc), indent=2)
    print(text)
    if path:
        with _open_output(path) as fh:
            fh.write(text + "\n")


def cmd_bounds(cfg: RunConfig) -> int:
    report = bounds_mod.bound_report(cfg.spec, cfg.start, cfg.epsilon)
    _emit_json(report.to_json_dict(), cfg.output)
    return 0


def cmd_exact(cfg: RunConfig) -> int:
    tm = exact.build_matrix(cfg.spec)
    lam, lower, upper, crude = bounds_mod.bound_coefficients(cfg.spec, cfg.start)
    curve = exact.tv_curve(tm, cfg.start, cfg.n_max)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "tv_exact", "lower_bound", "upper_bound", "crude_bound"])
    decay = 1.0
    for n, tv in enumerate(curve):
        writer.writerow([
            n,
            f"{tv:.12g}",
            f"{lower * decay:.12g}",
            f"{upper * decay:.12g}",
            "" if crude is None else f"{crude * decay:.12g}",
        ])
        decay *= lam
    text = buf.getvalue()
    if cfg.output:
        with _open_output(cfg.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_couple(cfg: RunConfig) -> int:
    if cfg.start_upper is None:
        raise ValidationError("couple needs 'start_upper' (the dominating start state)")
    spec, x0, y0 = cfg.spec, cfg.start, cfg.start_upper
    if not partial_leq(x0, y0):
        raise ValidationError(f"start pair is not ordered: {x0} !<= {y0}")
    ed = spectral.model_eigendata(spec)

    # Each replicate spawns its child seed as it starts, numbered in order as by one spawn.
    seeds = np.random.SeedSequence(cfg.seed)
    coalescence: list[int | None] = []
    first_x: list[Composition] = []
    first_y: list[Composition] = []
    violations = 0
    with contextlib.ExitStack() as stack:
        out = None
        if cfg.trajectories:
            # Each replicate's rows are written as soon as it finishes.
            out = stack.enter_context(_open_output(cfg.trajectories))
            out.write("replicate,step,x,y,coalesced\r\n")
        # Without a trajectories file only the first step is needed.
        keep_steps = None if out else 1
        for rep in range(cfg.replicates):
            rng = np.random.default_rng(seeds.spawn(1)[0])
            try:
                traj, coal = coupling.run_coupled(spec, x0, y0, cfg.max_steps, rng, keep_steps)
            except CouplingOrderError:
                # Should be impossible; surfaced in the summary so a broken
                # build cannot hide behind a clean exit.
                violations += 1
                continue
            coalescence.append(coal)
            if len(traj) > 1:
                first_x.append(traj[1].x)
                first_y.append(traj[1].y)
            if out:
                out.write(coupling.trajectory_csv(rep, traj, coal))

    coalesced = [c for c in coalescence if c is not None]
    quantiles = {}
    if coalesced:
        arr = np.asarray(coalesced, dtype=float)
        quantiles = {
            f"q{q}": float(np.percentile(arr, q)) for q in (0, 25, 50, 75, 90, 100)
        }

    summary = {
        "replicates": cfg.replicates,
        "max_steps": cfg.max_steps,
        "order_violations": violations,
        "coalesced": len(coalesced),
        "coalescence_quantiles": quantiles,
        "lambda": ed.lam,
    }
    if first_x:
        summary["marginal_tv_x"] = _empirical_tv(spec, x0, first_x)
        summary["marginal_tv_y"] = _empirical_tv(spec, y0, first_y)
        gaps = [ed.value(y) - ed.value(x) for x, y in zip(first_x, first_y)]
        mean = float(np.mean(gaps))
        se = float(np.std(gaps, ddof=1) / math.sqrt(len(gaps))) if len(gaps) > 1 else 0.0
        summary["contraction_gap_mean"] = mean
        summary["contraction_gap_expected"] = ed.lam * (ed.value(y0) - ed.value(x0))
        summary["contraction_gap_se"] = se
    _emit_json(summary, cfg.summary)
    return 0 if violations == 0 else 1


def _empirical_tv(spec: ModelSpec, x: Composition, samples) -> float:
    """TV between the empirical law of ``samples`` and the kernel row at x.

    The row is read only at the observed successors; the mass it puts
    elsewhere is 1 minus the mass it puts on them.
    """
    counts = Counter(samples)
    n = len(samples)
    probs = {z: transition_prob(spec, x, z) for z in counts}
    return 0.5 * (sum(abs(c / n - probs[z]) for z, c in counts.items())
                  + 1.0 - sum(probs.values()))


def cmd_spectral(cfg: RunConfig) -> int:
    if isinstance(cfg.spec, UrnSpec):
        raise ValidationError("spectral report targets the Moran chains")
    ed = spectral.model_eigendata(cfg.spec)
    report = spectral.classify_conditions(cfg.spec.M)
    doc = ed.to_json_dict()
    doc["conditions"] = {
        "strict_domination": report.c1_holds,
        "weak_domination_irreducible": report.c2_holds,
        "weak_domination_positive_eigenvector": report.c3_holds,
    }
    _emit_json(doc, cfg.output)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="monochain",
        description="Monotone Markov chains: TV bounds, exact curves, couplings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--start", help="start state as comma-separated counts")

    p_bounds = sub.add_parser("bounds", help="TV bound report (JSON)")
    add_common(p_bounds)
    p_bounds.add_argument("--epsilon", type=float, help="target TV accuracy")
    p_bounds.add_argument("--output", help="also write the JSON report here")

    p_exact = sub.add_parser("exact", help="exact TV curve (CSV)")
    add_common(p_exact)
    p_exact.add_argument("--n-max", dest="n_max", type=int, help="curve length")
    p_exact.add_argument("--output", help="write the CSV here instead of stdout")

    p_couple = sub.add_parser("couple", help="coupled trajectories (CSV + JSON summary)")
    add_common(p_couple)
    p_couple.add_argument("--seed", type=int, help="RNG seed override")
    p_couple.add_argument("--start-upper", dest="start_upper",
                          help="dominating start state, comma-separated")
    p_couple.add_argument("--replicates", type=int, help="number of coupled runs")
    p_couple.add_argument("--max-steps", dest="max_steps", type=int,
                          help="step budget per replicate")
    p_couple.add_argument("--trajectories", help="write per-step trajectories CSV here")
    p_couple.add_argument("--summary", help="also write the summary JSON here")

    p_spec = sub.add_parser("spectral", help="eigenvalue/eigenfunction report (JSON)")
    add_common(p_spec)
    p_spec.add_argument("--output", help="also write the JSON report here")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "bounds": cmd_bounds,
        "exact": cmd_exact,
        "couple": cmd_couple,
        "spectral": cmd_spectral,
    }
    try:
        cfg = load_config(args.config, args)
        return handlers[args.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _CAPABILITY_ERRORS as exc:
        cause = f"value beyond the float range ({exc})" if isinstance(exc, OverflowError) else exc
        print(f"error: {cause}", file=sys.stderr)
        return 3
    except MonochainError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
