"""Seeded random configs through ``cli.main``: every run answers or exits cleanly.

Each config draws a family, d in 2..8, N log-uniform in 1..10^9, urn weights
from 1e-300 to 1e300, epsilon from 1e-300 to 0.99, and a corner or random
start.  ``bounds`` and ``spectral`` run on every config, ``exact`` on spaces
of at most 500 states and ``couple`` (2 replicates of 5 steps) below
N = 10^6.  Exit 0 must print a JSON document with no NaN or Infinity in it
(a CSV curve for ``exact``); exit 2 or 3 must print one ``error:`` line and
nothing on stdout; nothing else, an escaping exception or a RuntimeWarning
included, is an answer.

A second, seeded mix feeds malformed configs to all four subcommands: a
document that is not an object, non-numeric strings, a ragged mutation
matrix, a dict of urn weights, bool and float counts, and null or string
scalars.  Each is a small config that ``bounds`` answers until one field is
spoiled, and each spoiled one must exit 2 or 3 with one ``error:`` line.
"""
import csv
import json
import math

import numpy as np
import pytest

from monochain.cli import main

FAMILIES = ("moran_general", "moran_standard", "polya_level", "polya_updown",
            "polya_downup", "ehrenfest")
CONFIGS_PER_SEED = 100
EXACT_STATES = 500
COUPLE_N = 10**6


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _weights(rng, d: int) -> list[float]:
    """Positive weights: half the configs anywhere in [1e-300, 1e300], half near 1."""
    lo, hi = (1e-300, 1e300) if rng.random() < 0.5 else (0.1, 10.0)
    return [_log_uniform(rng, lo, hi) for _ in range(d)]


def _mutation_matrix(rng, d: int) -> list[list[float]]:
    """A random stochastic matrix; half of them with the last row dominated."""
    m = rng.random((d, d)) + 0.05
    m /= m.sum(axis=1, keepdims=True)
    if rng.random() < 0.5:
        last = m[: d - 1, : d - 1].min(axis=0) * rng.uniform(0.1, 1.0, d - 1)
        m[d - 1, : d - 1] = last
        m[d - 1, d - 1] = 1.0 - last.sum()
    return m.tolist()


def _state(rng, n: int, d: int) -> list[int]:
    """A corner of the simplex, or counts spread at random over the d types."""
    if rng.random() < 0.5:
        x = [0] * d
        x[int(rng.integers(d))] = n
        return x
    return [int(c) for c in rng.multinomial(n, rng.dirichlet(np.ones(d)))]


def _upper(rng, x: list[int]) -> list[int]:
    """A state above x: some of its last count moved to a random other type."""
    y = list(x)
    moved = int(rng.integers(y[-1] + 1))
    y[int(rng.integers(len(y) - 1))] += moved
    y[-1] -= moved
    return y


def _config(rng) -> dict:
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    d = int(rng.integers(2, 9))
    n = max(1, round(_log_uniform(rng, 1.0, 1e9)))
    model = {"model": family, "N": n}
    if family == "moran_general":
        model["mutation_matrix"] = _mutation_matrix(rng, d)
    elif family == "moran_standard":
        model["m"] = float(rng.uniform(1e-6, 1.0))
        model["p"] = rng.dirichlet(np.ones(d)).tolist()
    else:
        model["s"] = int(rng.integers(1, min(n, 5) + 1))
        weights = _weights(rng, d)
        if family == "ehrenfest":
            total = math.fsum(weights)
            model["p"] = [w / total for w in weights]
        else:
            model["alpha"] = weights
    start = _state(rng, n, d)
    return {
        "model": model,
        "start": start,
        "start_upper": _upper(rng, start) if rng.random() < 0.7 else _state(rng, n, d),
        "epsilon": _log_uniform(rng, 1e-300, 0.99),
        "seed": int(rng.integers(2**32)),
        "replicates": 2,
        "max_steps": 5,
        "n_max": int(rng.integers(0, 30)),
    }


def _commands(doc: dict) -> list[str]:
    n, d = doc["model"]["N"], len(doc["start"])
    commands = ["bounds", "spectral"]
    if math.comb(n + d - 1, d - 1) <= EXACT_STATES:
        commands.append("exact")
    if n < COUPLE_N:
        commands.append("couple")
    return commands


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_random_configs_answer_or_exit_cleanly(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "config.json"
    codes = []
    for _ in range(CONFIGS_PER_SEED):
        doc = _config(rng)
        path.write_text(json.dumps(doc))
        for command in _commands(doc):
            where = f"{command} on {json.dumps(doc)}"
            try:
                code = main([command, "--config", str(path)])
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__}: {exc} escaped main: {where}")
            out, err = capsys.readouterr()
            codes.append(code)
            assert code in (0, 2, 3), f"exit {code}: {err} {where}"
            if code:
                assert out == "", where
                assert err.startswith("error: ") and err.count("\n") == 1, where
            elif command == "exact":
                rows = list(csv.reader(out.splitlines()))
                assert rows[0] == ["n", "tv_exact", "lower_bound", "upper_bound",
                                   "crude_bound"], where
                assert len(rows) == doc["n_max"] + 2, where
            else:
                answer = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c}: {where}"))
                assert isinstance(answer, dict), where
    # The mix reaches answers and both kinds of refusal.
    assert {0, 2, 3} <= set(codes)


# Malformed configs: a valid small config (d <= 4, N <= 20) with one field spoiled.
COMMANDS = ("bounds", "spectral", "exact", "couple")
MODEL_COUNTS = ("N", "s")
RUN_COUNTS = ("seed", "replicates", "max_steps", "n_max")


def _small_config(rng, families=FAMILIES) -> dict:
    family = families[int(rng.integers(len(families)))]
    d = int(rng.integers(2, 5))
    n = int(rng.integers(2, 21))
    model = {"model": family, "N": n}
    if family == "moran_general":
        m = rng.random((d, d)) + 0.05
        m /= m.sum(axis=1, keepdims=True)
        # The last row strictly dominated, as in _mutation_matrix's dominated half.
        last = m[: d - 1, : d - 1].min(axis=0) * rng.uniform(0.1, 0.9, d - 1)
        m[d - 1] = [*last, 1.0 - last.sum()]
        model["mutation_matrix"] = m.tolist()
    elif family == "moran_standard":
        model["m"] = float(rng.uniform(0.1, 0.9))
        model["p"] = rng.dirichlet(np.ones(d)).tolist()
    else:
        model["s"] = int(rng.integers(1, 3))
        weights = [float(rng.uniform(0.5, 2.0)) for _ in range(d)]
        if family == "ehrenfest":
            model["p"] = [w / math.fsum(weights) for w in weights]
        else:
            model["alpha"] = weights
    return {"model": model, "start": [0] * (d - 1) + [n], "epsilon": 0.01,
            "replicates": 2, "max_steps": 5, "n_max": 5}


def _count_field(rng, doc: dict) -> tuple:
    """A field that must hold an integer: a model count, a run count or a start entry."""
    fields = [(doc["model"], key) for key in MODEL_COUNTS if key in doc["model"]]
    fields += [(doc, key) for key in RUN_COUNTS]
    if rng.random() < 0.25:
        return doc["start"], int(rng.integers(len(doc["start"])))
    return fields[int(rng.integers(len(fields)))]


def _non_object(rng, doc):
    if rng.random() < 0.5:
        return [[], "moran_standard", 3, None, [doc]][int(rng.integers(5))]
    doc["model"] = [doc["model"], "polya_level", 7][int(rng.integers(3))]
    return doc


def _non_numeric_string(rng, doc):
    text = ["ten", "", "1e3x", "nan", "0x10"][int(rng.integers(5))]
    scalars = [(doc["model"], key) for key in ("N", "m", "s") if key in doc["model"]]
    where, key = [*scalars, (doc, "epsilon"), _count_field(rng, doc)][int(rng.integers(len(scalars) + 2))]
    where[key] = text
    return doc


def _ragged_matrix(rng, doc):
    rows = doc["model"]["mutation_matrix"]
    rows[int(rng.integers(len(rows)))].pop()
    return doc


def _dict_weights(rng, doc):
    doc["model"]["alpha"] = {str(i): w for i, w in enumerate(doc["model"]["alpha"])}
    return doc


def _bool_count(rng, doc):
    where, key = _count_field(rng, doc)
    where[key] = bool(rng.integers(2))
    return doc


def _float_count(rng, doc):
    where, key = _count_field(rng, doc)
    where[key] = float(where[key]) + [0.0, 0.5][int(rng.integers(2))]
    return doc


def _null_or_string_scalar(rng, doc):
    scalars = [(doc["model"], key) for key in ("N", "m", "s") if key in doc["model"]]
    scalars += [(doc, key) for key in ("epsilon", *RUN_COUNTS)]
    where, key = scalars[int(rng.integers(len(scalars)))]
    where[key] = None if rng.random() < 0.5 else str(where[key])
    return doc


# Each spoiler with the families whose configs it can spoil.
SPOILERS = (
    (_non_object, FAMILIES),
    (_non_numeric_string, FAMILIES),
    (_ragged_matrix, ("moran_general",)),
    (_dict_weights, ("polya_level", "polya_updown", "polya_downup")),
    (_bool_count, FAMILIES),
    (_float_count, FAMILIES),
    (_null_or_string_scalar, FAMILIES),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_malformed_configs_exit_cleanly(tmp_path, capsys, seed):
    rng = np.random.default_rng(1000 + seed)
    path = tmp_path / "config.json"
    for spoil, families in SPOILERS:
        doc = _small_config(rng, families)
        # Unspoiled, the config gets an answer.
        path.write_text(json.dumps(doc))
        assert main(["bounds", "--config", str(path)]) == 0, json.dumps(doc)
        capsys.readouterr()
        doc = spoil(rng, doc)
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            where = f"{command} on {spoil.__name__}: {json.dumps(doc)}"
            try:
                code = main([command, "--config", str(path)])
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__}: {exc} escaped main: {where}")
            out, err = capsys.readouterr()
            assert code in (2, 3), f"exit {code}: {out}{err} {where}"
            assert out == "", where
            assert err.startswith("error: ") and err.count("\n") == 1, where
            assert "Traceback" not in err, where
