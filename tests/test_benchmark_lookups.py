"""The names the benchmark harness under perfbench/ reads from the package.

perfbench/tracing.py wraps functions by (layer, name), and
perfbench/workloads.py calls ``mc.<name>`` and ``mc_cli.<name>`` and reads
``TransitionMatrix.states`` and ``.index``.  A removal or rename that would
break the benchmark fails here, in the tier-1 suite.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

import monochain as mc
import monochain.cli as mc_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced() -> tuple:
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing").TRACED
    finally:
        sys.path.remove(str(PERFBENCH))


def _attributes_read(module_alias: str) -> set[str]:
    """Every attribute read off the name module_alias in perfbench/workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == module_alias}


@pytest.mark.parametrize("layer,name", _traced())
def test_every_traced_function_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"monochain.{layer}"), name))


def test_every_name_the_workloads_read_exists():
    names = _attributes_read("mc")
    assert {"build_matrix", "bound_report", "coupled_step"} <= names
    assert not [n for n in sorted(names) if not hasattr(mc, n)]
    assert not [n for n in sorted(_attributes_read("mc_cli")) if not hasattr(mc_cli, n)]


def test_transition_matrix_states_and_index():
    tm = mc.build_matrix(mc.Ehrenfest(3, 1, (0.5, 0.5)))
    assert tm.states == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert [tm.index[x] for x in tm.states] == [0, 1, 2, 3]
