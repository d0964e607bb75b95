"""Per-layer tracing from outside the program.

The tracer replaces a module's public functions with timing wrappers at every
attribute where callers look them up: the defining module, the package
namespace, and any ``monochain`` module that imported the function by name
(``bounds`` imports ``model_eigendata``, ``exact`` imports ``transition_row``
and ``enumerate_states``, ...).  Calls through module globals, such as
``spectral.perron`` from ``build_eigenfunction``, resolve to the wrapper
because the module attribute itself is replaced.  Nothing under ``src/`` is
edited; ``restore`` puts the original objects back.

A span's self time is its duration minus the time covered by traced calls
made inside it.
"""
from __future__ import annotations

import functools
import sys
import time

# (layer, function) pairs wrapped in a traced run.  Layer names are the
# monochain module names.
TRACED = (
    ("statespace", "enumerate_states"),
    ("kernels", "transition_row"),
    ("kernels", "sample_step"),
    ("exact", "build_matrix"),
    ("exact", "stationary"),
    ("exact", "tv_curve"),
    ("spectral", "model_eigendata"),
    ("spectral", "classify_conditions"),
    ("spectral", "perron"),
    ("bounds", "bound_report"),
    ("bounds", "crude_bound"),
    ("bounds", "steps_to_epsilon"),
    ("coupling", "coupled_step"),
    ("coupling", "run_coupled"),
    ("cli", "main"),
)


class Tracer:
    """Self time and call counts per traced function, plus result-derived counts."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name: str, fn, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_s.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children
                self.calls[name] = self.calls.get(name, 0) + 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, on_result: dict) -> None:
        """Wrap every function in TRACED wherever a monochain module exposes it.

        ``on_result`` maps "layer.function" to a callback (tracer, result)
        that derives counts from the result of a successful call.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "monochain" or n.startswith("monochain."))]
        for layer, fname in TRACED:
            original = getattr(sys.modules[f"monochain.{layer}"], fname)
            name = f"{layer}.{fname}"
            wrapper = self._wrap(name, original, on_result.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
