"""Host-speed reference: a fixed piece of work timed between the benchmark's ops.

On a shared host the same code runs up to twice as fast in one minute as in
the next, in phases of seconds (CPU time slows with wall time, so it is not
scheduling).  Reported times are therefore scaled by ``NOMINAL_S / t_ref``,
where ``t_ref`` is the time of ``kernel`` around it: a time in "seconds at
nominal host speed".  A latency sample is scaled by the median of the eleven
reference times nearest to it, and a total over a run by the scales of the
samples it covers, weighted by their time.
The kernel uses no monochain code, so a change to the program moves the
scaled numbers as much as the raw ones; raw values are on the report line.
Interpreted code follows the kernel's slow phases; exact_desk, mostly dense
matrix products, does not, and reports unscaled times (``HOST_SCALED``).
"""
from __future__ import annotations

from time import perf_counter as _clock

import numpy as np

# About the kernel's time on the 2-vCPU x86 VM the benchmark was tuned on.
NOMINAL_S = 200e-6
INTERVAL_S = 0.02

_MATRIX = np.random.default_rng(0).random((6, 6)) + 0.1


def kernel() -> float:
    """Interpreted loops over ints, tuples and a dict, and a few small numpy calls."""
    acc = 0
    table: dict[int, tuple[int, int]] = {}
    for i in range(800):
        key = (i * 7) & 63
        acc += i * i - key
        table[key] = (i, acc & 1023)
    rows = _MATRIX / _MATRIX.sum(axis=1, keepdims=True)
    for _ in range(4):
        rows = rows @ _MATRIX
        rows /= rows.sum()
    return acc + float(np.abs(np.linalg.eigvals(rows)).max()) + len(table)


def trimmed_mean(values) -> float:
    """Mean without the highest and lowest tenth of the values."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    cut = len(ordered) // 10
    return float(np.mean(ordered[cut: len(ordered) - cut]))


class Reference:
    """Times of ``kernel``, taken at most every ``INTERVAL_S`` between ops."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self, times: int = 1) -> None:
        # An untimed first call warms the kernel's code and data, so that its
        # time depends less on what the program left in the caches.
        kernel()
        for _ in range(times):
            t0 = _clock()
            kernel()
            self.samples.append(_clock() - t0)
        self._next = _clock() + INTERVAL_S

    def maybe_sample(self) -> None:
        if _clock() >= self._next:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured alongside the samples into nominal seconds."""
        return NOMINAL_S / trimmed_mean(self.samples)

    def local_scales(self, at: np.ndarray) -> np.ndarray:
        """Scale for each time measured just before reference sample number ``at``."""
        times = np.asarray(self.samples)
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(times, 5, mode="edge"), 11)
        return NOMINAL_S / np.median(windows, axis=1)[np.minimum(at, len(times) - 1)]
