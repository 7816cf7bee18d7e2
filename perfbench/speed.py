"""Machine-speed reference for the in-process timings.

On the shared machines this benchmark runs on, the speed of one core
swings by up to 2x within seconds and by about a third between otherwise
identical runs, as a plain counting loop shows. A fixed reference kernel,
timed between the measured operations, tracks that speed: in-process
timings are divided by ``factor()``, the kernel's time in this run over
``REFERENCE_NS``, so they read as on a machine running the kernel in
``REFERENCE_NS``. The kernel is made of the operations the engines spend
their time on (small numpy gathers and boolean reductions, called from
Python). It calls nothing of the program, and it allocates nothing: its
buffers are made once, so the program's allocations and garbage do not
change its time (README, *Machine speed*).
"""
from __future__ import annotations

import time

import numpy as np

#: Kernel time that scaled figures are read at. A shared 4-core x86-64
#: host ran the kernel in 55-140 us (median per run).
REFERENCE_NS = 56_000.0
_REPS = 5


class SpeedProbe:
    """Times the reference kernel on demand; keeps every sample."""

    def __init__(self):
        rng = np.random.default_rng(0)
        geq = rng.random((16, 16)) < 0.5
        rows = rng.integers(0, 16, size=(48, 4)).astype(np.intp)
        self._geq_cols = [np.ascontiguousarray(geq[:, v]) for v in range(16)]
        self._row_cols = [np.ascontiguousarray(rows[:, k]) for k in range(4)]
        self._ge = np.ones(48, dtype=bool)
        self._tmp = np.empty(48, dtype=bool)
        self.samples: list[int] = []

    def tick(self) -> None:
        """Run and time the reference kernel once."""
        geq_cols, row_cols, ge, tmp = self._geq_cols, self._row_cols, self._ge, self._tmp
        t = time.perf_counter_ns()
        for r in range(_REPS):
            ge.fill(True)
            for k in range(4):
                np.take(geq_cols[(r + k) % 16], row_cols[k], out=tmp)
                np.logical_and(ge, tmp, out=ge)
        self.samples.append(time.perf_counter_ns() - t)

    def burst(self, ticks: int = 100) -> int:
        """Sample ``ticks`` times; returns the index of the first sample."""
        start = len(self.samples)
        for _ in range(ticks):
            self.tick()
        return start

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Median kernel time of samples ``[start, stop)`` over the
        reference (>1: a slower machine)."""
        return float(np.median(self.samples[start:stop])) / REFERENCE_NS

    def local_factors(self, start: int, half_width: int = 25) -> np.ndarray:
        """Per-sample factor from ``start`` on: the running median of the
        ``2 * half_width + 1`` samples around each one."""
        x = np.asarray(self.samples[start:], dtype=float)
        pad = np.pad(x, half_width, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(pad, 2 * half_width + 1)
        return np.median(windows, axis=1) / REFERENCE_NS
