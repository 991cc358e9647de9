"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose single-process speed drifts by
tens of percent over minutes (CPU time tracks wall time, so it is not
scheduling).  A fixed reference kernel, which does not touch covbound, is
timed right before every CLI call, after the last one, and, for workloads
whose calls are long, inside them (``Workload.tick_after``).  Each call's
time is divided by the mean reference time around it and multiplied by
the kernel's nominal time, giving seconds on a host on which the kernel
takes its nominal time.  A slower program still reads slower; a slower
host does not.

There are two kernels, because work on small arrays in a Python loop and
work on large arrays slow down differently under contention; each
workload names the one that tracked it best on the baseline host.
"""

from __future__ import annotations

import math
import time

import numpy as np

REPEATS = 3  # one reading is the fastest of REPEATS runs of the kernel

_SMALL = np.linspace(-3.0, 3.0, 225)
_LARGE = np.linspace(-3.0, 3.0, 1 << 16)
_BUF = np.empty_like(_LARGE)  # allocated once, so the kernel adds no peak memory


def small_arrays() -> float:
    """Python loop over 225-element arrays, like a quadrature panel."""
    s = 0.0
    for i in range(300):
        y = np.exp(-0.5 * (_SMALL * (1.0 + i * 1e-4)) ** 2)
        s += float(np.dot(y, _SMALL)) + math.sqrt(i + 1.0)
    return s


def large_arrays() -> float:
    """Element-wise passes over a 64k-element array, like Monte Carlo draws."""
    s = 0.0
    for i in range(24):
        np.multiply(_LARGE, 1.0 + i * 1e-4, out=_BUF)
        np.multiply(_BUF, _BUF, out=_BUF)
        np.multiply(_BUF, -0.5, out=_BUF)
        np.exp(_BUF, out=_BUF)
        s += float(np.dot(_BUF, _LARGE))
    return s


KERNELS = {"small": small_arrays, "large": large_arrays}
# the kernels' times on the baseline host (a shared 2-core Xeon VM) when it
# ran fast; they set the scale of the scaled times, not their steadiness
NOMINAL_S = {"small": 1.0e-3, "large": 3.2e-3}


class SpeedProbe:
    """Readings of one reference kernel, and the time spent taking them."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.nominal = NOMINAL_S[kind]
        self.readings: list[float] = []
        self.spent = 0.0  # seconds inside tick(), to subtract from a call
        for _ in range(2):  # warm-up: first-call costs are not host speed
            self.kernel()

    def tick(self) -> None:
        t0 = time.perf_counter()
        best = math.inf
        for _ in range(REPEATS):
            t = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t)
        self.readings.append(best)
        self.spent += time.perf_counter() - t0

    def scale(self, first: int, last: int) -> float:
        """Nominal / mean reading over readings[first:last + 1]."""
        window = self.readings[first:last + 1]
        return self.nominal * len(window) / sum(window)
