"""Machine-speed probe: every time the benchmark reports is rescaled to a
reference speed.

On a shared two-core machine the same du() call was measured between 24
and 52 ms within one minute, and the CPU time moved with the wall time, so
the swings are not time lost to other processes but a slower CPU. No run
length averages that out between two runs minutes apart. The probe times a
fixed kernel built from the work the library spends its time on (stacked
complex SVDs, products of their factors, small QRs, and interpreter-bound
loops over tiny arrays) right before and after each timed call. A call's
reported time is its measured time times REFERENCE_NS over the mean of the
two probes around it: the time the call would take on a machine where the
kernel takes REFERENCE_NS. The kernel is fixed here and calls nothing in
the library, so a change to the library cannot move it.

The rescaling removes most of the swing, not all: when the machine slows,
the kernel slows by about 1.65x and the library's calls by 1.3x to 1.6x,
depending on the workload, so a run's numbers still move a little with the
share of its calls made while the machine was slow.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel time on the machine the benchmark was defined on, rounded;
# it fixes the unit, not the comparison.
REFERENCE_NS = 3_500_000
REPEATS = 3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a8 = rng.standard_normal((16, 8, 8)) + 1j * rng.standard_normal((16, 8, 8))
        self._a2 = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
        self.factors: list[float] = []
        self._last = self._measure()

    def _kernel(self) -> None:
        for _ in range(2):
            u, _, vh = np.linalg.svd(self._a8)
            u @ vh
            u, _, vh = np.linalg.svd(self._a2)
            np.einsum("bij,bjk->bik", u, vh)
            for k in range(16):
                _, r = np.linalg.qr(self._a2[k])
                np.abs(np.diagonal(r)).sum()
        # interpreter-bound part: the library's small-channel paths and its
        # CSV writers spend much of their time here
        acc = 0.0
        for k in range(200):
            m = self._a2[k % 64]
            acc += float(np.abs(np.vdot(m, m))) + math.sqrt(k + 1.0)
            f"{acc:.17g},{k}"

    def _measure(self) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            self._kernel()
            times.append(time.perf_counter_ns() - t0)
        return statistics.median(times)

    def factor(self) -> float:
        """Reference-speed factor for the span since the previous call:
        multiply a time measured in that span by it."""
        now = self._measure()
        f = REFERENCE_NS / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(f)
        return f
