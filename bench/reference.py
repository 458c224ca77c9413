"""Reference kernels: how fast this machine runs at the moment.

On a shared VM one core switches between a fast and a slow speed, up to
1.8x apart, within fractions of a second, and the share of time spent slow
changes from minute to minute.  Raw times of runs a few minutes apart then
differ by more than a code change should be allowed to.  A worker therefore
times a fixed kernel of the benchmark's own between calls, and scales each
call's time by

    nominal_s / mean(kernel time just before it, kernel time just after it)

which reads it as seconds on a machine where the kernel takes nominal_s.
A change to the package cannot change the kernels, so a slower package still
shows as a slower scaled time.  Two kernels match the two kinds of work the
workloads do:

  python  pure-Python float arithmetic and dict stores, like the SINR
          admission loops of pg, pcg and the protocol.
  numpy   rank-1 updates of a 750 x 1000 float64 array, the shape of one
          simplex pivot on the benchmark's LPs.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

perf_counter = time.perf_counter


class PythonKernel:
    nominal_s = 0.006

    def run(self) -> float:
        table = {}
        total = 0.0
        for i in range(25000):
            x = math.hypot(i * 0.5, 3.0)
            table[i & 1023] = x
            total += x**-4.0
        return total


class NumpyKernel:
    nominal_s = 0.008

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._col = rng.random(750)
        self._row = rng.random(1000)

    def run(self) -> float:
        # Allocated per call, so the kernel holds no memory between items.
        tableau = np.ones((750, 1000))
        for _ in range(4):
            np.subtract(tableau, np.outer(self._col, self._row), out=tableau)
        return float(tableau[0, 0])


KERNELS = {"python": PythonKernel, "numpy": NumpyKernel}


class SpeedProbe:
    """Times one kernel on demand and turns raw seconds into nominal ones."""

    def __init__(self, kind: str) -> None:
        self.kernel = KERNELS[kind]()
        self.kernel.run()  # first call pays for allocation and page faults
        self.samples: list[float] = []

    def sample(self) -> None:
        begin = perf_counter()
        self.kernel.run()
        self.samples.append(perf_counter() - begin)

    def scale(self) -> float:
        """Factor over every sample so far."""
        return self.kernel.nominal_s / statistics.fmean(self.samples)

    def scale_between(self, i: int) -> float:
        """Factor for a call made between samples ``i`` and ``i + 1``."""
        return 2.0 * self.kernel.nominal_s / (self.samples[i] + self.samples[i + 1])
