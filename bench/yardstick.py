"""Calibration kernel that tracks the host's speed between calls.

On a shared host the same op can take 20 % longer for tens of seconds at a
time while other tenants load the machine.  The kernel below does a fixed
mix of interpreter work, vector arithmetic on an array the size of the
n = 4 000 lag-pair panel, and a small linear solve.  It never calls
``prodsys``, and it runs only between calls into the library, never inside
one, so a change to the library cannot move it.

:meth:`Yardstick.sample` times the kernel once untimed, to refill the caches
the previous call evicted, then at least ``RUNS`` times, and returns the
median.  :class:`Clock` samples it after every call into the library and
converts the call's wall time to reference seconds: the time the call would
take with the kernel at ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median kernel time on the reference host (Intel Xeon, 2 vCPUs, one BLAS thread)
NOMINAL_S = 0.00060
#: timed kernel runs per sample
RUNS = 5
#: shortest reach of the window of samples that scales a call, in seconds
MIN_WINDOW_S = 0.25
#: a sample after a call lasts at least this share of the call
SAMPLE_SHARE = 0.05


class Yardstick:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.random((36000, 8))
        self.w = rng.random((8, 8))
        self.r = np.empty(36000)
        self.sample()  # first calls into numpy and LAPACK pay one-time costs

    def kernel(self) -> float:
        acc = 0.0
        for i in range(2000):
            acc += (i % 7) * 0.5
        for j in range(2):
            np.matmul(self.x, self.w[j], out=self.r)
            acc += float(self.r.sum())
        return acc + float(np.linalg.solve(self.w @ self.w.T + np.eye(8), self.w[0])[0])

    def time(self) -> float:
        """Wall time of one kernel run, in seconds."""
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def sample(self, budget_s: float = 0.0) -> float:
        """Median wall time of the kernel runs in ``budget_s`` seconds, at least ``RUNS``.

        One untimed run first refills the caches the previous call evicted.
        """
        start = time.perf_counter()
        self.kernel()
        runs = [self.time() for _ in range(RUNS)]
        while time.perf_counter() - start < budget_s:
            runs.append(self.time())
        return statistics.median(runs)



class Clock:
    """Times calls into the library in wall and reference seconds.

    The yardstick is sampled after every call, never inside one.  The
    host's speed swings by 10-20 % within a tenth of a second, so one short
    sample can be far from the mean speed over a call of seconds.  So a
    sample keeps timing the kernel for ``SAMPLE_SHARE`` of the call before
    it, and a call's factor is ``NOMINAL_S`` over the mean of every sample
    taken within one call length (at least ``MIN_WINDOW_S``) of the call, on
    either side.  Samples after a call are needed, so factors are computed
    by :meth:`seconds` once the run's calls are done.
    """

    def __init__(self, yard: Yardstick) -> None:
        self.yard = yard
        self.samples: list[tuple[float, float]] = []  # (time taken, kernel seconds)
        self.calls: list[tuple[float, float]] = []  # (start, end)
        self._sample()

    def _sample(self, budget_s: float = 0.0) -> None:
        value = self.yard.sample(budget_s)
        self.samples.append((time.perf_counter(), value))

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.count(start, time.perf_counter())

    def count(self, start: float, end: float) -> None:
        """Record a call that ran from ``start`` to ``end`` (``perf_counter`` times)."""
        self.calls.append((start, end))
        self._sample(SAMPLE_SHARE * (end - start))

    def factor(self, i: int) -> float:
        start, end = self.calls[i]
        reach = max(end - start, MIN_WINDOW_S)
        near = [v for t, v in self.samples if start - reach <= t <= end + reach]
        return NOMINAL_S / (sum(near) / len(near))

    def seconds(self, first: int, stop: int) -> tuple[float, float]:
        """``(wall, reference)`` seconds of calls ``first`` to ``stop - 1``."""
        wall = ref = 0.0
        for i in range(first, stop):
            start, end = self.calls[i]
            wall += end - start
            ref += (end - start) * self.factor(i)
        return wall, ref
