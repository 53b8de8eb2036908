"""Machine-speed calibration for the timed metrics.

A shared virtual machine, like the 2-vCPU one the baseline was taken on,
can change speed by up to half for a few seconds to minutes at a time
without showing CPU steal.  A fixed kernel that does not touch
``pairedsurv`` (an interpreter loop, and gathers, sorts, cumulative sums
and exponentials on numpy arrays of 10^3, 2x10^4 and 2x10^5 doubles: the
kinds of work the library's ops are made of) is timed between ops.  Each
op time is then scaled by ``REFERENCE_S`` over the kernel's median time
around that op, which gives op times at the reference machine speed.  A
change to the library moves the op times and leaves the kernel alone, so
it still shows in full.

The 2x10^5 part matters most: on the baseline machine the slow spells
hit large-array numpy code hardest, and without that part the scaled times
of all three workloads spread as much as the wall times.  The two larger
parts write into buffers allocated once, so that the kernel's time does
not depend on the allocator state the workload leaves behind.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time taken as the reference speed: about the kernel's median on the
# 2-vCPU machine of the baseline, 5-8 ms between runs (Intel Xeon,
# 2.1 GHz, Python 3.11.7, numpy 2.4.6, one BLAS thread).
REFERENCE_S = 0.008
# Kernel samples within this many seconds of an op scale that op.
WINDOW_S = 1.5
# The kernel takes this share of the time spent in ops.
SHARE = 0.05


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20260808)
        self._small = rng.random(1_000)
        # (array, gather order, two work buffers, repetitions)
        self._arrays = [(rng.random(n), rng.permutation(n), np.empty(n), np.empty(n), reps)
                        for n, reps in ((20_000, 2), (200_000, 1))]
        self.samples = []  # (time taken at, seconds)
        self._kernel_s = 0.0
        self._ops_s = 0.0

    def _run(self):
        s = 0
        for i in range(10_000):
            s += i * i
        x = self._small
        for _ in range(20):
            c = np.cumsum(x[np.argsort(x)])
            np.searchsorted(c, x)
            np.exp(-x) * c
        for x, order, a, b, reps in self._arrays:
            for _ in range(reps):
                np.take(x, order, out=a)
                a.sort()
                np.cumsum(a, out=b)
                np.exp(a, out=a)
                np.multiply(a, b, out=a)
        return s

    def sample(self) -> float:
        """Run the kernel once, record the sample and return its seconds."""
        start = time.perf_counter()
        self._run()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2.0, end - start))
        self._kernel_s += end - start
        return end - start

    def after(self, op_seconds):
        """Sample until the kernel has taken ``SHARE`` of all op time so far."""
        self._ops_s += op_seconds
        while self._kernel_s < SHARE * self._ops_s:
            self.sample()

    def scale(self, start, seconds) -> float:
        """Factor that puts an op of ``seconds`` begun at ``start`` at reference speed.

        The median of the samples within ``WINDOW_S`` of the op is used.
        Sampling starts before the first op and keeps up with the ops
        (``after``), so there is always one.
        """
        lo, hi = start - WINDOW_S, start + seconds + WINDOW_S
        return REFERENCE_S / statistics.median(
            s for at, s in self.samples if lo <= at <= hi)
