"""The host's speed over a run, measured with a fixed calibration kernel.

The benchmark shares a few cores of a host whose speed drifts: the same
fixed work takes up to half as long again from one stretch of tens of
seconds to the next, and the stretches outlast a run. No statistic over
one run removes that. So the timed pass runs a fixed kernel every
INTERVAL_S of op time, and every time it reports is scaled by how fast
the kernel ran at that moment: ``scaled = raw * REFERENCE_S / kernel``,
with the kernel time interpolated in time. A scaled time is the time the
work would take on a host where the kernel takes REFERENCE_S.

The kernel mixes the kinds of work the package does, because the drift
does not slow them all alike:

* a pure-Python loop of small function calls and float arithmetic
  (quadrature, per-replicate overhead);
* building and sorting a dict keyed by formatted strings, which allocates
  many small objects (CSV formatting, report rows);
* a numpy sort of 50,000 floats, which fit in L2 (sampling and binning);
* 200,000 uniform draws into a fresh array, and a random gather from an
  8 MB array (sampling and the large arrays of mc-points and estimate).

Pure Python and memory traffic each take about half of the kernel's time.
Some slow phases of the host slow the memory-bound half far more than the
other, so a kernel of either half alone misjudges the other kind of work.

Each sample is the fastest of REPEATS runs of the kernel, which drops the
odd interrupt.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

INTERVAL_S = 0.2
REPEATS = 2
# the kernel's typical time on the machine the README's figures come from
REFERENCE_S = 4.0e-3

_ARRAY = np.random.default_rng(0).random(50_000)
_LARGE = np.random.default_rng(1).random(1 << 20)
_GATHER = np.random.default_rng(2).integers(0, 1 << 20, 40_000)


def _term(x):
    return math.exp(-x) * 0.5 + x


def kernel():
    total = 0.0
    for i in range(3000):
        total += _term(i * 1e-4)
    rows = {f"row{i}": (i, [i]) for i in range(1000)}
    total += sorted(rows.items(), key=lambda kv: -kv[1][0])[0][1][0]
    np.sort(_ARRAY)
    total += np.random.default_rng(0).random(200_000)[0]
    total += _LARGE[_GATHER].sum()
    return total


class HostSpeed:
    """Kernel times sampled over a pass, and the scaling they imply."""

    def __init__(self):
        self.times = []
        self.kernel_s = []

    def sample(self):
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.kernel_s.append(best)

    def maybe_sample(self):
        """Sample if INTERVAL_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def kernel_at(self, t):
        """The kernel time at ``t``, linear between the samples around it."""
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.kernel_s[0]
        if i == len(self.times):
            return self.kernel_s[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        k0, k1 = self.kernel_s[i - 1], self.kernel_s[i]
        return k0 + (k1 - k0) * (t - t0) / (t1 - t0)

    def scale(self, seconds, at):
        """``seconds`` of work done around time ``at``, at the reference speed."""
        return seconds * REFERENCE_S / self.kernel_at(at)
