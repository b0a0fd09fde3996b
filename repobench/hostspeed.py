"""Host-speed calibration: divide the host's drift out of op timings.

Each vCPU of the shared 2-CPU reference host flips between a fast and a
~1.6x slower state every few hundred ms, and the share of slow time
drifts over tens of seconds, so raw host times of two runs of identical
work differ by more than any bound worth gating on.  The sequential
workloads therefore time a fixed reference kernel -- plain Python dict
and float work plus small numpy array ops, owned by this directory and
calling no ``repro`` code -- right before every op, in the same process
while the program under test is idle, and report each op scaled to a
host that runs the kernel in ``REF_S``:

    normalized = host_time * REF_S / mean(kernel samples bracketing it)

A change to the simulator moves its op times but not the kernel, so it
shows in full; a slow state of the host moves both and cancels.  Raw
host times stay in the detail line of every run.  ``service-fleet``
runs in several processes on both CPUs, which one in-process sample
cannot describe, so it reports raw host time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Kernel time of the reference host, the unit normalized times are in.
REF_S = 0.001


def kernel() -> float:
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
        acc += (i * 0.5) ** 0.5
    a = np.arange(256, dtype=float)
    for _ in range(40):
        a = a * 1.0001 + 0.5
        acc += float(a.sum())
    return acc


def kernel_s() -> float:
    """Host seconds one run of the kernel takes."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples over one timed phase and the factors they give."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, kernel s)

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = kernel_s()
        self.samples.append((start + seconds / 2, seconds))

    def factor(self, start: float, end: float) -> float:
        """REF_S over the mean kernel time of the samples inside
        [start, end] and the two bracketing it (the last before
        ``start``, the first after ``end``): samples right next to an op
        tell which state the CPU ran it in."""
        times = [t for t, _ in self.samples]
        first = max(bisect.bisect_right(times, start) - 1, 0)
        last = bisect.bisect_left(times, end)
        around = [k for _, k in self.samples[first:last + 1]]
        if not around:
            raise RuntimeError("no host-speed sample around a timed interval")
        return REF_S * len(around) / sum(around)

    def scale(self, start: float, end: float) -> float:
        """Normalized duration of the host interval [start, end]."""
        return (end - start) * self.factor(start, end)

    def median_kernel_ms(self) -> float:
        return statistics.median(k for _, k in self.samples) * 1e3
