"""Rescaling of wall times to a reference machine speed.

On a shared host the speed of one CPU can drift by a third or more within
seconds, as other tenants load the same cores. A run therefore times a fixed
reference kernel before and after every operation. The kernel is
interpreter-bound scalar and small-array work like oscnav's own, but shares
no code with it, so drift moves it and the operations alike while a change
to oscnav moves only the operations. An operation's reported time is its
wall time multiplied by ``REFERENCE_S`` over the mean of the two kernel
timings that bracket it; wider windows of samples tracked the drift worse.
Raw wall times are reported beside the rescaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel time that reported seconds are scaled to: about the kernel's time
# on the 2-core x86-64 host the benchmark was calibrated on (Python 3.11,
# numpy 2.4), so rescaled values read close to that host's wall seconds.
REFERENCE_S = 6.0e-4
KERNEL_REPEATS = 3


def reference_kernel():
    """Fixed work that never changes with oscnav: complex scalar steps and slices."""
    z, acc = complex(0.3, 0.1), 0.0
    c = s = 0.0
    for i in range(500):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        z = c * z + s * z.conjugate()
        acc += abs(z)
    a = np.ones(32, dtype=complex)
    for i in range(60):
        k = i % 32
        a[:k] = c * a[:k] + s * a[:k]
    return acc + abs(a.sum())


def kernel_seconds():
    """Median wall time of a few reference kernel calls."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed(fn):
    """Run ``fn`` between two kernel timings: (result, wall s, rescaled s)."""
    before = kernel_seconds()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = kernel_seconds()
    return result, wall, wall * REFERENCE_S / (0.5 * (before + after))
