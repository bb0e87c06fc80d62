"""Host-speed gauge: op time converted to reference seconds.

The reference machine, a shared 2-vCPU VM, changes speed by 1.3-1.9x for
tens of seconds to minutes at a time, with CPU time equal to wall time.
A whole 32-s run can fall into one state, so no statistic taken inside a
run removes it: ten runs of one workload spread by up to a quarter of
their median.

The gauge runs a short fixed kernel that never touches the package: a
Python integer loop, ``Fraction`` arithmetic, a small NumPy expression
and float formatting, the kinds of work the package does.  The kernel
runs after every ``GAUGE_INTERVAL_S`` of op time, between ops.  Each
stretch of op time between two kernel runs is converted to reference
seconds by ``REFERENCE_KERNEL_S`` over the mean of those two kernel
times.  A change to the package moves reference seconds as it moves wall
seconds, since the kernel does not run package code; a change of host
speed moves the op time and the kernel time together, and largely
cancels.  How well it cancels differs by workload: see ``README.md``.

The kernel runs with the garbage collector off, so that its time does not
depend on how many objects the package keeps alive.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

#: About the kernel's time on the reference VM in its fast state.  Only a
#: scale: a reference second is about a wall second there at that speed.
REFERENCE_KERNEL_S = 0.011
#: Timed work between two kernel runs, in wall seconds.
GAUGE_INTERVAL_S = 0.3

_ARRAY = np.linspace(0.0, 1.0, 4096)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for k in range(60_000):
            total += k * k
        for k in range(1, 500):
            Fraction(k, k % 7 + 1) * Fraction(3, k % 11 + 2) + Fraction(1, k)
        for _ in range(160):
            float(np.exp(-_ARRAY * _ARRAY).sum())
        "".join(f"{x:.17g},{x * 3.0:.2f}\n" for x in _ARRAY[:2000].tolist())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Accumulates timed work in wall and reference seconds.

    Call ``add(seconds)`` after each timed piece of work and ``close()``
    at the end.  The kernel runs whenever ``GAUGE_INTERVAL_S`` of work has
    built up since the last run; it is not itself timed as work.
    """

    def __init__(self):
        self.wall = 0.0
        self.reference = 0.0
        self.kernels = [kernel_seconds()]
        self._pending = 0.0

    def add(self, seconds: float) -> None:
        self._pending += seconds
        if self._pending >= GAUGE_INTERVAL_S:
            self._settle()

    def close(self) -> None:
        if self._pending:
            self._settle()

    def _settle(self) -> None:
        self.kernels.append(kernel_seconds())
        self.wall += self._pending
        self.reference += self._pending * 2.0 * REFERENCE_KERNEL_S / sum(self.kernels[-2:])
        self._pending = 0.0


def reference_seconds(fn, *args):
    """Run ``fn(*args)`` once; return (its result, reference seconds)."""
    gauge = Gauge()
    start = time.perf_counter()
    result = fn(*args)
    gauge.add(time.perf_counter() - start)
    gauge.close()
    return result, gauge.reference
