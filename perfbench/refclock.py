"""Times scaled to a reference speed.

On a shared host the speed of a core drifts by up to 2x within seconds
and between minutes, and CPU time drifts with wall time.  The benchmark
and its children therefore run pinned to one core, and the benchmark's
own process times a fixed pure-Python reference kernel on that core:
once before and once after each timed operation, and, while a CLI child
runs, about once a second with the child stopped.  A time is multiplied
by (REF_SECONDS / r) ** SENSITIVITY, where r is the mean of the
reference times taken over the operation.  Nothing in the reference
depends on the package under test.
"""
from __future__ import annotations

import os
import statistics
import time
from itertools import permutations

# Time of reference_kernel() on an idle core of the 2-vCPU Xeon host the
# benchmark was written on.  Scaled times read as seconds on that core.
REF_SECONDS = 0.0625
# CLI runs slow down less than the reference kernel does when the host
# is busy.  With this exponent, over six 35 s runs each of
# orbits-cold-d8-mu3_1 and orbits-warm-d8-mu6 on that host, the
# interquartile spread of the run medians of wall_s was 0.045 and 0.054
# of the median, against 0.18 and 0.12 unscaled, and 0.15 and 0.19 when
# the reference was timed only before and after each CLI run.
SENSITIVITY = 0.8


def reference_kernel() -> int:
    """Fixed interpreter-bound work: tuples, lists and a set over S_8,
    the kinds of operation the census sweep spends its time on."""
    acc = 0
    seen = set()
    for p in permutations(range(8)):
        inv = [0] * 8
        for i, j in enumerate(p):
            inv[j] = i
        q = tuple(inv[p[i]] for i in range(8))
        if q[0] == 0:
            seen.add(q)
        acc += q[3]
    return acc + len(seen)


def _reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class ReferenceClock:
    """Reference times around and during each measured operation."""

    def __init__(self):
        self._window = [_reference()]
        # The reference times behind the latest factor().
        self.last_window: list[float] = []

    def sample(self) -> None:
        """Time the reference while a measured operation is paused."""
        self._window.append(_reference())

    def factor(self) -> float:
        """Call right after a measurement; multiply its times by this."""
        self.sample()
        self.last_window = self._window
        self._window = [self._window[-1]]
        return (REF_SECONDS / statistics.fmean(self.last_window)) ** SENSITIVITY


def pin_to_one_core() -> None:
    """Pin this process, and so its children, to one core, the one the
    reference kernel runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
