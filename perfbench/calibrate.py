"""How fast this host runs right now, from a fixed unit of CPU work.

A shared host's CPU speed drifts by a fifth or more within seconds (a
busy hyperthread sibling, another tenant's cache traffic), so even the
CPU time of identical work differs from run to run.  The harness times a
fixed unit of its own work (:func:`unit`: interpreter-bound dict and
float work plus a numpy sort, the mix the program spends its time in)
interleaved with the measured operations, with the same clock, and
divides an operation's CPU time by the *slowness* around it: the median
unit time of the samples taken meanwhile over :data:`REFERENCE_S`.  The
program never runs this code, so a change to the program moves the
operations' time and not the unit's.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

#: Median CPU seconds of one :func:`unit` on the host the benchmark was
#: sized on (2-vCPU Intel Xeon guest, Python 3.11, numpy 2.4).  Frozen:
#: normalised figures read as CPU time on that host.
REFERENCE_S = 0.0030


def unit() -> float:
    """One fixed unit of work (about 3 ms on the reference host)."""
    table = {}
    for i in range(6000):
        table[str(i)] = i * 1.5
    total = 0.0
    for key, value in table.items():
        total += value / (len(key) + 1)
    values = np.arange(20000, dtype=np.float64)[::-1].copy()
    values.sort()
    return total + float((np.sqrt(values) * 1.1 + values)[-1])


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class Calibrator:
    """Unit timings of one run: (wall clock at the tick, CPU seconds)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def tick(self, n: int = 1) -> None:
        for _ in range(n):
            c0 = time.thread_time()
            unit()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def spent(self, start: float, end: float) -> float:
        """CPU seconds the ticks between two clock readings took."""
        return sum(s for t, s in self.samples if start <= t <= end)

    def slowness(self, start: float = float("-inf"),
                 end: float = float("inf")) -> float:
        """Median unit time between two clock readings (of the whole run
        when none fell between them) over the reference host's."""
        window = [s for t, s in self.samples if start <= t <= end]
        return _median(window or [s for _, s in self.samples]) / REFERENCE_S

    @contextmanager
    def every(self, interval: float):
        """Tick every ``interval`` seconds of process CPU time meanwhile.

        Uses the profiling timer (``SIGPROF``), which the program leaves
        alone; its real-time alarm guards task timeouts.
        """
        previous = signal.signal(signal.SIGPROF, lambda *_: self.tick())
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)
