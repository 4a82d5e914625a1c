"""Host seconds corrected for the host's own speed changes.

On a shared machine the CPU speed a single process gets drifts by about
±20% over a few seconds (other tenants on sibling cores, frequency
changes): the same pass of 200-sensor runs took between 3.4 s and 4.5 s
in twelve back-to-back repeats.  That noise hides changes of a few
percent.

:class:`SpeedClock` measures the drift while the benchmark runs.  Every
``PERIOD`` seconds a ``SIGALRM`` handler, which runs in the main thread
between bytecodes, times a fixed pure-Python probe of ~1.2 ms.  A
stretch of host time is then converted to *reference seconds*: each
slice between two probes counts as its length times
``REFERENCE_PROBE_S`` over the mean duration of the two probes around
it, and the probes' own time is left out.  On the repeats above this
cut the spread from 8-14% to 2-4%.  A reference second is a second of a
host on which the probe takes ``REFERENCE_PROBE_S`` (about the median
on the 2-core x86-64 VM the workloads were sized on).

The probe touches no program state, so outputs are unchanged (the
output check verifies that on every run).
"""

from __future__ import annotations

import bisect
import heapq
import math
import signal
import time
from typing import List

PERIOD = 0.1
REFERENCE_PROBE_S = 0.0009


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def distance(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


_TABLE = {i: i for i in range(256)}
_POINTS = [_Point(i * 0.37 % 50.0, i * 0.91 % 50.0) for i in range(64)]


def _probe() -> float:
    """Fixed work in the simulator's own mix: dict reads and writes,
    method calls on slotted objects with float math, and a binary heap
    of times.  It allocates no container the garbage collector tracks,
    so it cannot trigger a collection of the program's objects."""
    table = _TABLE
    total = 0
    for i in range(3000):
        total += table[i & 255]
        table[(i * 7) & 255] = i
    points = _POINTS
    distance = 0.0
    for i in range(800):
        distance += points[i & 63].distance(points[(i * 5) & 63])
    heap: list = []
    for i in range(600):
        heapq.heappush(heap, (i * 37) % 101 * 0.5)
    while heap:
        heapq.heappop(heap)
    return total + distance


class SpeedClock:
    """Samples host speed while active; converts host intervals."""

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._durations: List[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        _probe()
        self._durations.append(time.perf_counter() - start)
        self._starts.append(start)

    @property
    def samples(self) -> int:
        return len(self._starts)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of program time in ``[start, end]``.

        ``start`` and ``end`` are ``time.perf_counter()`` readings taken
        while the clock was active.
        """
        starts, durations = self._starts, self._durations
        # Probes starting inside the interval split it into slices.
        first = bisect.bisect_left(starts, start)
        last = bisect.bisect_right(starts, end)
        total = 0.0
        cursor = start
        for k in range(first, last + 1):
            slice_end = starts[k] if k < last else end
            before = durations[max(k - 1, 0)]
            after = durations[min(k, len(durations) - 1)]
            length = slice_end - cursor
            if length > 0:
                total += length * 2.0 * REFERENCE_PROBE_S / (before + after)
            if k < last:
                cursor = max(cursor, starts[k] + durations[k])
        return total
