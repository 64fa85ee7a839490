"""Host-speed calibration: wall time scaled to a reference host.

A shared machine switches between a fast and a slow mode (about 1.7x)
for stretches longer than a whole benchmark run, so raw wall-time
medians move by a quarter or more between runs of the same code.  A
fixed calibration loop, owned by the benchmark and never by the
program, runs after every operation and slows down with the host by
about the same factor as the simulator does.  Each operation's wall
time is divided by the host's slowdown around it,

    host_factor = mean(calibration before, calibration after) / REFERENCE_S

giving *reference-host* time: the wall time the operation would take on
a host that runs the calibration loop in :data:`REFERENCE_S`.  Raw wall
times are kept and reported beside the scaled ones.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Tuple

#: Calibration loop time on the reference host (seconds), about this
#: machine's time for the loop in its fast mode.
REFERENCE_S = 0.020

_ITERATIONS = 15_000


class _Event:
    __slots__ = ("time", "seq")

    def __init__(self, time_: int, seq: int):
        self.time = time_
        self.seq = seq

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def calibration_loop() -> int:
    """Fixed interpreter work of the simulator's kind: a set-associative
    tag walk with LRU stamps over a pseudo-random address stream, and a
    binary heap of small event objects."""
    tags = [[-1] * 8 for _ in range(64)]
    stamps = [[0] * 8 for _ in range(64)]
    heap: list = []
    counts: dict = {}
    hits = 0
    x = 12345
    for i in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = x >> 9
        row = tags[line & 63]
        tag = line >> 6
        if tag in row:
            hits += 1
            stamps[line & 63][row.index(tag)] = i
        else:
            stamp = stamps[line & 63]
            way = stamp.index(min(stamp))
            row[way] = tag
            stamp[way] = i
        if i & 7 == 0:
            heapq.heappush(heap, _Event(x & 4095, i))
            counts[x & 255] = counts.get(x & 255, 0) + 1
            if len(heap) > 64:
                hits += heapq.heappop(heap).seq & 1
    return hits


def calibrate() -> float:
    """Seconds for one calibration loop."""
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


class HostClock:
    """Times operations and scales them to the reference host.

    Consecutive operations share the calibration between them, so each
    operation costs one extra loop.
    """

    def __init__(self) -> None:
        calibrate()  # the first run pays one-off costs; discard it
        self._last = calibrate()

    def measure(self, fn: Callable, *args) -> Tuple[float, float, Any]:
        """(wall seconds, reference-host seconds, result) of ``fn(*args)``."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        return wall, self.scaled(wall), result

    def scaled(self, wall: float) -> float:
        """Reference-host seconds for a wall time just measured; runs the
        calibration that closes this operation and opens the next."""
        after = calibrate()
        factor = (self._last + after) / 2.0 / REFERENCE_S
        self._last = after
        return wall / factor
