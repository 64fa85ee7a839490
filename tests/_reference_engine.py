"""The one-event-at-a-time engine loop: the oracle for the batched drain.

:meth:`repro.sim.engine.Simulator.run` drains every event sharing a
timestamp in one inner loop.  :func:`run_reference` is the plain loop it
must agree with — one heap pop per iteration, probes and the ``until``
bound consulted before every live event — and the engine tests run the
same programs through both and compare what fired, when, and what is
left pending.
"""

from __future__ import annotations

import functools
import heapq
from typing import Optional

from repro.sim.engine import Simulator


def run_reference(
    sim: Simulator, until: Optional[int] = None, max_events: Optional[int] = None
) -> int:
    """Run ``sim`` like :meth:`Simulator.run`, one event per iteration."""
    if sim._running:
        raise RuntimeError("simulator is already running (re-entrant run())")
    sim._running = True
    sim._stop_requested = False
    fired = 0
    heap = sim._heap
    try:
        while heap and not sim._stop_requested:
            time, _seq, handle = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            if handle.cancelled:
                sim._cancelled_pending -= 1
                continue
            if sim._probes:
                sim._fire_probes_until(time)
            sim.now = time
            handle.fire()
            fired += 1
            sim._events_fired += 1
            if max_events is not None and fired >= max_events:
                break
        if until is not None and sim.now < until and not sim._stop_requested:
            if sim._probes:
                sim._fire_probes_until(until)
            sim.now = until
    finally:
        sim._running = False
    return fired


def reference_simulator() -> Simulator:
    """A fresh :class:`Simulator` whose ``run`` is :func:`run_reference`."""
    sim = Simulator()
    sim.run = functools.partial(run_reference, sim)
    return sim
