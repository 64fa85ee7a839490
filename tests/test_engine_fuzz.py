"""Engine fuzzing: random configurations must preserve the core invariants.

A light hypothesis harness over the full per-server engine: whatever the
load, fidelity, suite, or system, a run must terminate with every request
accounted for, consistent loan bookkeeping, and non-negative time.

The differential half runs random event programs through the batched
same-timestamp drain (:meth:`Simulator.run`) and the one-event-at-a-time
loop (``tests/_reference_engine.py``) and requires identical traces.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.cluster.server import ServerSimulation
from repro.core.presets import all_systems
from repro.sim.engine import Simulator

from tests._reference_engine import reference_simulator

SYSTEM_NAMES = list(all_systems())


@given(
    system_name=st.sampled_from(SYSTEM_NAMES),
    seed=st.integers(0, 10_000),
    load_scale=st.floats(0.3, 2.5),
    accesses=st.integers(4, 16),
    suite=st.sampled_from(["socialnet", "hotel"]),
)
@settings(max_examples=8, deadline=None)
def test_random_configs_preserve_invariants(
    system_name, seed, load_scale, accesses, suite
):
    simcfg = SimulationConfig(
        horizon_ms=40,
        warmup_ms=5,
        accesses_per_segment=accesses,
        seed=seed,
        load_scale=load_scale,
        suite=suite,
    )
    sim = ServerSimulation(all_systems()[system_name], simcfg)
    sim.run()

    # Conservation: every generated request completed; queues drained.
    assert sim._completions == sim._target_completions
    for vm in sim.primary_vms:
        assert vm.queue.pending() == 0

    # Loan bookkeeping balances: a run may stop with reclaims in flight
    # (counted, not yet completed), so exclude those from "still loaned".
    lends = sim.counters.get("lends", 0)
    reclaims = sim.counters.get("reclaims", 0)
    still_loaned = sum(
        1 for c in sim.cores if c.on_loan and not c.reclaim_in_flight
    )
    assert lends == reclaims + still_loaned

    # Guest cores all returned; states sane.
    for core in sim.cores:
        assert core.guest_vm_id is None
        assert core.state in ("idle", "busy", "switching")

    # Time sane; utilization within physical bounds.
    assert 0 < sim.end_ns
    busy = sim.average_busy_cores()
    assert 0.0 <= busy <= len(sim.cores)

    # Latencies recorded and positive wherever requests were measured.
    for rec in sim.latency.values():
        if rec.count:
            assert rec.p50() > 0


# ----------------------------------------------------------------------
# Batched drain vs the one-event-at-a-time loop
# ----------------------------------------------------------------------

#: Events a program may create in total; bounds self-rescheduling chains.
_EVENT_BUDGET = 120

#: What a firing event does, by its creation ordinal.  Small delays
#: (0 included) make many events share a timestamp, so batches are long
#: and zero-delay continuations join the batch that is draining.
_ACTION = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 12)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("rearm"), st.integers(0, 10_000), st.integers(0, 12)),
    st.tuples(st.just("stop")),
)

_PROGRAM = st.fixed_dictionaries({
    "initial": st.lists(st.integers(0, 25), min_size=1, max_size=20),
    "actions": st.lists(st.lists(_ACTION, max_size=4), min_size=1, max_size=8),
    # (first firing time, period) of self-rescheduling probes.
    "probes": st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 15)), max_size=3
    ),
    # (until offset from now or None, max_events or None) per run() call.
    "runs": st.lists(
        st.tuples(st.none() | st.integers(0, 40), st.none() | st.integers(0, 30)),
        min_size=1,
        max_size=4,
    ),
    # Low thresholds trigger heap compaction inside a drain.
    "compact_min": st.integers(1, 16),
})


def _execute(sim: Simulator, program: dict) -> list:
    """Run ``program`` on ``sim``; return everything observable."""
    sim.compact_min_cancelled = program["compact_min"]
    actions = program["actions"]
    trace: list = []
    handles: list = []

    def arm(delay):
        handles.append(sim.schedule(delay, fire, len(handles)))

    def fire(k):
        # Events see the clock only: ``events_fired`` is folded at batch
        # barriers, so only probes (which run at barriers) read it.
        trace.append(("event", k, sim.now))
        for op in actions[k % len(actions)]:
            if op[0] == "schedule":
                if len(handles) < _EVENT_BUDGET:
                    arm(op[1])
            elif op[0] == "cancel":
                handles[op[1] % len(handles)].cancel()
            elif op[0] == "rearm":
                if len(handles) < _EVENT_BUDGET:
                    handles[op[1] % len(handles)].cancel()
                    arm(op[2])
            else:
                sim.stop()

    def probe(period):
        # Not the pending counts: the per-event loop pops the next event
        # before its probes run, the batched drain after, so a probe sees
        # the heap one entry apart (nothing in the simulator reads them).
        trace.append(("probe", sim.now, sim.events_fired))
        sim.schedule_probe(sim.now + period, lambda: probe(period))

    for delay in program["initial"]:
        arm(delay)
    for first, period in program["probes"]:
        sim.schedule_probe(first, lambda p=period: probe(p))
    for until, max_events in program["runs"]:
        fired = sim.run(
            until=None if until is None else sim.now + until,
            max_events=max_events,
        )
        trace.append((
            "run", fired, sim.now, sim.events_fired,
            sim.pending_live_events, sim.pending_events,
        ))
    return trace


@given(program=_PROGRAM)
@settings(max_examples=300, deadline=None)
def test_batched_drain_matches_reference_loop(program):
    """Random schedule / cancel / re-arm / zero-delay / stop() /
    ``max_events`` / ``until`` / probe programs fire the same events at
    the same times under both loops, and leave the same clock, fired
    count and pending events behind after every ``run()``."""
    assert _execute(Simulator(), program) == _execute(reference_simulator(), program)
