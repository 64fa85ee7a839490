"""Tests for the cluster-scale resilience layer.

Contracts under test:

* fault-plan runs are **bit-identical at any worker count** and their
  digests change when the plan changes;
* nominal (no-fault-plan) runs keep **byte-identical digests** to the
  goldens captured before the resilience layer existed;
* health feedback excludes crashed servers from routing and re-admits
  them after the cool-down;
* checkpoints resume bit-identically from every kill boundary, and
  truncated/corrupt/version-mismatched checkpoint files downgrade to a
  (correct) colder run with a warning — never a wrong-answer resume;
* the hardened executor retries per point with backoff, salvages
  siblings, quarantines hopeless points only when asked, and rebuilds a
  broken pool.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import repro
from repro.__main__ import main
from repro.cluster_scale import (
    CheckpointStore,
    ClusterFaultPlan,
    ClusterFaultSpec,
    ClusterScaleConfig,
    HealthTracker,
    RoutingPolicy,
    aggregate_resilience,
    cluster_plan_names,
    cluster_run_key,
    get_cluster_plan,
    route_epoch,
    routing_rng,
    run_cluster_scale,
    service_mix,
)
from repro.config import SimulationConfig
from repro.core.presets import hardharvest_block, noharvest
from repro.faults.spec import FaultKind
from repro.workloads.batch import BATCH_JOBS
from repro.workloads.suites import get_suite

FAST = SimulationConfig(accesses_per_segment=2, seed=7)

#: Small but non-degenerate: every epoch has a crash, routing is load-aware,
#: and epochs are long enough that starved servers still complete requests.
STORM = ClusterScaleConfig(
    servers=3, requests=1800, epochs=3, epoch_ms=25.0, warmup_ms=4.0,
    routing=RoutingPolicy.POWER_OF_TWO,
    fault_plan=get_cluster_plan("crash-storm", 3, 3),
)


def _mix():
    system = hardharvest_block()
    profiles = get_suite(FAST.suite)[: system.cluster.primary_vms_per_server]
    return service_mix(profiles, system.cluster)


# ---------------------------------------------------------------------------
# ClusterFaultSpec / ClusterFaultPlan
# ---------------------------------------------------------------------------
def test_fault_spec_validation():
    with pytest.raises(ValueError, match="at least one server"):
        ClusterFaultSpec(kind=FaultKind.SERVER_CRASH, epoch=0, servers=())
    with pytest.raises(ValueError, match="duplicate"):
        ClusterFaultSpec(kind=FaultKind.SERVER_CRASH, epoch=0, servers=(1, 1))
    with pytest.raises(ValueError, match="fit inside the epoch"):
        ClusterFaultSpec(kind=FaultKind.SERVER_CRASH, epoch=0, servers=(0,),
                         start_frac=0.8, duration_frac=0.5)
    with pytest.raises(ValueError, match="epoch"):
        ClusterFaultSpec(kind=FaultKind.SERVER_CRASH, epoch=-1, servers=(0,))


def test_fault_spec_expands_to_epoch_window():
    spec = ClusterFaultSpec(
        kind=FaultKind.CORE_SLOWDOWN, epoch=2, servers=(0, 2),
        start_frac=0.25, duration_frac=0.5, magnitude=3.0,
    )
    fault = spec.expand(epoch_ms=40.0)
    assert fault.start_ms == pytest.approx(10.0)
    assert fault.duration_ms == pytest.approx(20.0)
    assert fault.magnitude == 3.0


def test_plan_schedule_for_targets_epoch_and_server():
    plan = ClusterFaultPlan(events=(
        ClusterFaultSpec(kind=FaultKind.SERVER_CRASH, epoch=1, servers=(0,)),
        ClusterFaultSpec(kind=FaultKind.CORE_STALL, epoch=1, servers=(0, 1),
                         magnitude=1.0),
    ))
    assert plan.schedule_for(0, 0, 25.0) is None
    assert plan.schedule_for(1, 2, 25.0) is None
    both = plan.schedule_for(1, 0, 25.0)
    assert [ev.kind for ev in both.events] == [
        FaultKind.SERVER_CRASH, FaultKind.CORE_STALL,
    ]
    assert len(plan.schedule_for(1, 1, 25.0).events) == 1


def test_plan_roundtrips_through_dict():
    plan = get_cluster_plan("crash-storm", 4, 3)
    again = ClusterFaultPlan.from_dict(plan.to_dict())
    assert again == plan
    bare = ClusterFaultPlan()
    assert ClusterFaultPlan.from_dict(bare.to_dict()) == bare


def test_canned_plans_cover_all_shapes():
    assert cluster_plan_names() == sorted(cluster_plan_names())
    for name in cluster_plan_names():
        plan = get_cluster_plan(name, servers=5, epochs=4)
        assert plan.events, name
        # Every canned plan must validate inside a matching config.
        ClusterScaleConfig(servers=5, epochs=4, fault_plan=plan)
    with pytest.raises(KeyError, match="unknown cluster fault plan"):
        get_cluster_plan("nope", 2, 2)


def test_config_rejects_out_of_range_plan_targets():
    crash = ClusterFaultSpec(kind=FaultKind.SERVER_CRASH, epoch=3, servers=(0,))
    with pytest.raises(ValueError, match="only 2 epoch"):
        ClusterScaleConfig(servers=2, epochs=2,
                           fault_plan=ClusterFaultPlan(events=(crash,)))
    far = ClusterFaultSpec(kind=FaultKind.SERVER_CRASH, epoch=0, servers=(7,))
    with pytest.raises(ValueError, match="only 2 server"):
        ClusterScaleConfig(servers=2, epochs=2,
                           fault_plan=ClusterFaultPlan(events=(far,)))


# ---------------------------------------------------------------------------
# Health feedback
# ---------------------------------------------------------------------------
def test_health_tracker_excludes_and_readmits():
    tracker = HealthTracker(servers=3, cooldown_epochs=2)
    assert tracker.eligible() == [True, True, True]
    record = tracker.barrier([True, False, False])
    assert record == {"crashed": [0], "excluded": [], "cooldown": [2, 0, 0]}
    assert tracker.eligible() == [False, True, True]
    record = tracker.barrier([False, False, False])
    assert record["excluded"] == [0]
    assert tracker.eligible() == [False, True, True]  # still cooling
    record = tracker.barrier([False, False, False])
    assert tracker.eligible() == [True, True, True]  # re-admitted


def test_health_tracker_recrash_restarts_cooldown():
    tracker = HealthTracker(servers=2, cooldown_epochs=1)
    tracker.barrier([True, False])
    tracker.barrier([True, False])  # crashes again while cooling
    assert tracker.eligible() == [False, True]


def test_health_tracker_all_excluded_falls_back_to_everyone():
    tracker = HealthTracker(servers=2, cooldown_epochs=3)
    tracker.barrier([True, True])
    assert tracker.eligible() == [True, True]
    assert tracker.excluded() == []


# ---------------------------------------------------------------------------
# Eligibility-aware routing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("policy", list(RoutingPolicy))
def test_all_eligible_mask_is_draw_identical_to_no_mask(policy):
    mix = _mix()
    carry = np.zeros(4)
    a = route_epoch(policy, routing_rng(3, 1), 4, 500, mix, carry)
    b = route_epoch(policy, routing_rng(3, 1), 4, 500, mix, carry,
                    eligible=[True] * 4)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("policy", list(RoutingPolicy))
def test_excluded_servers_receive_no_requests(policy):
    mix = _mix()
    routing = route_epoch(
        policy, routing_rng(0, 2), 4, 400, mix, np.zeros(4),
        eligible=[True, False, True, False],
    )
    assert routing.counts[1] == 0 and routing.counts[3] == 0
    assert int(routing.counts.sum()) == 400
    assert routing.to_dict()["excluded"] == [1, 3]


def test_all_excluded_mask_routes_everywhere():
    mix = _mix()
    routing = route_epoch(
        RoutingPolicy.ROUND_ROBIN, routing_rng(0, 0), 3, 300, mix,
        np.zeros(3), eligible=[False, False, False],
    )
    assert list(routing.counts) == [100, 100, 100]
    assert "excluded" not in routing.to_dict()


# ---------------------------------------------------------------------------
# Degradation aggregation
# ---------------------------------------------------------------------------
class _Stub:
    def __init__(self, resilience):
        self.resilience = resilience


def test_aggregate_resilience_sums_counters_and_recomputes_rates():
    servers = [
        _Stub({"offered": 100, "completed": 90, "completed_in_slo": 80,
               "failed": 10, "attempts": 120, "retries": 20, "hedges": 0,
               "shed": 0, "timeouts": 5, "recovery_ms_max": 12.0}),
        _Stub({"offered": 100, "completed": 100, "completed_in_slo": 100,
               "failed": 0, "attempts": 100, "retries": 0, "hedges": 0,
               "shed": 0, "timeouts": 0, "recovery_ms_max": 30.0}),
    ]
    agg = aggregate_resilience(servers)
    assert agg["offered"] == 200
    assert agg["goodput"] == pytest.approx(180 / 200)
    assert agg["retry_amplification"] == pytest.approx(220 / 200)
    assert agg["slo_violation_rate"] == pytest.approx(1 - 180 / 200)
    assert agg["recovery_ms_max"] == 30.0


def test_aggregate_resilience_handles_injector_only_summaries():
    # The injector-only path has no SLO/attempt accounting; completed
    # stands in for both so rates stay meaningful.
    agg = aggregate_resilience(
        [_Stub({"offered": 50, "completed": 40, "failed": 10, "goodput": 0.8})]
    )
    assert agg["goodput"] == pytest.approx(0.8)
    assert agg["retry_amplification"] == pytest.approx(0.8)


def test_aggregate_resilience_empty_without_fault_data():
    assert aggregate_resilience([_Stub({}), _Stub(None)]) == {}


# ---------------------------------------------------------------------------
# Fault-plan runs: determinism, health wiring, digest sensitivity
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def storm_run():
    return run_cluster_scale(hardharvest_block(), FAST, STORM, workers=1)


def test_fault_plan_run_bit_identical_across_workers(storm_run):
    parallel = run_cluster_scale(hardharvest_block(), FAST, STORM, workers=3)
    assert parallel.digest() == storm_run.digest()


def test_fault_plan_run_carries_health_and_curve(storm_run):
    assert storm_run.fault_plan == STORM.fault_plan.to_dict()
    # crash-storm crashes a rotating server every epoch; the next epoch's
    # routing must exclude it and the health record must say so.
    assert storm_run.epochs[0].health["crashed"] == [0]
    assert storm_run.epochs[1].health["excluded"] == [0]
    assert storm_run.epochs[1].routing["excluded"] == [0]
    assert storm_run.epochs[1].cluster.servers[0].counters[
        "requests_arrived"] < min(
        s.counters["requests_arrived"]
        for s in storm_run.epochs[1].cluster.servers[1:]
    )
    curve = storm_run.resilience_curve()
    assert [c["epoch"] for c in curve] == [0, 1, 2]
    for entry in curve:
        assert 0.0 < entry["goodput"] <= 1.0
        assert entry["retry_amplification"] >= 1.0
        assert entry["recovery_ms_max"] > 0.0


def test_fault_plan_run_roundtrips_and_digest_tracks_plan(storm_run):
    from repro.cluster_scale import ClusterScaleResult

    again = ClusterScaleResult.from_dict(
        json.loads(json.dumps(storm_run.to_dict()))
    )
    assert again.digest() == storm_run.digest()
    # A different cool-down is a different experiment.
    relaxed = dataclasses.replace(
        STORM,
        fault_plan=dataclasses.replace(STORM.fault_plan, cooldown_epochs=0),
    )
    other = run_cluster_scale(hardharvest_block(), FAST, relaxed, workers=1)
    assert other.digest() != storm_run.digest()


def test_fault_plan_report_includes_degradation_table(storm_run):
    from repro.analysis.report import format_cluster_scale_report

    text = format_cluster_scale_report(storm_run)
    assert "Degradation under faults" in text
    assert "goodput" in text and "recov_ms" in text
    assert "health:" in text and "crashed [0]" in text


def test_nominal_digests_match_pre_resilience_goldens():
    """Fault-free runs must keep byte-identical digests to the goldens
    captured before the resilience layer landed (the satellite's
    no-payload-growth guarantee)."""
    here = os.path.dirname(__file__)
    with open(os.path.join(here, "data", "golden_cluster_digests.json")) as fh:
        golden = json.load(fh)["digests"]
    runs = {
        "hardharvest_p2c_s7": (
            hardharvest_block(), FAST,
            ClusterScaleConfig(servers=3, requests=1200, epochs=2,
                               epoch_ms=10.0, warmup_ms=2.0,
                               routing=RoutingPolicy.POWER_OF_TWO),
        ),
        "hardharvest_nominal_s7": (
            hardharvest_block(), FAST,
            ClusterScaleConfig(servers=2, epochs=2, epoch_ms=25.0,
                               warmup_ms=4.0),
        ),
        "noharvest_ll_s3": (
            noharvest(), SimulationConfig(accesses_per_segment=2, seed=3),
            ClusterScaleConfig(servers=4, requests=1600, epochs=2,
                               epoch_ms=10.0, warmup_ms=2.0,
                               routing=RoutingPolicy.LEAST_LOADED),
        ),
    }
    for name, (system, sim, cfg) in runs.items():
        assert run_cluster_scale(system, sim, cfg).digest() == golden[name], name


# ---------------------------------------------------------------------------
# Checkpoints: resume parity and corruption robustness
# ---------------------------------------------------------------------------
@pytest.fixture()
def storm_store(tmp_path, storm_run):
    """A checkpoint directory holding all three epochs of the storm run."""
    key = cluster_run_key(hardharvest_block(), FAST, STORM, list(BATCH_JOBS))
    store = CheckpointStore(root=str(tmp_path), run_key=key)
    result = run_cluster_scale(
        hardharvest_block(), FAST, STORM, workers=1, checkpoint=store,
    )
    assert result.digest() == storm_run.digest()
    return store


def _truncate_to(store, keep_epochs):
    for epoch in range(keep_epochs, STORM.epochs):
        path = store.path(epoch)
        if os.path.exists(path):
            os.remove(path)


@pytest.mark.parametrize("kill_after", [1, 2])
@pytest.mark.parametrize("workers", [1, 4])
def test_resume_parity_at_every_kill_boundary(
    storm_store, storm_run, kill_after, workers
):
    _truncate_to(storm_store, kill_after)
    resumed = run_cluster_scale(
        hardharvest_block(), FAST, STORM, workers=workers,
        checkpoint=storm_store,
    )
    assert resumed.resumed_epochs == kill_after
    assert resumed.digest() == storm_run.digest()
    assert resumed.run_key == storm_store.run_key


def test_full_checkpoint_replay_is_bit_identical(storm_store, storm_run):
    replayed = run_cluster_scale(
        hardharvest_block(), FAST, STORM, workers=1, checkpoint=storm_store,
    )
    assert replayed.resumed_epochs == STORM.epochs
    assert replayed.digest() == storm_run.digest()


@pytest.mark.parametrize("corruption", ["truncate", "garbage", "bitflip",
                                        "version", "format", "run_key"])
def test_corrupt_checkpoint_downgrades_to_cold_run(
    storm_store, storm_run, corruption
):
    """Damage to epoch 0's file must invalidate the entire prefix — the
    loader warns and the run recomputes from scratch, bit-identically."""
    path = storm_store.path(0)
    if corruption == "truncate":
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
    elif corruption == "garbage":
        with open(path, "w") as fh:
            fh.write("not json at all")
    elif corruption == "bitflip":
        with open(path) as fh:
            entry = json.load(fh)
        entry["state"]["alloc"][0] += 1  # stamp no longer matches
        with open(path, "w") as fh:
            json.dump(entry, fh)
    elif corruption == "version":
        with open(path) as fh:
            entry = json.load(fh)
        entry["version"] = "0.0.0"
        with open(path, "w") as fh:
            json.dump(entry, fh)
    elif corruption == "format":
        with open(path) as fh:
            entry = json.load(fh)
        entry["format"] = 999
        with open(path, "w") as fh:
            json.dump(entry, fh)
    elif corruption == "run_key":
        with open(path) as fh:
            entry = json.load(fh)
        entry["run_key"] = "deadbeefdeadbeef"
        with open(path, "w") as fh:
            json.dump(entry, fh)

    warnings = []
    storm_store.warn = warnings.append
    resumed = run_cluster_scale(
        hardharvest_block(), FAST, STORM, workers=1, checkpoint=storm_store,
        progress=lambda _m: None,
    )
    assert resumed.resumed_epochs == 0
    assert resumed.digest() == storm_run.digest()
    assert warnings and warnings[0].startswith("checkpoint:")
    if corruption in ("bitflip", "truncate"):
        assert any("digest check" in w or "unreadable" in w for w in warnings)


def test_damaged_middle_checkpoint_resumes_from_last_good_epoch(
    storm_store, storm_run
):
    os.remove(storm_store.path(1))  # epoch 2's file alone must not be used
    resumed = run_cluster_scale(
        hardharvest_block(), FAST, STORM, workers=1, checkpoint=storm_store,
    )
    assert resumed.resumed_epochs == 1
    assert resumed.digest() == storm_run.digest()


def test_checkpoint_save_is_digest_stamped_and_loadable(tmp_path):
    store = CheckpointStore(root=str(tmp_path), run_key="abc123")
    store.save(0, {"epoch": 0}, {"next_epoch": 1, "alloc": [2],
                                 "carryover": [1.5], "cooldown": None})
    entry = store.load_epoch(0)
    assert entry["state"]["carryover"] == [1.5]
    entries, state = store.load(max_epochs=5)
    assert len(entries) == 1 and state["next_epoch"] == 1
    assert store.load_epoch(1) is None  # clean miss: no warning path


def test_run_key_covers_plan_and_version(monkeypatch):
    base = cluster_run_key(hardharvest_block(), FAST, STORM, list(BATCH_JOBS))
    relaxed = dataclasses.replace(
        STORM,
        fault_plan=dataclasses.replace(STORM.fault_plan, cooldown_epochs=0),
    )
    assert cluster_run_key(
        hardharvest_block(), FAST, relaxed, list(BATCH_JOBS)
    ) != base
    monkeypatch.setattr(repro, "__version__", "999.0.0")
    assert cluster_run_key(
        hardharvest_block(), FAST, STORM, list(BATCH_JOBS)
    ) != base


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
def test_cli_rejects_unknown_fault_plan(capsys):
    assert main(["cluster", "--servers", "2", "--fault-plan", "nope"]) == 2
    assert "unknown fault plan" in capsys.readouterr().err


def test_cli_resume_refuses_mismatched_run_key(capsys):
    code = main([
        "cluster", "--servers", "2", "--epochs", "2",
        "--horizon-ms", "25", "--accesses", "2",
        "--resume", "not-the-right-key", "--no-cache",
    ])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_cli_fault_plan_run_emits_resilience_stats(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code = main([
        "cluster", "--system", "HardHarvest-Block", "--servers", "2",
        "--requests", "1200", "--epochs", "2", "--horizon-ms", "25",
        "--accesses", "2", "--seed", "7", "--fault-plan", "crash-storm",
        "--checkpoint", "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--no-cache", "--stats-json", str(stats),
    ])
    assert code == 0
    payload = json.loads(stats.read_text())
    assert payload["fault_plan"] == "crash-storm"
    assert len(payload["resilience_curve"]) == 2
    assert payload["resumed_from_epoch"] == 0
    assert payload["checkpoint_run_key"]
    out = capsys.readouterr().out
    assert "Degradation under faults" in out

    # Second invocation auto-resumes from the checkpoints and reproduces
    # the digest without simulating anything new.
    stats2 = tmp_path / "stats2.json"
    code = main([
        "cluster", "--system", "HardHarvest-Block", "--servers", "2",
        "--requests", "1200", "--epochs", "2", "--horizon-ms", "25",
        "--accesses", "2", "--seed", "7", "--fault-plan", "crash-storm",
        "--checkpoint", "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--no-cache", "--stats-json", str(stats2),
    ])
    assert code == 0
    payload2 = json.loads(stats2.read_text())
    assert payload2["resumed_from_epoch"] == 2
    assert payload2["digest"] == payload["digest"]
