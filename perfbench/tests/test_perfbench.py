"""Tests for the benchmark's own code: the percentile rule, the exact
tiling of traced time, failure counting, and a tiny run of every
workload."""

import json
import os
import subprocess
import sys
import threading

import pytest

import stats
import toylayers
from spans import PER_LAYER_METRICS
from tracer import OTHER, LayerTracer, Span
from workloads import ClusterWorkload, ServerWorkload, ServiceWorkload, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


# -- percentile rule ----------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))  # p90 = 90, ten samples above it
    assert stats.percentile(values, 90) == 90
    assert stats.beyond(values, 90) == 10
    assert stats.has_percentile(values, 90)
    assert not stats.has_percentile(values[:99], 90)  # nine beyond
    assert not stats.has_percentile(values, 99)       # one beyond


def test_tail_picks_highest_reportable_percentile():
    assert stats.tail(list(range(1, 1001))) == (99.0, 990)
    assert stats.tail(list(range(1, 101))) == (90.0, 90)
    assert stats.tail(list(range(1, 20))) is None
    assert stats.tail([5.0] * 500) is None  # nothing lies beyond


def test_timing_metrics_report_count_and_omit_thin_tails():
    from workloads import timing_metrics

    thin = timing_metrics("job", [float(v) for v in range(1, 31)])
    assert thin == {"job_p50_ms": {"value": 15.5, "unit": "ms", "n": 30}}
    some = timing_metrics("job", [float(v) for v in range(1, 51)])
    assert set(some) == {"job_p50_ms", "job_p75_ms"}  # twelve beyond p75
    wide = timing_metrics("warm", [float(v) for v in range(1, 1001)])
    assert set(wide) == {"warm_p50_ms", "warm_p90_ms", "warm_p99_ms"}
    assert wide["warm_p99_ms"]["value"] == 990.0


# -- tiling -----------------------------------------------------------------


def _toy_tracer():
    return LayerTracer([
        Span("toylayers", None, "top", "cluster.run", "cluster"),
        Span("toylayers", "Middle", "work", "workloads.sample", "workloads"),
        Span("toylayers", "Middle", "helper", "workloads.sample", "workloads"),
        Span("toylayers", None, "leaf", "mem.walk", "mem",
             note=lambda c, args, result: c.__setitem__(
                 "mem.accesses", c["mem.accesses"] + result)),
    ])


def test_self_times_plus_other_tile_the_wall_time_exactly():
    tracer = _toy_tracer()
    with tracer.installed():
        for _ in range(3):
            with tracer.op():
                toylayers.top(2)
                toylayers.leaf(1)
    totals = tracer.snapshot()
    assert totals.roots == 3
    assert totals.tiles()
    assert sum(totals.layer_table().values()) + totals.other_ns == totals.wall_ns
    assert totals.calls["mem.walk"] == 6
    assert totals.counters["mem.accesses"] == 9
    # Each layer's self time covers at least its own sleeps.
    assert totals.self_ns["cluster.run"] >= 3 * 2e6
    assert totals.self_ns["mem.walk"] >= 3 * 3e6
    # Inclusive time of the outer span covers its children.
    assert totals.total_ns["cluster.run"] >= (
        totals.total_ns["workloads.sample"])
    assert totals.layer_ns[OTHER] == totals.other_ns


def test_uninstall_restores_originals_and_staticmethods_work():
    original_top = toylayers.top
    original_helper = toylayers.Middle.__dict__["helper"]
    tracer = _toy_tracer()
    with tracer.installed():
        assert toylayers.top is not original_top
        with tracer.op():
            assert toylayers.Middle.helper(1) == 2
            assert toylayers.Middle().helper(2) == 3
    assert toylayers.top is original_top
    assert toylayers.Middle.__dict__["helper"] is original_helper
    assert tracer.snapshot().calls["workloads.sample"] == 2


def test_calls_outside_an_operation_pass_through_untimed():
    tracer = _toy_tracer()
    with tracer.installed():
        assert toylayers.top(1) == 1
    totals = tracer.snapshot()
    assert totals.roots == 0 and totals.wall_ns == 0


def test_root_spans_on_other_threads_tile_too():
    tracer = LayerTracer([
        Span("toylayers", None, "top", "service.execute", "service", root=True),
        Span("toylayers", None, "leaf", "mem.walk", "mem"),
    ])
    with tracer.installed():
        threads = [threading.Thread(target=toylayers.top, args=(2,))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    totals = tracer.snapshot()
    assert totals.roots == 2
    assert totals.other_ns == 0
    assert totals.tiles()
    assert totals.layer_ns["service"] > 0 and totals.layer_ns["mem"] > 0


def test_operations_must_not_nest():
    tracer = _toy_tracer()
    with tracer.op():
        with pytest.raises(RuntimeError):
            with tracer.op():
                pass


# -- reference-host scaling -----------------------------------------------


def test_host_clock_divides_by_the_adjacent_calibrations(monkeypatch):
    import hostclock

    # discarded warm-up, before op 1, after op 1 (= before op 2), after op 2
    times = iter([0.05, 0.02, 0.04, 0.06])
    monkeypatch.setattr(hostclock, "calibrate", lambda: next(times))
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_S
    assert clock.scaled(0.3) == pytest.approx(0.3 * ref / 0.03)
    assert clock.scaled(0.3) == pytest.approx(0.3 * ref / 0.05)


def test_calibration_loop_is_fixed_work():
    import hostclock

    assert hostclock.calibration_loop() == hostclock.calibration_loop()


# -- failure counting -----------------------------------------------------


TINY_SERVER = dict(system="Harvest-Block", accesses=2, load_scale=1.0,
                   horizon_ms=4.0, warmup_ms=1.0, inputs=2)


def test_digest_mismatch_counts_into_fail_frac(monkeypatch, tmp_path):
    import repro.core.experiment as experiment

    real = experiment.run_server
    calls = {"n": 0}

    def drifting(system, sim):
        result = real(system, sim)
        calls["n"] += 1
        if calls["n"] > 2:  # every repetition differs from the first pass
            result.counters["drift"] = calls["n"]
        return result

    monkeypatch.setattr(experiment, "run_server", drifting)
    workload = ServerWorkload("tiny", "test", **TINY_SERVER)
    out = workload.run(seed=1, seconds=0.0, trace=False, scratch=str(tmp_path))
    # 2 inputs x 2 passes: 2 first-pass checks, 2 repeats that drifted.
    assert out.attempted == 4
    assert out.failed == 2
    assert out.named["fail_frac"]["value"] == 0.5
    assert all("digest" in e for e in out.errors)


def test_errors_count_as_failed_attempts():
    from workloads import Outcome

    out = Outcome(config={})
    out.check(True, "fine")
    out.error("boom")
    assert (out.attempted, out.failed) == (2, 1)
    assert stats.fail_frac(out.attempted, out.failed) == 0.5
    with pytest.raises(ValueError):
        stats.fail_frac(0, 0)


# -- tiny smoke configs of every workload --------------------------------------


def _assert_traced(out):
    assert out.failed == 0, out.errors
    assert out.attempted > 0
    assert set(out.e2e) == {"op_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in out.e2e.values())
    assert out.per_layer is not None
    assert {name for name, _ in PER_LAYER_METRICS} <= set(out.per_layer)
    for block in out.tiling.values():
        if isinstance(block, dict) and "tiles" in block:
            assert block["tiles"]
            assert (sum(block["layer_self_ns"].values()) + block["other_ns"]
                    == block["wall_ns"])


def test_server_workload_smoke(tmp_path):
    out = ServerWorkload("tiny", "test", **TINY_SERVER).run(
        seed=3, seconds=0.0, trace=True, scratch=str(tmp_path))
    _assert_traced(out)
    assert out.per_layer["mem.accesses"] > 0
    assert out.per_layer["workloads.sample_calls"] > 0
    assert out.per_layer["sim.events"] > 0


class TinyCluster(ClusterWorkload):
    servers = 2
    epochs = 2
    epoch_ms = 2.0
    warmup_ms = 0.5
    inputs = 2
    min_warm = 2


def test_cluster_workload_smoke(tmp_path):
    out = TinyCluster().run(seed=3, seconds=0.0, trace=True, scratch=str(tmp_path))
    _assert_traced(out)
    assert out.per_layer["parallel.cache_hit_rate"] == 1.0
    assert out.per_layer["parallel.cache_bytes"] > 0
    assert out.per_layer["cluster_scale.route_s"] > 0
    assert out.per_layer["parallel.pool_s"] > 0


class TinyService(ServiceWorkload):
    horizon_ms = 2.0


def test_service_workload_smoke(tmp_path):
    out = TinyService().run(seed=3, seconds=2.0, trace=True, scratch=str(tmp_path))
    _assert_traced(out)
    assert out.per_layer["service.run_ms"] > 0
    assert out.per_layer["service.http_errors"] == 0
    assert out.per_layer["layer.service_s"] > 0


def test_service_sequences_are_seeded_and_a_quarter_repeat():
    workload = ServiceWorkload()
    lead, follow = workload.sequences(5)
    assert workload.sequences(5) == [lead, follow]
    assert workload.sequences(6) != [lead, follow]
    repeats = sum(1 for a, b in zip(lead, follow) if a == b)
    assert repeats / (len(lead) + len(follow)) == 0.25
    keys = [json.dumps(b, sort_keys=True) for b in lead + follow]
    assert len(set(keys)) == len(keys) - repeats


# -- the command and BENCHMARK.json -------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    units = dict(PER_LAYER_METRICS)
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])


def test_command_fails_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "server-memwalk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
