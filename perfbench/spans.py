"""The catalogue of wrapped entry points, one group per ``repro`` layer,
and the per-layer metrics computed from a traced run.

Functions that a caller imports by name are wrapped in the *caller's*
namespace (for example ``route_epoch`` inside
``repro.cluster_scale.runner``), because that is the binding the call
goes through.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from tracer import LAYERS, Span, TraceTotals


def _count_accesses(counters, args, result) -> None:
    counters["mem.accesses"] += len(args[1])


def _count_access(counters, args, result) -> None:
    counters["mem.accesses"] += 1


def _count_flushed(counters, args, result) -> None:
    counters["mem.flushed_entries"] += result


def _count_server(counters, args, result) -> None:
    sim = args[0]
    counts = sim.counters.as_dict()
    counters["sim.events"] += sim.sim.events_fired
    counters["sim.requests"] += counts.get("requests_arrived", 0)
    counters["harvest.lends"] += counts.get("lends", 0)
    counters["harvest.reclaims"] += counts.get("reclaims", 0)
    counters["harvest.buffer_borrows"] += counts.get("buffer_borrows", 0)
    counters["l2.hits"] += sim.l2_primary_hits
    counters["l2.accesses"] += sim.l2_primary_accesses


def _count_sweep(counters, args, result) -> None:
    if result.cache_stats is not None:
        counters["cache.hits"] += result.from_cache
        counters["cache.lookups"] += result.from_cache + result.computed


_SERVER = "repro.cluster.server"
_RUNNER = "repro.cluster_scale.runner"

#: Every wrapped entry point, grouped by layer.
SPANS: Dict[str, List[Span]] = {
    "mem": [
        Span("repro.mem.hierarchy", "CoreMemory", "access_batch", "mem.walk",
             "mem", _count_accesses),
        Span("repro.mem.hierarchy", "CoreMemory", "access", "mem.walk",
             "mem", _count_access),
        Span("repro.mem.hierarchy", "CoreMemory", "flush_private_full",
             "mem.flush", "mem", _count_flushed),
        Span("repro.mem.hierarchy", "CoreMemory", "flush_harvest_region",
             "mem.flush", "mem", _count_flushed),
    ],
    "workloads": [
        Span("repro.workloads.memory_profile", "ServiceMemory", "sample",
             "workloads.sample", "workloads"),
        Span("repro.workloads.memory_profile", "BatchMemory", "sample",
             "workloads.sample", "workloads"),
        Span(_SERVER, None, "generate_arrivals_correlated",
             "workloads.arrivals", "workloads"),
        Span(_SERVER, None, "generate_arrivals_from_trace",
             "workloads.arrivals", "workloads"),
        Span(_SERVER, None, "generate_burst_schedule",
             "workloads.arrivals", "workloads"),
    ],
    "cluster": [
        Span(_SERVER, "ServerSimulation", "__init__", "cluster.build", "cluster"),
        Span(_SERVER, "ServerSimulation", "run", "cluster.run", "cluster",
             _count_server),
    ],
    "parallel": [
        Span("repro.parallel.runner", None, "run_sweep", "parallel.run_sweep",
             "parallel", _count_sweep),
        Span("repro.parallel.sweep", "SweepPoint", "payload_json",
             "parallel.keying", "parallel"),
        Span("repro.parallel.cache", "ResultCache", "key_json",
             "parallel.keying", "parallel"),
        Span("repro.parallel.cache", "ResultCache", "key",
             "parallel.keying", "parallel"),
        Span("repro.parallel.cache", "ResultCache", "get_many",
             "parallel.cache_get", "parallel"),
        Span("repro.parallel.cache", "ResultCache", "put_many",
             "parallel.cache_put", "parallel"),
    ],
    "cluster_scale": [
        Span(_RUNNER, None, "run_cluster_scale", "cluster_scale.run",
             "cluster_scale"),
        Span(_RUNNER, None, "route_epoch", "cluster_scale.route",
             "cluster_scale"),
        Span(_RUNNER, None, "rebalance_harvest", "cluster_scale.rebalance",
             "cluster_scale"),
    ],
    "service": [
        Span("repro.service.client", "ServiceClient", "_request",
             "service.http", "service"),
        # The job threads' whole life is one execute_job call, bound by
        # name in the HTTP module.
        Span("repro.service.http", None, "execute_job", "service.execute",
             "service", root=True),
    ],
}


def spans_for(layers: Sequence[str]) -> List[Span]:
    return [span for layer in layers for span in SPANS[layer]]


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER_METRICS: List[Tuple[str, str]] = [
    ("mem.walk_s", "s/op"),
    ("mem.walk_calls", "count/op"),
    ("mem.accesses", "count/op"),
    ("mem.ns_per_access", "ns"),
    ("mem.flush_s", "s/op"),
    ("mem.flush_calls", "count/op"),
    ("mem.flushed_entries", "count/op"),
    ("mem.l2_hit_rate", "frac"),
    ("workloads.sample_s", "s/op"),
    ("workloads.sample_calls", "count/op"),
    ("workloads.us_per_sample", "us"),
    ("workloads.arrivals_s", "s/op"),
    ("cluster.build_s", "s/op"),
    ("cluster.run_s", "s/op"),
    ("cluster.self_s", "s/op"),
    ("sim.events", "count/op"),
    ("sim.us_per_event", "us"),
    ("harvest.lends", "count/op"),
    ("harvest.reclaims", "count/op"),
    ("harvest.buffer_borrows", "count/op"),
    ("parallel.keying_s", "s/op"),
    ("parallel.cache_get_s", "s/op"),
    ("parallel.cache_hit_rate", "frac"),
    ("parallel.run_sweep_s", "s/op"),
    ("parallel.pool_s", "s/op"),
    ("parallel.cache_put_s", "s/op"),
    ("parallel.cache_bytes", "bytes"),
    ("cluster_scale.route_s", "s/op"),
    ("cluster_scale.rebalance_s", "s/op"),
    ("cluster_scale.barrier_s", "s/op"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.poll_lag_ms", "ms"),
    ("service.dedupe_frac", "frac"),
    ("service.http_errors", "count"),
] + [(f"layer.{layer}_s", "s/op") for layer in LAYERS] + [
    ("other_s", "s/op"),
    ("trace.wall_s", "s/op"),
    ("trace.overhead_frac", "frac"),
]

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: TraceTotals, n_ops: int) -> Dict[str, float]:
    """Per-operation layer figures from one traced phase.

    ``_s`` figures are seconds per operation; counts are per operation.
    Layers a workload never reaches read 0.
    """
    if n_ops < 1:
        raise ValueError("no traced operations")

    def per_op_s(ns: int) -> float:
        return ns / 1e9 / n_ops

    c = t.counters
    walk_ns = t.self_ns.get("mem.walk", 0)
    run_self_ns = t.self_ns.get("cluster.run", 0)
    sample_ns = t.self_ns.get("workloads.sample", 0)
    out = {
        "mem.walk_s": per_op_s(walk_ns),
        "mem.walk_calls": t.calls.get("mem.walk", 0) / n_ops,
        "mem.accesses": c.get("mem.accesses", 0) / n_ops,
        "mem.ns_per_access": _ratio(walk_ns, c.get("mem.accesses", 0)),
        "mem.flush_s": per_op_s(t.self_ns.get("mem.flush", 0)),
        "mem.flush_calls": t.calls.get("mem.flush", 0) / n_ops,
        "mem.flushed_entries": c.get("mem.flushed_entries", 0) / n_ops,
        "mem.l2_hit_rate": _ratio(c.get("l2.hits", 0), c.get("l2.accesses", 0)),
        "workloads.sample_s": per_op_s(sample_ns),
        "workloads.sample_calls": t.calls.get("workloads.sample", 0) / n_ops,
        "workloads.us_per_sample": _ratio(
            sample_ns / 1e3, t.calls.get("workloads.sample", 0)
        ),
        "workloads.arrivals_s": per_op_s(t.self_ns.get("workloads.arrivals", 0)),
        "cluster.build_s": per_op_s(t.total_ns.get("cluster.build", 0)),
        "cluster.run_s": per_op_s(t.total_ns.get("cluster.run", 0)),
        "cluster.self_s": per_op_s(run_self_ns),
        "sim.events": c.get("sim.events", 0) / n_ops,
        "sim.us_per_event": _ratio(run_self_ns / 1e3, c.get("sim.events", 0)),
        "harvest.lends": c.get("harvest.lends", 0) / n_ops,
        "harvest.reclaims": c.get("harvest.reclaims", 0) / n_ops,
        "harvest.buffer_borrows": c.get("harvest.buffer_borrows", 0) / n_ops,
        "parallel.keying_s": per_op_s(t.self_ns.get("parallel.keying", 0)),
        "parallel.cache_get_s": per_op_s(t.self_ns.get("parallel.cache_get", 0)),
        "parallel.cache_hit_rate": _ratio(
            c.get("cache.hits", 0), c.get("cache.lookups", 0)
        ),
        "parallel.run_sweep_s": per_op_s(t.total_ns.get("parallel.run_sweep", 0)),
        "parallel.pool_s": per_op_s(t.self_ns.get("parallel.run_sweep", 0)),
        "parallel.cache_put_s": per_op_s(t.self_ns.get("parallel.cache_put", 0)),
        # Disk footprint is not a span figure; the cluster workload fills it.
        "parallel.cache_bytes": 0.0,
        "cluster_scale.route_s": per_op_s(t.self_ns.get("cluster_scale.route", 0)),
        "cluster_scale.rebalance_s": per_op_s(
            t.self_ns.get("cluster_scale.rebalance", 0)
        ),
        "cluster_scale.barrier_s": per_op_s(t.self_ns.get("cluster_scale.run", 0)),
    }
    # Job-timeline figures come from the service workload's clients.
    for name in ("service.submit_ms", "service.queue_wait_ms", "service.run_ms",
                 "service.poll_lag_ms", "service.dedupe_frac",
                 "service.http_errors"):
        out[name] = 0.0
    for layer, ns in t.layer_table().items():
        out[f"layer.{layer}_s"] = per_op_s(ns)
    out["other_s"] = per_op_s(t.other_ns)
    out["trace.wall_s"] = per_op_s(t.wall_ns)
    return out


def tiling_record(t: TraceTotals, n_ops: int) -> Dict[str, object]:
    """The exact integer tiling of one traced phase, for the record."""
    return {
        "ops": n_ops,
        "roots": t.roots,
        "wall_ns": t.wall_ns,
        "layer_self_ns": t.layer_table(),
        "other_ns": t.other_ns,
        "tiles": t.tiles(),
        "span_self_ns": dict(sorted(t.self_ns.items())),
        "span_total_ns": dict(sorted(t.total_ns.items())),
        "span_calls": dict(sorted(t.calls.items())),
        "counters": dict(sorted(t.counters.items())),
    }
