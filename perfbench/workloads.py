"""The benchmark's four workloads.

Each workload derives every input from the benchmark seed, repeats each
input several times through the program's public API, checks every
output, and returns an :class:`Outcome`.

Every operation's wall time is also scaled to a reference host by the
calibration loop of :mod:`hostclock`, which cancels the host's switches
between a fast and a slow mode.  The end-to-end figures use the scaled
times: per input the median of its repetitions, then the median over
inputs (some seeds draw an input that costs three times the others).
Raw wall-time medians and tails are recorded beside them.

With ``trace=True`` untraced and traced passes over the inputs
alternate; the traced operations give the per-layer table, and
``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import stats
from hostclock import HostClock
from spans import layer_metrics, spans_for, tiling_record
from tracer import LayerTracer


def digest_of(obj: Any) -> str:
    from repro.parallel.cache import canonical_json

    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child
    (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def metric(value: float, unit: str, **extra: Any) -> Dict[str, Any]:
    return {"value": value, "unit": unit, **extra}


def timing_metrics(prefix: str, values_ms: List[float]) -> Dict[str, Dict[str, Any]]:
    """``<prefix>_p50_ms``, plus ``<prefix>_p90_ms`` and the highest tail
    percentile when ten samples lie beyond them; all carry the count."""
    n = len(values_ms)
    out = {f"{prefix}_p50_ms": metric(stats.median(values_ms), "ms", n=n)}
    top = stats.tail(values_ms)
    for q in sorted({90.0, top[0]} if top else {90.0}):
        if stats.has_percentile(values_ms, q):
            out[f"{prefix}_p{q:g}_ms"] = metric(stats.percentile(values_ms, q), "ms", n=n)
    return out


class Walls:
    """(wall, reference-host) seconds per input, untraced and traced."""

    def __init__(self) -> None:
        self.by_input: Dict[bool, Dict[int, List[Tuple[float, float]]]] = {
            False: {}, True: {}}

    def add(self, traced: bool, k: int, wall: float, ref: float) -> None:
        self.by_input[traced].setdefault(k, []).append((wall, ref))

    def all(self, traced: bool = False, scaled: bool = False) -> List[float]:
        i = 1 if scaled else 0
        return [p[i] for ps in self.by_input[traced].values() for p in ps]

    def typical(self, traced: bool = False) -> Dict[int, float]:
        """Per input, the median reference-host time of its repetitions."""
        return {k: stats.median([p[1] for p in ps])
                for k, ps in self.by_input[traced].items()}

    def host_factor(self) -> float:
        """Median slowdown of this host against the reference host."""
        return stats.median([w / r for per in self.by_input.values()
                             for ps in per.values() for w, r in ps])

    def overhead(self) -> float:
        """Traced over untraced typical time, summed over the inputs that
        ran both ways, minus one."""
        plain, traced = self.typical(False), self.typical(True)
        both = sorted(set(plain) & set(traced))
        return sum(traced[k] for k in both) / sum(plain[k] for k in both) - 1.0

    def samples_ms(self) -> Dict[str, List[List[float]]]:
        """``[wall_ms, reference_ms]`` per repetition, keyed by input."""
        return {f"{'traced' if t else 'untraced'}/{k}":
                [[w * 1e3, r * 1e3] for w, r in ps]
                for t, per in self.by_input.items() for k, ps in sorted(per.items())}


def typical_ms(walls: Walls) -> float:
    """Median over the untraced inputs of each input's typical time, ms."""
    return stats.median([t * 1e3 for t in walls.typical(False).values()])


def typical_rate(walls: Walls, work: Dict[int, float]) -> float:
    """Median over the untraced inputs of work per typical second."""
    return stats.median([work[k] / t for k, t in walls.typical(False).items()])


@dataclass
class Outcome:
    """Everything one run of a workload produced."""

    config: Dict[str, Any]
    #: The bound-checked end-to-end metrics of BENCHMARK.json (untraced).
    e2e: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Workload-specific named metrics (printed and recorded).
    named: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digests: Dict[str, Any] = field(default_factory=dict)
    per_layer: Optional[Dict[str, float]] = None
    tiling: Dict[str, Any] = field(default_factory=dict)
    #: Wall times (ms) per input, for the record.
    samples: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(what)

    def finish(self, walls: Walls, rss: float) -> None:
        self.e2e = {
            "op_ms": metric(typical_ms(walls), "ms", n=len(walls.all())),
            "peak_rss_mb": metric(rss, "MB"),
        }
        self.named["fail_frac"] = metric(
            stats.fail_frac(self.attempted, self.failed), "frac")
        self.named["host_factor"] = metric(walls.host_factor(), "x")


def _passes(n_inputs: int, trace: bool):
    """Operation index -> (input index, traced?).  Traced operations run
    whole passes over the inputs, alternating with untraced passes, so
    both see the same inputs under the same host load."""
    def plan(i: int):
        return i % n_inputs, trace and (i // n_inputs) % 2 == 1
    return plan


def _timed(clock: HostClock, tracer: Optional[LayerTracer], traced: bool,
           fn, *args):
    """(wall s, reference-host s, result) of one operation, traced or not.
    A collection owed by the previous operation runs first, untimed."""
    gc.collect()
    if not traced:
        return clock.measure(fn, *args)
    with tracer.installed(), tracer.op():
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
    return wall, clock.scaled(wall), result


# ---------------------------------------------------------------------------
# server-memwalk / server-queueing
# ---------------------------------------------------------------------------


class ServerWorkload:
    """Repeated in-process ``run_server`` calls over a few seeded inputs."""

    layers = ("mem", "workloads", "cluster")

    def __init__(self, name: str, why: str, system: str, accesses: int,
                 load_scale: float, horizon_ms: float, warmup_ms: float,
                 inputs: int):
        self.name = name
        self.why = why
        self.system = system
        self.accesses = accesses
        self.load_scale = load_scale
        self.horizon_ms = horizon_ms
        self.warmup_ms = warmup_ms
        self.inputs = inputs

    def config(self) -> Dict[str, Any]:
        return {
            "api": "repro.core.experiment.run_server",
            "system": self.system,
            "accesses_per_segment": self.accesses,
            "load_scale": self.load_scale,
            "horizon_ms": self.horizon_ms,
            "warmup_ms": self.warmup_ms,
            "inputs_per_run": self.inputs,
        }

    def _system(self):
        from repro.core.presets import all_systems

        return all_systems()[self.system]

    def _inputs(self, seed: int):
        from repro.config import SimulationConfig

        rng = random.Random(f"{self.name}:{seed}")
        return [
            SimulationConfig(
                seed=rng.randrange(2**31),
                horizon_ms=self.horizon_ms,
                warmup_ms=self.warmup_ms,
                accesses_per_segment=self.accesses,
                load_scale=self.load_scale,
            )
            for _ in range(self.inputs)
        ]

    def probe(self, seed: int, scratch: str) -> None:
        from repro.cluster.server import ServerSimulation

        ServerSimulation(self._system(), self._inputs(seed)[0])

    def run(self, seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
        from repro.core import experiment
        from repro.core.export import server_result_to_dict

        system = self._system()
        inputs = self._inputs(seed)
        out = Outcome(config={**self.config(), "sim_seeds": [c.seed for c in inputs]})
        tracer = LayerTracer(spans_for(self.layers)) if trace else None
        first: Dict[int, str] = {}
        results: Dict[int, Any] = {}
        walls = Walls()
        clock = HostClock()
        # Whole passes over the inputs, at least two so that every digest
        # is checked against a repetition; traced passes alternate with
        # untraced ones.  A pass starts only if it should end in time.
        deadline = time.perf_counter() + seconds
        passes, last = 0, 0.0
        while passes < 2 or time.perf_counter() + last <= deadline:
            traced = trace and passes % 2 == 1
            started = time.perf_counter()
            for k, simcfg in enumerate(inputs):
                try:
                    wall, ref, result = _timed(clock, tracer, traced,
                                               experiment.run_server, system, simcfg)
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    out.error(f"input {k}: {type(exc).__name__}: {exc}")
                    continue
                digest = digest_of(server_result_to_dict(result))
                if k in first:
                    out.check(digest == first[k],
                              f"input {k}: digest {digest[:12]} != {first[k][:12]}")
                else:
                    first[k] = digest
                    results[k] = result
                    out.check(result.counters.get("requests_arrived", 0) > 0,
                              f"input {k}: no requests simulated")
                walls.add(traced, k, wall, ref)
            passes += 1
            last = time.perf_counter() - started
        rss = peak_rss_mb()

        out.digests = {str(k): first[k] for k in sorted(first)}
        out.samples = walls.samples_ms()
        if walls.all():
            work = {k: r.counters["requests_arrived"] for k, r in results.items()}
            out.finish(walls, rss)
            out.named["sim_req_per_s"] = metric(
                typical_rate(walls, work), "1/s", n=len(walls.all()))
            out.named.update(timing_metrics("run", stats.ms(walls.all())))
            ordered = [results[k] for k in sorted(results)]
            # Simulated outputs: exact for a given seed, recorded so a
            # host-speed change that alters them is seen at once.
            out.named["sim_p99_ms"] = metric(
                sum(r.avg_p99_ms() for r in ordered) / len(ordered), "ms")
            out.named["sim_batch_units_per_s"] = metric(
                sum(r.batch_units_per_s for r in ordered) / len(ordered), "1/s")
        if trace and walls.all(True) and walls.all():
            totals = tracer.snapshot()
            n = len(walls.all(True))
            out.per_layer = layer_metrics(totals, n)
            out.per_layer["trace.overhead_frac"] = walls.overhead()
            out.tiling = {"traced": tiling_record(totals, n)}
        return out


# ---------------------------------------------------------------------------
# cluster-epochs
# ---------------------------------------------------------------------------


class ClusterWorkload:
    """Cold sharded cluster runs, then warm re-runs over their caches."""

    name = "cluster-epochs"
    why = ("cold runs stress pool IPC, cache writes and the barrier; warm "
           "re-runs do only routing, keying and disk cache reads")
    layers = ("parallel", "cluster_scale")

    servers = 16
    epochs = 3
    #: Shorter epochs route so few requests per server that p2c can starve
    #: one, which then simulates to the horizon cap (see README).
    epoch_ms = 10.0
    warmup_ms = 2.0
    accesses = 2
    workers = 2
    harvest_base = 2
    harvest_max = 4
    routing = "p2c"
    #: Routed requests as a share of the servers' nominal capacity.
    load = 1.0
    inputs = 1
    #: Cold runs of each input, each into a fresh cache directory.
    cold_repeats = 2
    min_warm = 20

    def config(self) -> Dict[str, Any]:
        return {
            "api": "repro.cluster_scale.runner.run_cluster_scale",
            "system": "HardHarvest-Block",
            "servers": self.servers,
            "epochs": self.epochs,
            "epoch_ms": self.epoch_ms,
            "warmup_ms": self.warmup_ms,
            "accesses_per_segment": self.accesses,
            "workers": self.workers,
            "harvest_base_cores": self.harvest_base,
            "harvest_max_cores": self.harvest_max,
            "routing": self.routing,
            "load": self.load,
            "requests": self._requests(),
            "inputs": self.inputs,
            "cold_repeats": self.cold_repeats,
        }

    def _requests(self) -> int:
        from repro.cluster_scale.routing import expected_server_rps
        from repro.core.presets import hardharvest_block
        from repro.workloads.suites import get_suite

        cluster = hardharvest_block().cluster
        rps = expected_server_rps(
            get_suite("socialnet")[: cluster.primary_vms_per_server], cluster
        )
        return round(self.load * rps * self.epoch_ms / 1e3
                     * self.servers * self.epochs)

    def _seeds(self, seed: int) -> List[int]:
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(2**31) for _ in range(self.inputs)]

    def _build(self, sim_seed: int):
        """Fresh config objects, as a new CLI process would build them."""
        from repro.cluster_scale import ClusterScaleConfig, RoutingPolicy
        from repro.config import SimulationConfig
        from repro.core.presets import hardharvest_block

        system = hardharvest_block()
        system = replace(system, cluster=replace(
            system.cluster, harvest_vm_base_cores=self.harvest_base))
        sim = SimulationConfig(
            seed=sim_seed, horizon_ms=self.epoch_ms, warmup_ms=self.warmup_ms,
            accesses_per_segment=self.accesses,
        )
        cfg = ClusterScaleConfig(
            servers=self.servers, requests=self._requests(), epochs=self.epochs,
            epoch_ms=self.epoch_ms, warmup_ms=self.warmup_ms,
            routing=RoutingPolicy(self.routing),
            harvest_max_cores=self.harvest_max,
        )
        return system, sim, cfg

    def probe(self, seed: int, scratch: str) -> None:
        from repro.cluster_scale import runner  # noqa: F401
        from repro.parallel.cache import ResultCache

        self._build(self._seeds(seed)[0])
        ResultCache(root=tempfile.mkdtemp(dir=scratch))

    def _run(self, sim_seed: int, cache_dir: str):
        """One run over ``cache_dir`` through a fresh ResultCache, so
        every hit is read from disk as a new process would read it."""
        from repro.cluster_scale import runner
        from repro.parallel.cache import ResultCache
        from repro.parallel.sweep import clear_fragment_memo

        system, sim, cfg = self._build(sim_seed)
        clear_fragment_memo()
        cache = ResultCache(root=cache_dir)
        return runner.run_cluster_scale(
            system, sim, cfg, workers=self.workers, cache=cache), cache.stats

    def run(self, seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
        from repro.parallel.cache import ResultCache

        deadline = time.perf_counter() + seconds
        seeds = self._seeds(seed)
        points = self.servers * self.epochs
        out = Outcome(config={**self.config(), "sim_seeds": seeds})
        tracer = LayerTracer(spans_for(self.layers)) if trace else None

        clock = HostClock()
        cold = Walls()
        cold_dirs: Dict[int, str] = {}
        digests: Dict[int, str] = {}
        requests: Dict[int, float] = {}
        cache_bytes: List[int] = []
        # One traced cold run (one more run of input 0) gives the
        # cold-phase layer table and keeps a traced run short.
        plan = [(k, False) for _ in range(self.cold_repeats)
                for k in range(len(seeds))] + ([(0, True)] if trace else [])
        for k, traced in plan:
            cache_dir = tempfile.mkdtemp(prefix=f"cold{k}.", dir=scratch)
            try:
                wall, ref, (result, cstats) = _timed(
                    clock, tracer, traced, self._run, seeds[k], cache_dir)
            except Exception as exc:  # noqa: BLE001 - counted
                out.error(f"cold {k}: {type(exc).__name__}: {exc}")
                continue
            digest = result.digest()
            out.check(
                cstats.misses == points and cstats.stores == points
                and digest == digests.setdefault(k, digest),
                f"cold {k}: digest {digest[:12]} vs {digests[k][:12]}, "
                f"stats {cstats.as_dict()} for {points} points",
            )
            cold.add(traced, k, wall, ref)
            requests[k] = result.requests_arrived()
            cold_dirs.setdefault(k, cache_dir)
            cache_bytes.append(ResultCache(root=cache_dir).disk_stats()["bytes"])
        cold_totals = tracer.snapshot() if trace else None
        if trace:
            tracer.reset()

        warm = Walls()
        plan = _passes(len(seeds), trace)
        min_warm = self.min_warm * (2 if trace else 1)
        i = 0
        while len(cold_dirs) == len(seeds) and (
                i < min_warm or time.perf_counter() < deadline):
            k, traced = plan(i)
            i += 1
            try:
                wall, ref, (result, cstats) = _timed(
                    clock, tracer, traced, self._run, seeds[k], cold_dirs[k])
            except Exception as exc:  # noqa: BLE001 - counted
                out.error(f"warm {k}: {type(exc).__name__}: {exc}")
                continue
            out.check(
                result.digest() == digests[k]
                and cstats.hits == points and cstats.misses == 0
                and cstats.memory_hits == 0,
                f"warm {k}: digest {result.digest()[:12]} vs "
                f"{digests[k][:12]}, stats {cstats.as_dict()}",
            )
            warm.add(traced, k, wall, ref)
        rss = peak_rss_mb()

        out.digests = {str(k): d for k, d in sorted(digests.items())}
        out.samples = {"cold": cold.samples_ms(), "warm": warm.samples_ms()}
        if cold.all() and warm.all():
            # The bound-checked figure comes from the warm re-runs.  A cold run
            # of two pool workers took 4.1 to 7.4 s for the same input, so
            # the two a run can afford do not give a figure that repeats;
            # cold throughput is recorded beside it.
            out.finish(warm, rss)
            cold_n = len(cold.all())
            out.named.update({
                "cluster_cold_req_per_s": metric(
                    stats.median(list(requests.values())) / stats.median(cold.all()),
                    "1/s", n=cold_n),
                "cluster_cold_ms": metric(
                    stats.median(stats.ms(cold.all())), "ms", n=cold_n),
                **timing_metrics("cluster_warm", stats.ms(warm.all())),
            })
        if trace and warm.all(True) and cold.all(True):
            warm_totals = tracer.snapshot()
            n_warm = len(warm.all(True))
            per_layer = layer_metrics(warm_totals, n_warm)
            cold_layers = layer_metrics(cold_totals, 1)
            # Each figure comes from the phase it explains: lookups and
            # routing from the warm re-runs; pool, stores, rebalancing
            # and the barrier from the cold run.
            for name in ("parallel.run_sweep_s", "parallel.pool_s",
                         "parallel.cache_put_s", "cluster_scale.rebalance_s",
                         "cluster_scale.barrier_s"):
                per_layer[name] = cold_layers[name]
            per_layer["parallel.cache_bytes"] = sum(cache_bytes) / len(cache_bytes)
            per_layer["trace.overhead_frac"] = warm.overhead()
            out.per_layer = per_layer
            out.tiling = {
                "cold": tiling_record(cold_totals, 1),
                "warm": tiling_record(warm_totals, n_warm),
                "cold_overhead_frac": cold.overhead(),
                "cold_per_layer": cold_layers,
            }
        return out


# ---------------------------------------------------------------------------
# service-jobs
# ---------------------------------------------------------------------------


def json_key(body: Dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True)


class ServiceWorkload:
    """Closed-loop clients against a fresh in-process job service.

    One operation is a *block*: a fresh service and cache directory, then
    each client submits its fixed sequence of jobs one at a time, waiting
    for each result before sending the next.  Repeating the identical
    block gives repetitions like the other workloads; a repeat cannot be
    served from the previous block's job table or cache.
    """

    name = "service-jobs"
    why = ("closed loop of 2 clients submitting small sweep jobs, a quarter "
           "duplicates: the only workload that reaches repro.service")
    layers = ("mem", "workloads", "cluster", "parallel", "service")

    clients = 2
    service_workers = 2
    jobs_per_client = 4
    horizon_ms = 10.0
    accesses = 2
    seeds_per_job = 2
    poll_s = 0.02
    wait_timeout_s = 60.0
    min_blocks = 5

    def config(self) -> Dict[str, Any]:
        return {
            "api": "repro.service.http.start_in_thread + ServiceClient",
            "clients": self.clients,
            "service_workers": self.service_workers,
            "jobs_per_client": self.jobs_per_client,
            "job": {"kind": "sweep", "workers": 1,
                    "simulation": self._simulation()},
            "seeds_per_job": self.seeds_per_job,
            "systems": "the five presets, in turn",
            "duplicates": "half of the second client's jobs repeat the "
                          "first client's job at the same position",
            "poll_s": self.poll_s,
        }

    def _simulation(self) -> Dict[str, Any]:
        return {"horizon_ms": self.horizon_ms,
                "accesses_per_segment": self.accesses}

    def sequences(self, seed: int) -> List[List[Dict[str, Any]]]:
        """Each client's job bodies.  Client 0's are all new; half of
        client 1's (seeded positions) repeat client 0's body at the same
        position, which the lock-step clients usually find still running,
        so a quarter of all submissions are duplicates."""
        from repro.core.presets import all_systems

        systems = list(all_systems())
        rng = random.Random(f"{self.name}:{seed}")
        base = rng.randrange(2**20) * 1000
        fresh = iter(range(10**6))

        def new_body() -> Dict[str, Any]:
            u = next(fresh)
            first = base + u * self.seeds_per_job
            return {
                "kind": "sweep",
                "workers": 1,
                "systems": [systems[u % len(systems)]],
                "seeds": list(range(first, first + self.seeds_per_job)),
                "simulation": self._simulation(),
            }

        n = self.jobs_per_client
        lead = [new_body() for _ in range(n)]
        repeat = set(rng.sample(range(n), n // 2))
        follow = [lead[j] if j in repeat else new_body() for j in range(n)]
        return [lead, follow][: self.clients]

    def probe(self, seed: int, scratch: str) -> None:
        from repro.service.client import ServiceClient
        from repro.service.http import start_in_thread

        handle = start_in_thread(
            service_workers=self.service_workers,
            cache_dir=tempfile.mkdtemp(dir=scratch),
        )
        try:
            ServiceClient(port=handle.port).healthz()
        finally:
            handle.stop(grace_s=5.0)

    def _round_trip(self, client, body: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.time()
        status = client.submit(body)
        t_submitted = time.time()
        job_id = status["job_id"]
        done = client.wait(job_id, timeout_s=self.wait_timeout_s, poll_s=self.poll_s)
        t_seen = time.time()
        payload = client.result(job_id)
        t_end = time.time()
        return {
            "job_id": job_id,
            "body": body,
            "created": status["created"],
            "digest": payload["digest"],
            "latency_s": t_end - t0,
            "submit_s": t_submitted - t0,
            "queue_wait_s": done["started_s"] - done["submitted_s"],
            "run_s": done["finished_s"] - done["started_s"],
            "poll_lag_s": t_seen - done["finished_s"],
        }

    def _block(self, sequences, scratch: str,
               tracer: Optional[LayerTracer]) -> Dict[str, Any]:
        """One block against a fresh service: the jobs, errors, wall time
        and the service's job records (for the echo check)."""
        from repro.service.client import ServiceClient
        from repro.service.http import start_in_thread

        cache_dir = tempfile.mkdtemp(prefix="service.", dir=scratch)
        handle = start_in_thread(service_workers=self.service_workers,
                                 cache_dir=cache_dir)
        jobs: List[Dict[str, Any]] = []
        errors: List[str] = []
        lock = threading.Lock()

        def client_loop(bodies) -> None:
            client = ServiceClient(port=handle.port, timeout_s=self.wait_timeout_s)
            for body in bodies:
                try:
                    if tracer is not None:
                        with tracer.op():
                            job = self._round_trip(client, body)
                    else:
                        job = self._round_trip(client, body)
                except Exception as exc:  # noqa: BLE001 - counted, loop continues
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                with lock:
                    jobs.append(job)

        try:
            threads = [threading.Thread(target=client_loop, args=(bodies,),
                                        name=f"bench-client-{c}")
                       for c, bodies in enumerate(sequences)]
            gc.collect()
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=self.wait_timeout_s * len(sequences[0]))
            wall = time.perf_counter() - t0
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("a benchmark client did not finish")
            records = {job["job_id"]: handle.service.store.load(job["job_id"])
                       for job in jobs}
        finally:
            handle.stop(grace_s=10.0)
            shutil.rmtree(cache_dir, ignore_errors=True)
        return {"jobs": jobs, "errors": errors, "wall_s": wall, "records": records}

    def run(self, seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
        from repro.core.export import sweep_results_digest
        from repro.parallel.runner import run_sweep
        from repro.service.spec import parse_job_request

        sequences = self.sequences(seed)
        out = Outcome(config=self.config())
        tracer = LayerTracer(spans_for(self.layers)) if trace else None
        blocks: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
        walls = Walls()
        clock = HostClock()
        plan = _passes(1, trace)
        min_blocks = self.min_blocks * (2 if trace else 1)
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_blocks or time.perf_counter() < deadline:
            _, traced = plan(i)
            i += 1
            if traced:
                with tracer.installed():
                    block = self._block(sequences, scratch, tracer)
            else:
                block = self._block(sequences, scratch, None)
            ref = clock.scaled(block["wall_s"])
            blocks[traced].append(block)
            for err in block["errors"]:
                out.error(err)
            if not block["errors"]:
                walls.add(traced, 0, block["wall_s"], ref)
        rss = peak_rss_mb()

        # Reference digests: every distinct job re-run in-process, outside
        # the service, in one sweep over all their points.
        distinct = {json_key(b): b for seq in sequences for b in seq}
        requests = {key: parse_job_request(body) for key, body in distinct.items()}
        points = [pt for req in requests.values() for pt in req.points()]
        reference = run_sweep(points, workers=2).results
        expected = {
            key: sweep_results_digest(
                {pt.label: reference[pt.label] for pt in req.points()})
            for key, req in requests.items()
        }
        for block in blocks[False] + blocks[True]:
            for job in block["jobs"]:
                key = json_key(job["body"])
                record = block["records"].get(job["job_id"])
                echoed = record.request.get("simulation", {}) if record else {}
                sent = job["body"]["simulation"]
                out.check(
                    job["digest"] == expected[key]
                    and all(echoed.get(f) == v for f, v in sent.items()),
                    f"job {job['job_id'][:12]}: served {job['digest'][:12]} vs "
                    f"in-process {expected[key][:12]}; echoed simulation "
                    f"{ {f: echoed.get(f) for f in sent} } vs sent {sent}",
                )
        out.digests = {key: d for key, d in sorted(expected.items())}
        out.samples = walls.samples_ms()

        if walls.all():
            plain = [j for b in blocks[False] for j in b["jobs"]]
            out.finish(walls, rss)
            block_s = sum(b["wall_s"] for b in blocks[False])
            out.named.update({
                **timing_metrics("job", stats.ms([j["latency_s"] for j in plain])),
                "jobs_per_s": metric(len(plain) / block_s, "1/s", n=len(plain)),
                **timing_metrics("block", stats.ms(walls.all())),
            })
        traced_jobs = [j for b in blocks[True] for j in b["jobs"]]
        if trace and traced_jobs and walls.all(True) and walls.all():
            totals = tracer.snapshot()
            per_layer = layer_metrics(totals, len(traced_jobs))
            per_layer.update(self._timeline(
                traced_jobs, [e for b in blocks[True] for e in b["errors"]]))
            per_layer["trace.overhead_frac"] = walls.overhead()
            out.per_layer = per_layer
            out.tiling = {"traced": tiling_record(totals, len(traced_jobs))}
        return out

    @staticmethod
    def _timeline(jobs: List[Dict[str, Any]], errors: List[str]) -> Dict[str, float]:
        """Mean phases of a job's life, from the client's clock and the
        service's job record (same process, same clock).  Queue wait, run
        and poll lag cover the jobs a submission created; a duplicate's
        record belongs to the job it joined."""
        created = [j for j in jobs if j["created"]] or jobs

        def mean_ms(key: str, subset) -> float:
            return 1e3 * sum(j[key] for j in subset) / len(subset)

        return {
            "service.submit_ms": mean_ms("submit_s", jobs),
            "service.queue_wait_ms": mean_ms("queue_wait_s", created),
            "service.run_ms": mean_ms("run_s", created),
            "service.poll_lag_ms": mean_ms("poll_lag_s", created),
            "service.dedupe_frac": sum(1 for j in jobs if not j["created"]) / len(jobs),
            "service.http_errors": float(
                sum(1 for e in errors if e.startswith("ServiceError"))),
        }


WORKLOADS = {
    w.name: w
    for w in (
        ServerWorkload(
            "server-memwalk",
            "HardHarvest-Block at 40 accesses per segment: the memory walk "
            "dominates, no data plane runs",
            system="HardHarvest-Block", accesses=40, load_scale=1.0,
            horizon_ms=20.0, warmup_ms=4.0, inputs=10,
        ),
        ServerWorkload(
            "server-queueing",
            "software Harvest-Block at 1.5x load, 2 accesses per segment: "
            "engine, scheduler and full flushes weigh more than the walk",
            system="Harvest-Block", accesses=2, load_scale=1.5,
            horizon_ms=50.0, warmup_ms=10.0, inputs=24,
        ),
        ClusterWorkload(),
        ServiceWorkload(),
    )
}


def scratch_dir(root: str) -> str:
    base = os.path.join(root, "perfbench", "out")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run.", dir=base)
