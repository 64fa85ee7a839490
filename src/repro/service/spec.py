"""Job request parsing and validation for the simulation service.

A job is one of two shapes, mirroring the two heavy CLI paths:

* ``{"kind": "sweep", ...}`` — a (systems x seeds) grid executed through
  :func:`repro.parallel.runner.run_sweep`;
* ``{"kind": "cluster", ...}`` — a sharded cluster-scale run executed
  through :func:`repro.cluster_scale.runner.run_cluster_scale`.

Parsing is strict: unknown fields, unknown system names, and values that
fail :class:`~repro.config.SimulationConfig` /
:class:`~repro.cluster_scale.spec.ClusterScaleConfig` validation raise
:class:`JobValidationError` carrying the *name of the offending field*,
which the HTTP layer returns in the 400 body and ``python -m repro run
--config`` prints before exiting 2.

Identity contract
-----------------

:meth:`JobRequest.identity` is the canonical, JSON-able description of
everything that determines the job's output — the fully-expanded sweep
point payloads (sweep) or the serialized system/simulation/cluster
configs plus batch-job roster (cluster).  The job id is the
:class:`~repro.parallel.cache.ResultCache` content hash of that identity
(``sha256(canonical_json(identity) + "\\n" + version)``), so:

* submitting the same configuration twice — from any number of
  concurrent clients — dedupes to the same job id and one underlying run;
* ``workers`` is *excluded*: results are bit-identical at any worker
  count, so a resubmission that only changes parallelism must hit the
  same job;
* a package version bump rolls every job id, exactly as it rolls every
  result-cache key.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SimulationConfig, TelemetryConfig

#: Fields a plain (non-``__type__``) simulation object may set.
SIM_FIELDS = {f.name: f for f in dataclasses.fields(SimulationConfig)}

JOB_KINDS = ("sweep", "cluster")

#: Upper bound on per-job process-pool workers a client may request.
MAX_JOB_WORKERS = 32


class JobValidationError(ValueError):
    """A job payload (or ``--config`` file) failed validation.

    ``field`` names the offending field when it can be determined —
    the HTTP layer surfaces it in the 400 error body.
    """

    def __init__(self, field: Optional[str], message: str):
        self.field = field
        super().__init__(message)


def _blame_field(message: str, candidates) -> Optional[str]:
    """Best-effort field attribution for a config ``ValueError``: the
    first known field name that appears in the message."""
    for name in sorted(candidates, key=len, reverse=True):
        if name in message:
            return name
    return None


def validate_simulation(sim: SimulationConfig) -> None:
    """Field-level sanity checks the frozen dataclass does not enforce.

    Raises :class:`JobValidationError` naming the offending field — the
    friendly alternative to a traceback from deep inside the arrival
    generator.
    """
    if not isinstance(sim.seed, int) or isinstance(sim.seed, bool):
        raise JobValidationError("seed", f"seed must be an integer, got {sim.seed!r}")
    if sim.seed < 0:
        raise JobValidationError("seed", f"seed must be non-negative, got {sim.seed}")
    if sim.horizon_ms <= 0:
        raise JobValidationError(
            "horizon_ms", f"horizon_ms must be positive, got {sim.horizon_ms}"
        )
    if not 0 <= sim.warmup_ms < sim.horizon_ms:
        raise JobValidationError(
            "warmup_ms",
            f"warmup_ms must be in [0, horizon_ms), got {sim.warmup_ms} "
            f"with horizon_ms={sim.horizon_ms}",
        )
    if sim.accesses_per_segment <= 0:
        raise JobValidationError(
            "accesses_per_segment",
            f"accesses_per_segment must be positive, got {sim.accesses_per_segment}",
        )
    if sim.load_scale <= 0:
        raise JobValidationError(
            "load_scale", f"load_scale must be positive, got {sim.load_scale}"
        )
    if sim.servers_to_simulate <= 0:
        raise JobValidationError(
            "servers_to_simulate",
            f"servers_to_simulate must be positive, got {sim.servers_to_simulate}",
        )
    if sim.requests_per_service is not None and sim.requests_per_service <= 0:
        raise JobValidationError(
            "requests_per_service",
            f"requests_per_service must be positive, got {sim.requests_per_service}",
        )
    if sim.trace_interval_ms <= 0:
        raise JobValidationError(
            "trace_interval_ms",
            f"trace_interval_ms must be positive, got {sim.trace_interval_ms}",
        )


def _coerce_numeric(fields: Dict[str, Any], dataclass_fields) -> None:
    """JSON has one number type; the configs have two.  Cast ints posted
    for float-typed fields so the rebuilt config serializes exactly as
    the CLI-built one (``40`` vs ``40.0`` must not split cache keys)."""
    for name, value in list(fields.items()):
        f = dataclass_fields.get(name)
        if f is None:
            continue
        if f.type in ("float", float) and isinstance(value, int) and not isinstance(value, bool):
            fields[name] = float(value)


def build_simulation(data: Optional[Dict[str, Any]],
                     servers: int = 1) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from a POSTed object.

    Accepts either the full serialized form (``{"__type__":
    "SimulationConfig", ...}`` as written by ``--dump-config``) or a
    plain field dict.  The plain form applies the CLI's warmup rule when
    ``warmup_ms`` is omitted (``min(horizon_ms / 5, 100)``), so a job
    posting only ``horizon_ms`` digests identically to the equivalent
    ``python -m repro`` invocation.
    """
    from repro.core.serialize import from_dict

    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise JobValidationError(
            "simulation", f"simulation must be an object, got {type(data).__name__}"
        )
    if "__type__" in data:
        try:
            sim = from_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            raise JobValidationError(
                _blame_field(str(exc), SIM_FIELDS), f"bad simulation config: {exc}"
            ) from exc
        if not isinstance(sim, SimulationConfig):
            raise JobValidationError(
                "simulation", "serialized simulation is not a SimulationConfig"
            )
    else:
        unknown = sorted(set(data) - set(SIM_FIELDS))
        if unknown:
            raise JobValidationError(
                unknown[0],
                f"unknown SimulationConfig field(s) {unknown}; "
                f"valid fields: {sorted(SIM_FIELDS)}",
            )
        fields = dict(data)
        for key in ("faults", "client", "telemetry"):
            value = fields.get(key)
            if isinstance(value, dict):
                if "__type__" in value:
                    try:
                        fields[key] = from_dict(value)
                    except (ValueError, KeyError, TypeError) as exc:
                        raise JobValidationError(key, f"bad {key}: {exc}") from exc
                elif key == "telemetry":
                    tele_fields = {
                        f.name for f in dataclasses.fields(TelemetryConfig)
                    }
                    bad = sorted(set(value) - tele_fields)
                    if bad:
                        raise JobValidationError(
                            bad[0], f"unknown TelemetryConfig field(s) {bad}"
                        )
                    try:
                        fields[key] = TelemetryConfig(**value)
                    except (ValueError, TypeError) as exc:
                        raise JobValidationError("telemetry", str(exc)) from exc
                else:
                    raise JobValidationError(
                        key,
                        f"{key} must use the serialized form "
                        f'({{"__type__": ...}}) or be null',
                    )
        _coerce_numeric(fields, SIM_FIELDS)
        if "warmup_ms" not in fields:
            horizon = fields.get("horizon_ms", SimulationConfig().horizon_ms)
            fields["warmup_ms"] = min(float(horizon) / 5, 100.0)
        fields.setdefault("servers_to_simulate", servers)
        try:
            sim = SimulationConfig(**fields)
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                _blame_field(str(exc), SIM_FIELDS), f"bad simulation config: {exc}"
            ) from exc
    validate_simulation(sim)
    return sim


def _parse_seeds_value(value: Any) -> Tuple[int, ...]:
    from repro.parallel.sweep import parse_seeds

    if value is None:
        return (SimulationConfig().seed,)
    if isinstance(value, str):
        try:
            return parse_seeds(value)
        except ValueError as exc:
            raise JobValidationError("seeds", f"bad seeds: {exc}") from exc
    if isinstance(value, int) and not isinstance(value, bool):
        return (value,)
    if isinstance(value, list):
        if not value:
            raise JobValidationError("seeds", "seeds list is empty")
        bad = [s for s in value if not isinstance(s, int) or isinstance(s, bool)]
        if bad:
            raise JobValidationError("seeds", f"non-integer seed(s): {bad}")
        return tuple(value)
    raise JobValidationError(
        "seeds", f'seeds must be a string ("0..7"), integer, or list, '
                 f"got {type(value).__name__}"
    )


def _parse_workers(value: Any) -> int:
    if value is None:
        return 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise JobValidationError(
            "workers", f"workers must be an integer, got {value!r}"
        )
    if not 1 <= value <= MAX_JOB_WORKERS:
        raise JobValidationError(
            "workers", f"workers must be in [1, {MAX_JOB_WORKERS}], got {value}"
        )
    return value


@dataclass(frozen=True)
class JobRequest:
    """One validated, fully-resolved job submission."""

    kind: str
    workers: int
    sim: SimulationConfig
    #: Sweep: preset system names, in submission order.
    systems: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = ()
    #: Cluster: the single system name and the datacenter-layer config.
    system: str = ""
    cluster: Optional[Any] = None  # ClusterScaleConfig; Any avoids import cycle
    #: Canned fault plan name a cluster job asked for (None = nominal).
    fault_plan: Optional[str] = None

    # ------------------------------------------------------------------
    def points(self) -> List[Any]:
        """Sweep only: the fully-specified SweepPoints, in grid order."""
        from repro.core.presets import all_systems
        from repro.parallel.sweep import SweepSpec

        presets = all_systems()
        systems = {name: presets[name] for name in self.systems}
        return list(
            SweepSpec(systems=systems, seeds=self.seeds, sim=self.sim).points()
        )

    def cluster_system(self):
        """Cluster only: the resolved :class:`SystemConfig`."""
        from repro.config import SystemKind
        from repro.core.presets import build_system

        kind = next(k for k in SystemKind if k.value == self.system)
        return build_system(kind)

    # ------------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """Everything that determines this job's output (see module doc).

        ``workers`` is deliberately absent: parallelism never changes
        results, so it must never split job ids.
        """
        from repro.core.serialize import to_dict

        if self.kind == "sweep":
            return {
                "service_job": "sweep",
                "points": [p.payload() for p in self.points()],
            }
        from repro.workloads.batch import BATCH_JOBS

        return {
            "service_job": "cluster",
            "system": to_dict(self.cluster_system()),
            "simulation": to_dict(self.sim),
            "cluster_scale": self.cluster.to_dict(),
            "batch_jobs": [dataclasses.asdict(job) for job in BATCH_JOBS],
        }

    def to_request_dict(self) -> Dict[str, Any]:
        """A normalized request body that re-parses to an equal request.

        This is what the job store persists, so a restarted service can
        rebuild and resume any queued job.
        """
        from repro.core.serialize import to_dict

        out: Dict[str, Any] = {
            "kind": self.kind,
            "workers": self.workers,
            "simulation": to_dict(self.sim),
        }
        if self.kind == "sweep":
            out["systems"] = list(self.systems)
            out["seeds"] = list(self.seeds)
        else:
            out["system"] = self.system
            cluster = self.cluster.to_dict()
            cluster.pop("fault_plan", None)
            out["cluster"] = cluster
            out["fault_plan"] = self.fault_plan
        return out


def _parse_sweep(body: Dict[str, Any], workers: int) -> JobRequest:
    from repro.core.presets import all_systems

    presets = all_systems()
    systems_value = body.get("systems", "all")
    if systems_value == "all":
        names = list(presets)
    elif isinstance(systems_value, str):
        names = [n.strip() for n in systems_value.split(",") if n.strip()]
    elif isinstance(systems_value, list):
        names = list(systems_value)
    else:
        raise JobValidationError(
            "systems", f'systems must be "all", a comma string, or a list, '
                       f"got {type(systems_value).__name__}"
        )
    unknown = [n for n in names if n not in presets]
    if unknown:
        raise JobValidationError(
            "systems", f"unknown system(s) {unknown}; choose from {list(presets)}"
        )
    if not names:
        raise JobValidationError("systems", "no systems selected")
    seeds = _parse_seeds_value(body.get("seeds"))
    sim = build_simulation(body.get("simulation"))
    return JobRequest(
        kind="sweep", workers=workers, sim=sim,
        systems=tuple(names), seeds=seeds,
    )


def _parse_cluster(body: Dict[str, Any], workers: int) -> JobRequest:
    from repro.cluster_scale.resilience import cluster_plan_names, get_cluster_plan
    from repro.cluster_scale.spec import (
        ROUTING_POLICY_NAMES,
        ClusterScaleConfig,
        RoutingPolicy,
    )
    from repro.config import SystemKind

    system_name = body.get("system", "HardHarvest-Block")
    if system_name not in [k.value for k in SystemKind]:
        raise JobValidationError(
            "system", f"unknown system {system_name!r}; choose from "
                      f"{[k.value for k in SystemKind]}"
        )
    cluster_data = body.get("cluster") or {}
    if not isinstance(cluster_data, dict):
        raise JobValidationError(
            "cluster", f"cluster must be an object, got {type(cluster_data).__name__}"
        )
    cluster_fields = {f.name: f for f in dataclasses.fields(ClusterScaleConfig)}
    unknown = sorted(set(cluster_data) - set(cluster_fields) - {"fault_plan"})
    if unknown:
        raise JobValidationError(
            unknown[0],
            f"unknown ClusterScaleConfig field(s) {unknown}; "
            f"valid fields: {sorted(cluster_fields)}",
        )
    fields = {k: v for k, v in cluster_data.items() if k != "fault_plan"}
    _coerce_numeric(fields, cluster_fields)
    routing = fields.get("routing")
    if routing is not None:
        if routing not in ROUTING_POLICY_NAMES:
            raise JobValidationError(
                "routing", f"unknown routing policy {routing!r}; choose from "
                           f"{list(ROUTING_POLICY_NAMES)}"
            )
        fields["routing"] = RoutingPolicy(routing)

    servers = fields.get("servers", ClusterScaleConfig().servers)
    sim = build_simulation(body.get("simulation"), servers=servers)
    fields.setdefault("epoch_ms", sim.horizon_ms)
    fields.setdefault("warmup_ms", sim.warmup_ms)

    plan_name = body.get("fault_plan", cluster_data.get("fault_plan"))
    if plan_name is not None:
        if not isinstance(plan_name, str):
            raise JobValidationError(
                "fault_plan", "fault_plan must be a canned plan name"
            )
        try:
            fields["fault_plan"] = get_cluster_plan(
                plan_name, servers, fields.get("epochs", ClusterScaleConfig().epochs)
            )
        except KeyError:
            raise JobValidationError(
                "fault_plan", f"unknown fault plan {plan_name!r}; choose from "
                              f"{cluster_plan_names()}"
            ) from None
    try:
        cfg = ClusterScaleConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise JobValidationError(
            _blame_field(str(exc), cluster_fields), f"bad cluster config: {exc}"
        ) from exc
    request = JobRequest(
        kind="cluster", workers=workers, sim=sim,
        system=system_name, cluster=cfg, fault_plan=plan_name,
    )
    # Core-budget check the runner would otherwise raise mid-job.
    from repro.cluster_scale.runner import _validate

    try:
        _validate(request.cluster_system(), cfg)
    except ValueError as exc:
        raise JobValidationError("harvest_max_cores", str(exc)) from exc
    return request


#: Top-level fields a job body may carry, per kind.  Anything else (say a
#: misspelled ``"sim"``) is rejected rather than silently defaulted.
_JOB_KEYS = {
    "sweep": frozenset({"kind", "workers", "systems", "seeds", "simulation"}),
    "cluster": frozenset(
        {"kind", "workers", "system", "cluster", "simulation", "fault_plan"}),
}


def parse_job_request(body: Any) -> JobRequest:
    """Parse and validate one POSTed job body; raises
    :class:`JobValidationError` with the offending field named."""
    if not isinstance(body, dict):
        raise JobValidationError(
            None, f"job body must be a JSON object, got {type(body).__name__}"
        )
    kind = body.get("kind")
    if kind not in JOB_KINDS:
        raise JobValidationError(
            "kind", f"kind must be one of {list(JOB_KINDS)}, got {kind!r}"
        )
    unknown = sorted(set(body) - _JOB_KEYS[kind])
    if unknown:
        raise JobValidationError(
            unknown[0],
            f"unknown {kind} job field {unknown[0]!r}; allowed: "
            f"{sorted(_JOB_KEYS[kind])}",
        )
    workers = _parse_workers(body.get("workers"))
    if kind == "sweep":
        return _parse_sweep(body, workers)
    return _parse_cluster(body, workers)


def job_content_id(request: JobRequest, cache=None) -> str:
    """The job id: the :class:`ResultCache` content hash of the job's
    identity payload (duplicate submissions collide by construction)."""
    from repro.parallel.cache import ResultCache

    return (cache or ResultCache()).key(request.identity())
