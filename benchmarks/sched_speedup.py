"""Scheduler + combined fast-path speedup benchmark (single server, fig11 config).

Times the same simulation in three modes per interleaved round:

* ``reference`` — ``REPRO_MEM_SLOWPATH=1`` *and* ``REPRO_SCHED_SLOWPATH=1``:
  both in-tree reference implementations together, a live replica of the
  pre-fast-path behavior and the denominator of the headline
  ``speedup_cpu``;
* ``sched_reference`` — ``REPRO_SCHED_SLOWPATH=1`` only (fast memory, the
  reference one-event-at-a-time engine loop and object-walk queue scans):
  isolates what the scheduler layer contributes on top of the memory
  fast path;
* ``fast`` — both fast paths (the default configuration).

All three modes must produce the *same result digest* (bit-identity is
the fast paths' contract, pinned independently by
``tests/test_hotpath_parity.py``); the benchmark aborts on divergence, so
a speedup number can never come from a behavioral shortcut.

Methodology (see :mod:`benchmarks._timing`): interleaved rounds,
best-of-N, CPU-time headline, digest guard.

Numbers note: the memory layer dominates the reference cost, so the
combined ratio mostly tracks the memory walk (the compiled C walk when it
loads; the record names the backend and the host's CPU count). The
scheduler layer's marginal contribution over fast memory is small at this
single-server config (~1.0–1.2x; it grows on queue-heavy cluster
configs). The reference branches are the live, parity-tested reference
algorithms; the benchmark never de-optimizes them.

Usage::

    PYTHONPATH=src python benchmarks/sched_speedup.py [--rounds 3] \
        [--horizon-ms 60] [--min-speedup 1.6]
"""

from __future__ import annotations

import argparse
import os
import platform

import repro
from repro.config import SimulationConfig
from repro.core.experiment import run_server
from repro.core.presets import hardharvest_block
from repro.mem import walk_backend
from repro.mem.cache import SLOWPATH_ENV
from repro.sim.engine import SCHED_SLOWPATH_ENV

from _timing import (
    best_cpu,
    best_wall,
    digest_of,
    env_overrides,
    interleaved_rounds,
    require_same_digest,
    write_record,
)

#: Mode name -> environment overrides selecting its implementation.
MODES = {
    "reference": {SLOWPATH_ENV: "1", SCHED_SLOWPATH_ENV: "1"},
    "sched_reference": {SLOWPATH_ENV: None, SCHED_SLOWPATH_ENV: "1"},
    "fast": {SLOWPATH_ENV: None, SCHED_SLOWPATH_ENV: None},
}


def _mode_runner(cfg: SimulationConfig, overrides):
    def run():
        with env_overrides(overrides):
            return digest_of(run_server(hardharvest_block(), cfg))

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved measurement rounds per mode")
    parser.add_argument("--horizon-ms", type=float, default=60.0)
    parser.add_argument("--warmup-ms", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if the combined CPU-time speedup "
                             "is below this (CI gate)")
    parser.add_argument("--out", default=None,
                        help="output path (default bench_results/BENCH_sched_hotpath.json)")
    args = parser.parse_args(argv)

    cfg = SimulationConfig(
        seed=args.seed, horizon_ms=args.horizon_ms, warmup_ms=args.warmup_ms
    )
    modes = [
        (name, _mode_runner(cfg, overrides)) for name, overrides in MODES.items()
    ]
    samples = interleaved_rounds(modes, args.rounds)

    try:
        digest = require_same_digest(samples)
    except RuntimeError as exc:
        print(f"ERROR: {exc}")
        return 1

    ref_cpu = best_cpu(samples["reference"])
    sched_ref_cpu = best_cpu(samples["sched_reference"])
    fast_cpu = best_cpu(samples["fast"])
    speedup_cpu = ref_cpu / fast_cpu
    sched_layer_cpu = sched_ref_cpu / fast_cpu

    record = {
        "benchmark": "sched_hotpath_speedup",
        "version": repro.__version__,
        "python": platform.python_version(),
        "config": {
            "system": "hardharvest_block",
            "seed": args.seed,
            "horizon_ms": args.horizon_ms,
            "warmup_ms": args.warmup_ms,
        },
        "rounds": args.rounds,
        "reference_cpu_s": round(ref_cpu, 3),
        "sched_reference_cpu_s": round(sched_ref_cpu, 3),
        "fast_cpu_s": round(fast_cpu, 3),
        "reference_wall_s": round(best_wall(samples["reference"]), 3),
        "sched_reference_wall_s": round(best_wall(samples["sched_reference"]), 3),
        "fast_wall_s": round(best_wall(samples["fast"]), 3),
        "speedup_cpu": round(speedup_cpu, 3),
        "speedup_wall": round(
            best_wall(samples["reference"]) / best_wall(samples["fast"]), 3
        ),
        "sched_layer_speedup_cpu": round(sched_layer_cpu, 3),
        "digest": digest,
        "walk_backend": walk_backend(),
        "nproc": os.cpu_count(),
        "baseline_note": (
            "reference = both in-tree slow paths (REPRO_MEM_SLOWPATH + "
            "REPRO_SCHED_SLOWPATH): the parity-tested per-access memory walk "
            "and per-event scheduler over the current data structures. The "
            "combined speedup is dominated by the memory layer (the compiled "
            "walk when walk_backend says c); the scheduler layer's marginal "
            "contribution over fast memory is sched_layer_speedup_cpu."
        ),
    }
    write_record(record, "BENCH_sched_hotpath.json", args.out)

    if args.min_speedup is not None and speedup_cpu < args.min_speedup:
        print(f"ERROR: combined CPU speedup {speedup_cpu:.3f} below required "
              f"{args.min_speedup}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
