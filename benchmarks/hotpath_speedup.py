"""Memory-hierarchy fast-path speedup benchmark (single server, fig11 config).

Runs the same simulation twice per round — once with
``REPRO_MEM_SLOWPATH=1`` (the reference per-access implementation, a live
replica of the pre-fast-path behavior) and once on the batched fast path —
and records best-of-N wall and CPU times plus their ratio under
``bench_results/BENCH_hotpath.json``.

Both modes must produce the *same result digest* (bit-identity is the
fast path's contract, pinned independently by ``tests/test_hotpath_parity.py``);
the benchmark aborts if they diverge, so a speedup number can never come
from a behavioral shortcut.

Methodology (see :mod:`benchmarks._timing`): interleaved rounds,
best-of-N, CPU-time headline, digest guard.  One scope note specific to
this benchmark:

* The baseline is the in-tree reference walk: per-access
  ``SetAssocArray.access`` calls (linear tag scans over the same flat
  per-level arrays the compiled walk uses) and scalar sampling.  The
  fast side is the compiled sampler and walk when they load; the record
  names the backend that ran (``walk_backend``) and the host's CPU count, since
  without a C compiler both sides run Python and the ratio collapses.

Usage::

    PYTHONPATH=src python benchmarks/hotpath_speedup.py [--rounds 3] \
        [--horizon-ms 60] [--min-speedup 1.5]
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

from _timing import (
    best_cpu,
    best_wall,
    digest_of,
    env_overrides,
    interleaved_rounds,
    require_same_digest,
    write_record,
)


def _mode_runner(cfg: SimulationConfig, slowpath: bool):
    """Thunk running one construction+run in the requested mode.

    The slow-path switch is read at construction time of every array and
    sampler, so flipping the environment variable between runs in one
    process selects the implementation cleanly.
    """
    overrides = {SLOWPATH_ENV: "1" if slowpath else None}

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
                        help="exit non-zero if the CPU-time speedup is below "
                             "this (CI gate)")
    parser.add_argument("--out", default=None,
                        help="output path (default bench_results/BENCH_hotpath.json)")
    args = parser.parse_args(argv)

    cfg = SimulationConfig(
        seed=args.seed, horizon_ms=args.horizon_ms, warmup_ms=args.warmup_ms
    )
    samples = interleaved_rounds(
        [
            ("reference", _mode_runner(cfg, True)),
            ("fast", _mode_runner(cfg, False)),
        ],
        args.rounds,
    )

    try:
        digest = require_same_digest(samples)
    except RuntimeError as exc:
        print(f"ERROR: {exc}")
        return 1

    ref_cpu = best_cpu(samples["reference"])
    fast_cpu = best_cpu(samples["fast"])
    ref_wall = best_wall(samples["reference"])
    fast_wall = best_wall(samples["fast"])
    speedup_cpu = ref_cpu / fast_cpu

    record = {
        "benchmark": "mem_hotpath_speedup",
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
        "fast_cpu_s": round(fast_cpu, 3),
        "reference_wall_s": round(ref_wall, 3),
        "fast_wall_s": round(fast_wall, 3),
        "speedup_cpu": round(speedup_cpu, 3),
        "speedup_wall": round(ref_wall / fast_wall, 3),
        "digest": digest,
        "walk_backend": walk_backend(),
        "nproc": os.cpu_count(),
        "baseline_note": (
            "reference = in-tree REPRO_MEM_SLOWPATH algorithms (per-access "
            "walk with linear tag scans over the flat per-level arrays, "
            "scalar sampling); fast = the compiled sampler and batched walk "
            "on the backend named in walk_backend. For the combined memory+scheduler ratio see "
            "BENCH_sched_hotpath.json."
        ),
    }
    write_record(record, "BENCH_hotpath.json", args.out)

    if args.min_speedup is not None and speedup_cpu < args.min_speedup:
        print(f"ERROR: CPU speedup {speedup_cpu:.3f} below required "
              f"{args.min_speedup}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
