"""Memory hot-path speedup benchmark (single server, fig11 config).

Runs the same simulation twice per round — once on the no-compiler
fallback (per-access ``SetAssocArray.access`` walks over the flat
per-level arrays and numpy sampling: what a host without ``cc`` runs)
and once on the compiled sampler and walk — and records best-of-N wall
and CPU times plus their ratio under ``bench_results/BENCH_hotpath.json``.

Both modes must produce the *same result digest* (bit-identity is the
compiled path's contract, pinned independently by
``tests/test_hotpath_parity.py`` and ``tests/test_walk_kernel.py``); the
benchmark aborts if they diverge, so a speedup number can never come
from a behavioral shortcut.

Methodology (see :mod:`benchmarks._timing`): interleaved rounds,
best-of-N, CPU-time headline, digest guard.  The fallback is selected
in-process: memory objects bind their walk and sampler when they are
built, so installing a kernel loader that found no C compiler for the
duration of one run makes that run take the fallback.  The record names
the backend the fast side ran (``walk_backend``) and the host's CPU
count, since without a C compiler both sides run Python and the ratio
collapses.

Usage::

    PYTHONPATH=src python benchmarks/hotpath_speedup.py [--rounds 3] \
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
from repro.mem import kernel, walk_backend

from _timing import (
    best_cpu,
    best_wall,
    digest_of,
    interleaved_rounds,
    require_same_digest,
    write_record,
)


def _no_compiler_loader() -> kernel.KernelLoader:
    """A kernel loader that looked for a C compiler and found none."""
    loader = kernel.KernelLoader()
    which = kernel.shutil.which
    kernel.shutil.which = lambda name: None
    try:
        loader.load()
    finally:
        kernel.shutil.which = which
    assert loader.lib is None, loader.reason
    return loader


def _mode_runner(cfg: SimulationConfig, loader):
    """Thunk running one construction+run with ``loader`` installed
    (None: the process's own loader, i.e. the compiled kernel)."""

    def run():
        saved = kernel._LOADER
        kernel._LOADER = loader or saved
        try:
            return digest_of(run_server(hardharvest_block(), cfg))
        finally:
            kernel._LOADER = saved

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
            ("reference", _mode_runner(cfg, _no_compiler_loader())),
            ("fast", _mode_runner(cfg, None)),
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
            "reference = the no-compiler fallback (per-access walk with "
            "linear tag scans over the flat per-level arrays, numpy "
            "sampling); fast = the compiled sampler and batched walk on the "
            "backend named in walk_backend. The scheduler is the same on "
            "both sides."
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
