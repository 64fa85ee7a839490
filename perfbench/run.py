"""Host-speed benchmark of the HardHarvest simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload server-memwalk --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` measures untraced operations and reports the end-to-end
metrics; ``--trace 1`` adds traced operations and reports the per-layer
table instead.  Every line but the last is for people; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record is written under ``perfbench/out/``.

The benchmark measures how fast the host runs the simulator.  It gives
no simulated-accuracy figure: the model's error against the paper is
tracked in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import record
import stats
from hostclock import HostClock
from spans import PER_LAYER_METRICS
from workloads import WORKLOADS, scratch_dir

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END = ("setup_s", "op_ms", "peak_rss_mb")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="SCRATCH", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _probe(workload, seed: int, scratch: str) -> None:
    """Child side of a set-up measurement: import, build, (start)."""
    wall, ref, _ = HostClock().measure(workload.probe, seed, scratch)
    print(json.dumps({"wall_s": wall, "setup_s": ref}))


def _setup_seconds(workload, seed: int, scratch: str) -> list:
    """Reference-host set-up seconds of fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload.name, "--seed", str(seed), "--probe", scratch],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    if args.probe is not None:
        _probe(workload, args.seed, args.probe)
        return 0

    trace = bool(args.trace)
    scratch = scratch_dir(root)
    try:
        outcome = workload.run(args.seed, args.seconds, trace, scratch)
        setup = _setup_seconds(workload, args.seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    end_to_end = {
        "setup_s": {"value": stats.median(setup), "unit": "s",
                    "samples": setup},
        **outcome.e2e,
    }
    per_layer = None
    if outcome.per_layer is not None:
        per_layer = {name: {"value": outcome.per_layer[name], "unit": unit}
                     for name, unit in PER_LAYER_METRICS}
    rec = record.build(
        root=root, workload=workload, seed=args.seed, seconds=args.seconds,
        trace=trace, outcome=outcome, end_to_end=end_to_end,
        per_layer=per_layer,
    )
    path = record.write(rec, os.path.join(root, "perfbench", "out"))

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for name, m in {**end_to_end, **outcome.named}.items():
        count = f"  (n={m['n']})" if "n" in m else ""
        print(f"  {name:<26} {_fmt(m['value']):>14} {m['unit']}{count}")
    if per_layer is not None:
        print("  per layer (per operation):")
        for name, m in per_layer.items():
            print(f"    {name:<28} {_fmt(m['value']):>14} {m['unit']}")
        tiled = all(t.get("tiles", True) for t in outcome.tiling.values()
                    if isinstance(t, dict))
        print(f"  layer self-times + other_s tile the traced wall time: {tiled}")
    for err in outcome.errors[:10]:
        print(f"  FAILED: {err}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}  "
          f"record {os.path.relpath(path, root)}")

    wanted = PER_LAYER_METRICS if trace else [(n, None) for n in END_TO_END]
    source = per_layer if trace else end_to_end
    if source is None or any(name not in source for name, _ in wanted):
        print("perfbench: no successful operation to report", file=sys.stderr)
        return 1
    metrics = {name: {"value": source[name]["value"], "unit": source[name]["unit"]}
               for name, _ in wanted}
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
