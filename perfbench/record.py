"""The benchmark record: one schema for every workload and mode.

A record names the host, the revision and package version, the seed,
the workload's config and result digests, the end-to-end metrics with
units, and (for a traced run) the per-layer table with its exact
tiling.  Records are written under ``perfbench/out/``.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from typing import Any, Dict, Optional

SCHEMA = "perfbench.record/1"


def git_revision(root: str) -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else None


def host() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def build(*, root: str, workload, seed: int, seconds: float, trace: bool,
          outcome, end_to_end: Dict[str, Dict[str, Any]],
          per_layer: Optional[Dict[str, Dict[str, Any]]]) -> Dict[str, Any]:
    import repro

    return {
        "schema": SCHEMA,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "host": host(),
        "git_revision": git_revision(root),
        "package_version": repro.__version__,
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": outcome.config,
        "digests": outcome.digests,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors[:50],
        "end_to_end": end_to_end,
        "named": outcome.named,
        "per_layer": per_layer,
        "tiling": outcome.tiling,
        "samples_ms": outcome.samples,
    }


def write(record: Dict[str, Any], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    name = (f"record-{record['workload']}-seed{record['seed']}"
            f"-trace{int(record['trace'])}.json")
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
