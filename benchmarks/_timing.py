"""Shared measurement machinery for the speedup/overhead benchmarks.

Every benchmark in this directory follows the same methodology, extracted
here so the scripts stay thin and measure the same way:

* **Interleaved rounds.** Comparing modes A/B/C as A,B,C,A,B,C (instead
  of A,A,B,B,C,C) cancels CPU-frequency drift on throttling hosts: every
  mode samples every thermal regime.
* **Best-of-N.** The minimum over rounds rejects scheduler preemption and
  GC pauses — those only ever make a sample slower.
* **CPU time headline.** ``time.process_time`` is immune to the process
  being descheduled; wall time is recorded alongside for context.
* **Digest guards.** A speedup between modes is only meaningful if the
  modes computed the same thing; :func:`digest_of` hashes the canonical
  JSON of a full result and :func:`require_same_digest` aborts the
  benchmark on any divergence, so a reported number can never come from a
  behavioral shortcut.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.export import server_result_to_dict
from repro.parallel.cache import canonical_json


class Sample:
    """One timed run: wall seconds, CPU seconds, and the run's value
    (whatever the mode thunk returned — typically a result digest)."""

    __slots__ = ("wall", "cpu", "value")

    def __init__(self, wall: float, cpu: float, value):
        self.wall = wall
        self.cpu = cpu
        self.value = value


@contextlib.contextmanager
def env_overrides(overrides: Dict[str, Optional[str]]):
    """Temporarily set (value) or clear (None) environment variables.

    The data-plane switch (``REPRO_DATAPLANE_SLOWPATH``) is read when a
    run or a cache is set up, so flipping it between runs in one process
    selects the implementation cleanly — this context manager is how a benchmark mode
    requests its implementation.
    """
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def timed_call(fn: Callable[[], object]) -> Sample:
    """Run ``fn`` once under the standard clocks (after a GC sweep, so a
    previous run's garbage is not charged to this one)."""
    gc.collect()
    t0_wall, t0_cpu = time.perf_counter(), time.process_time()
    value = fn()
    wall = time.perf_counter() - t0_wall
    cpu = time.process_time() - t0_cpu
    return Sample(wall, cpu, value)


def interleaved_rounds(
    modes: Sequence[Tuple[str, Callable[[], object]]],
    rounds: int,
    progress: Optional[Callable[[str], None]] = print,
) -> Dict[str, List[Sample]]:
    """Run every mode once per round, in order; returns samples per mode."""
    samples: Dict[str, List[Sample]] = {name: [] for name, _ in modes}
    for rnd in range(rounds):
        for name, fn in modes:
            s = timed_call(fn)
            samples[name].append(s)
            if progress is not None:
                progress(
                    f"round {rnd} {name:15s} wall={s.wall:.3f}s cpu={s.cpu:.3f}s"
                )
    return samples


def best_cpu(samples: Iterable[Sample]) -> float:
    return min(s.cpu for s in samples)


def best_wall(samples: Iterable[Sample]) -> float:
    return min(s.wall for s in samples)


def digest_of(result) -> str:
    """sha256 of the canonical JSON of a full ServerResult."""
    payload = canonical_json(server_result_to_dict(result))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def require_same_digest(samples: Dict[str, List[Sample]]) -> str:
    """All modes must have produced one identical digest; returns it.

    Raises ``RuntimeError`` otherwise — the caller should let that abort
    the benchmark, because timing numbers for diverging computations are
    meaningless.
    """
    digests = {s.value for mode in samples.values() for s in mode}
    if len(digests) != 1:
        raise RuntimeError(
            f"benchmark modes produced different result digests: {sorted(digests)}"
        )
    return digests.pop()


def write_record(record: dict, filename: str, out: Optional[str] = None) -> str:
    """Write a benchmark record under ``bench_results/`` (or ``out``) and
    echo it; returns the path written."""
    out_dir = os.path.join(os.path.dirname(__file__), "..", "bench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = out or os.path.join(out_dir, filename)
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return out_path
