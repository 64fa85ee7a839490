"""Bit-identity guard for the memory and scheduler hot paths.

The compiled memory walk and sampler (:meth:`CoreMemory.access_batch`
over flat per-level arrays) and the scheduler (the engine's batched
same-timestamp drain, the subqueues' status bytes) must keep every
counter, latency percentile, and resilience metric exactly where the
golden pins put them.  ``tests/data/golden_hotpath.json`` pins digests
first computed by the per-access / per-event implementations these
paths replaced; these tests hold the default paths to them, and
``tests/test_walk_kernel.py::test_fallback_walk_matches_golden`` holds
the no-compiler fallback to the same pins.

Regenerate the pins (only when intentionally changing simulation
behavior) with ``PYTHONPATH=src python tests/_hotpath_golden.py --write``.
"""

import pytest

from repro.core.experiment import run_server_raw
from repro.core.presets import harvest_block, hardharvest_block
from repro.config import SimulationConfig
from repro.hw.request_queue import CODE_READY

from tests._hotpath_golden import all_cases, case_label, load_golden, run_digest

GOLDEN = load_golden()
CASES = list(all_cases())


@pytest.mark.parametrize(
    "system_key,seed,variant",
    CASES,
    ids=[case_label(*c) for c in CASES],
)
def test_fast_path_matches_golden(system_key, seed, variant):
    """The default paths reproduce the pinned digests."""
    assert run_digest(system_key, seed, variant) == GOLDEN[
        case_label(system_key, seed, variant)
    ]


def test_telemetry_is_zero_perturbation():
    """The pinned telemetry-on digests equal the plain seed-0 digests.

    Telemetry's contract is that enabling it never changes simulation
    results; checking it at the pin level (instead of re-running) makes
    the golden file itself document the property.
    """
    for system_key in ("SW", "HardHarvest"):
        assert GOLDEN[case_label(system_key, 0, "telemetry")] == GOLDEN[
            case_label(system_key, 0)
        ]


# ----------------------------------------------------------------------
# Structural invariants
# ----------------------------------------------------------------------

def _check_array(arr, label):
    """The flat layout's invariants after ``settle()``.

    Rows are handed out in first-touch order, one per touched set, and
    map back to it; every row has reconciled up to the current flush
    epoch; rows past the last one in use hold nothing; within a row the
    recency stamps are distinct and never exceed its clock; and every
    valid entry was filled by some miss.
    """
    flat = arr.flat
    used = int(flat["meta"][5])
    rows = flat["row"]
    touched = list(arr.sets)
    assert touched == flat["log"][:used].tolist(), label
    assert len(set(touched)) == used, label
    assert sorted(touched) == rows.nonzero()[0].tolist(), label
    assert all(rows[s] == r + 1 for r, s in enumerate(touched)), label
    assert (flat["seen"][:used] == flat["meta"][0] + 1).all(), label
    valid = flat["valid"].reshape(-1, arr.ways)
    stamp = flat["stamp"].reshape(-1, arr.ways)
    for r in range(used):
        stamps = [int(s) for s in stamp[r] if s]
        assert len(stamps) == len(set(stamps)), f"{label} row {r}"
        assert max(stamps, default=0) <= flat["clock"][r], f"{label} row {r}"
    assert not valid[used:].any() and not flat["clock"][used:].any(), label
    assert arr.occupancy() <= arr.misses, label
    assert arr.evictions <= arr.misses, label


def _check_subqueue(sq, label):
    """One status byte per entry, each a valid code; the READY counter
    equals the number of READY bytes."""
    assert len(sq._codes) == len(sq.entries), label
    assert max(sq._codes, default=0) <= 2, label
    assert sq._ready_count == sq._codes.count(CODE_READY), label


def _subqueues(sim):
    """Every live subqueue of a finished server simulation, labeled."""
    out = []
    for vm in sim.primary_vms:
        queue = vm.queue
        sq = getattr(queue, "_sq", None)  # SoftwareQueue
        if sq is None:
            sq = queue.qm.subqueue  # SharedQueueAdapter
        out.append((sq, f"vm{vm.vm_id}.{type(queue).__name__}"))
    return out


def test_index_consistency_after_run():
    """After a full simulated run every array's flat layout is coherent.

    ``settle()`` first applies any pending lazy way-flushes, then the
    invariants of :func:`_check_array` — which every kernel and reference
    fill/evict/reconcile must preserve — are checked per array.
    """
    sim = run_server_raw(
        hardharvest_block(),
        SimulationConfig(seed=0, horizon_ms=10.0, warmup_ms=2.0,
                         accesses_per_segment=8),
    )
    arrays = []
    for core in sim.cores:
        mem = core.memory
        arrays += [
            (mem.l1d.array, f"core{core.core_id}.l1d"),
            (mem.l1i.array, f"core{core.core_id}.l1i"),
            (mem.l2.array, f"core{core.core_id}.l2"),
            (mem.l1_tlb.array, f"core{core.core_id}.l1tlb"),
            (mem.l2_tlb.array, f"core{core.core_id}.l2tlb"),
        ]
    seen = 0
    for arr, label in arrays:
        arr.settle()
        _check_array(arr, label)
        seen += len(arr.sets)
    assert seen > 100  # the run genuinely touched the hierarchy


@pytest.mark.parametrize(
    "preset",
    [harvest_block, hardharvest_block],
    ids=["SW", "HardHarvest"],
)
def test_queue_mirror_consistency_after_run(preset):
    """After a full run every subqueue's status bytes are coherent.

    ``_codes`` holds one status byte per entry and ``_ready_count``
    equals the number of READY bytes — the invariant every
    enqueue/dequeue/block/shed must preserve (``tests/test_queue_model.py``
    checks it after every operation of random sequences).  Covers both
    queue shapes: software per-core steering queues and the hardware QM
    subqueues.
    """
    sim = run_server_raw(
        preset(),
        SimulationConfig(seed=0, horizon_ms=10.0, warmup_ms=2.0,
                         accesses_per_segment=8),
    )
    for sq, label in _subqueues(sim):
        _check_subqueue(sq, label)
