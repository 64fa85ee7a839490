"""The compiled memory walk: parity with the Python reference, and loader
robustness.

* Differential: on random geometries, policies, masks, access mixes and
  flush interleavings, one ``access_batch`` call into the C walk leaves the
  exact state that per-access :meth:`CoreMemory.access` calls leave (every
  flat array, every counter, the DRAM model) and returns the same ns.
* Golden: the forced Python fallback reproduces every hot-path pin.
* Loader: no compiler, a failing compile, a garbage or stale cached
  library, and a racing first load all end in a working walk or a recorded
  fallback — never a crash or a wrong digest.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    HierarchyConfig,
    MemoryConfig,
    PartitionConfig,
    ReplacementKind,
    SimulationConfig,
    TlbConfig,
)
from repro.mem import kernel, walk_backend
from repro.mem.cache import Cache, SetAssocArray
from repro.mem.dram import DramModel
from repro.mem.hierarchy import CoreMemory
from repro.mem.replacement import LruPolicy, make_policy
from repro.workloads.memory_profile import AccessBatch

from tests._hotpath_golden import all_cases, case_label, load_golden, run_digest

GOLDEN = load_golden()
CASES = list(all_cases())

needs_kernel = pytest.mark.skipif(
    walk_backend()["backend"] != "c",
    reason=f"compiled walk unavailable: {walk_backend()['reason']}",
)


# ----------------------------------------------------------------------
# Differential: C kernel vs Python reference
# ----------------------------------------------------------------------
_POLICIES = [ReplacementKind.LRU, ReplacementKind.RRIP, ReplacementKind.HARDHARVEST]


@st.composite
def hierarchies(draw, policies=_POLICIES, set_counts=(1, 2, 4, 8, 16),
                partitioned=st.booleans()):
    partitioned = draw(partitioned)
    lo = 2 if partitioned else 1  # one way leaves a Harvest VM no ways

    def ways():
        return draw(st.sampled_from([lo, 2, 3, 4, 6, 8, 10, 12, 16]))

    def sets():
        return draw(st.sampled_from(set_counts))

    def cache(name):
        w, s = ways(), sets()
        return CacheConfig(name, s * w * 64, w, 64, draw(st.integers(1, 40)))

    def tlb(name):
        w, s = ways(), sets()
        return TlbConfig(name, s * w, w, draw(st.integers(1, 20)))

    hier = HierarchyConfig(
        freq_ghz=draw(st.sampled_from([1.0, 2.5, 3.0])),
        l1d=cache("L1D"), l1i=cache("L1I"), l2=cache("L2"),
        llc_per_core=cache("LLC"), l1_tlb=tlb("L1TLB"), l2_tlb=tlb("L2TLB"),
        memory=MemoryConfig(
            access_ns=draw(st.sampled_from([60, 90])),
            page_walk_cycles=draw(st.integers(10, 200)),
            bandwidth_gbps=draw(st.sampled_from([102.4, 0.5, 0.05])),
        ),
    )
    part = PartitionConfig(
        enabled=partitioned,
        harvest_fraction=draw(st.sampled_from([0.25, 0.5, 0.75])),
        eviction_candidates_fraction=draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])),
        replacement=draw(st.sampled_from(policies)),
    )
    llc_kind = draw(st.sampled_from([None, "lru", "rrip", "hardharvest"]))
    return hier, part, llc_kind


_ACCESS = st.tuples(
    # 64 pages x 16 lines: enough reuse for hits, enough conflict for
    # full-set evictions in the small drawn geometries.
    st.builds(lambda page, line: page * 4096 + line * 64,
              st.integers(0, 63), st.integers(0, 15)),
    st.booleans(), st.booleans(), st.booleans(),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.lists(_ACCESS, min_size=1, max_size=24),
                  st.booleans(), st.integers(-50, 4000)),
        st.tuples(st.just("flush_harvest")),
        st.tuples(st.just("flush_all")),
        st.tuples(st.just("flush_ways"), st.integers(0, 4), st.integers(0, 0xFFFF)),
    ),
    min_size=1, max_size=30,
)


def _build(hier, part, llc_kind):
    mem = CoreMemory(hier, part, DramModel(hier.memory))
    llc = None
    if llc_kind is not None:
        c = hier.llc_per_core
        harvest = mem.part_l2.harvest if part.enabled else 0
        llc = Cache("LLC", c.size_bytes, c.ways, c.line_bytes,
                    c.round_trip_cycles, make_policy(llc_kind, harvest, 0.5))
    return mem, llc


def _arrays(mem, llc):
    out = [mem.l1_tlb.array, mem.l2_tlb.array, mem.l1i.array, mem.l1d.array,
           mem.l2.array]
    return out + ([llc.array] if llc is not None else [])


def _check_same_walk(cfg, ops):
    fast, fast_llc = _build(*cfg)
    ref, ref_llc = _build(*cfg)
    assert fast._walk is not None  # every drawn geometry is a power of two
    now = 0
    for op in ops:
        if op[0] == "batch":
            _, accesses, primary, gap = op
            now = max(0, now + gap)
            addr, sh, instr, wr = (np.array(col) for col in zip(*accesses))
            batch = AccessBatch(addr.astype(np.int64), sh, instr, wr)
            want = sum(ref.access(a, s, i, ref_llc, primary, now, w)
                       for a, s, i, w in accesses)
            assert fast.access_batch(batch, fast_llc, primary, now) == want
        elif op[0] == "flush_harvest":
            assert fast.flush_harvest_region() == ref.flush_harvest_region()
        elif op[0] == "flush_all":
            assert fast.flush_private_full() == ref.flush_private_full()
        else:
            _, level, mask = op
            for m in (fast, ref):
                _arrays(m, None)[level].flush_ways(mask & ((1 << 16) - 1))
    for a, b in zip(_arrays(fast, fast_llc), _arrays(ref, ref_llc)):
        assert (a.hits, a.misses, a.evictions, a.writebacks) == (
            b.hits, b.misses, b.evictions, b.writebacks), a.name
        a.settle()
        b.settle()
        assert list(a.sets) == list(b.sets), a.name
        for key, arr in a.flat.items():
            if arr is not None:
                assert np.array_equal(arr, b.flat[key]), f"{a.name}.{key}"
    for attr in ("accesses", "_avg_gap_ns", "_last_access_ns"):
        assert getattr(fast.dram, attr) == getattr(ref.dram, attr), attr


@needs_kernel
@given(cfg=hierarchies(), ops=_OPS)
@settings(max_examples=250, deadline=None)
def test_kernel_matches_reference_walk(cfg, ops):
    _check_same_walk(cfg, ops)


@needs_kernel
@given(cfg=hierarchies(policies=[ReplacementKind.HARDHARVEST], set_counts=(1, 2),
                       partitioned=st.just(True)),
       ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_walk_under_conflict(cfg, ops):
    """Algorithm 1's windowed, region-ordered eviction only decides when
    full sets hold private entries in both regions: one or two sets per
    level make that the common case."""
    _check_same_walk(cfg, ops)


@needs_kernel
def test_window_is_python_rounded():
    """The kernel's eviction window M comes from Python's half-to-even
    round(): 10 ways x 0.25 = 2.5 -> 2, 6 ways x 0.25 = 1.5 -> 2."""
    hier = HierarchyConfig()
    part = PartitionConfig(enabled=True, eviction_candidates_fraction=0.25,
                           replacement=ReplacementKind.HARDHARVEST)
    mem = CoreMemory(hier, part, DramModel(hier.memory))
    pol = mem.l1d.array.policy  # 12 ways x 0.25 = 3
    assert pol.window((1 << 10) - 1, 10)[1] == 2
    assert pol.window((1 << 6) - 1, 6)[1] == 2
    assert list(mem._core.l1d.win) == [3, 2]  # all 12 ways; 6 harvest ways


@needs_kernel
def test_empty_allowed_mask_raises_value_error():
    hier = HierarchyConfig()
    mem = CoreMemory(hier, PartitionConfig(enabled=True), DramModel(hier.memory))
    mem._core.l1tlb.mask[1] = 0  # a Harvest VM with no L1 TLB ways
    batch = AccessBatch(np.array([4096], np.int64), np.array([False]),
                        np.array([False]), np.array([False]))
    with pytest.raises(ValueError, match="allowed mask empty"):
        mem.access_batch(batch, None, False, 0)


def test_access_batch_rejects_ragged_arrays():
    """The walk reads n elements of every array: lengths must agree."""
    with pytest.raises(ValueError, match="equal length"):
        AccessBatch(np.zeros(3, np.int64), np.zeros(2, bool),
                    np.zeros(3, bool), np.zeros(3, bool))


def test_other_policy_classes_take_the_python_walk():
    class Mru(LruPolicy):
        pass

    hier = HierarchyConfig()
    mem = CoreMemory(hier, PartitionConfig(), DramModel(hier.memory))
    llc = Cache("LLC", 64 * 16 * 64, 16, 64, 36, Mru())
    batch = AccessBatch(np.array([64, 128], np.int64), np.array([True, False]),
                        np.array([False, False]), np.array([False, True]))
    assert kernel.level(llc.array) is None
    assert mem.access_batch(batch, llc, True, 0) > 0
    assert llc.array.misses == 2


# ----------------------------------------------------------------------
# Golden pins under the forced fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "system_key,seed,variant", CASES, ids=[case_label(*c) for c in CASES])
def test_fallback_walk_matches_golden(system_key, seed, variant, no_compiler):
    assert run_digest(system_key, seed, variant) == GOLDEN[
        case_label(system_key, seed, variant)]
    assert no_compiler.lib is None


def test_fallback_walk_matches_cluster_golden(no_compiler):
    from repro.cluster_scale import ClusterScaleConfig, RoutingPolicy, run_cluster_scale
    from repro.core.presets import hardharvest_block

    path = os.path.join(os.path.dirname(__file__), "data", "golden_cluster_digests.json")
    with open(path) as fh:
        golden = json.load(fh)["digests"]["hardharvest_p2c_s7"]
    cfg = ClusterScaleConfig(servers=3, requests=1200, epochs=2, epoch_ms=10.0,
                             warmup_ms=2.0, routing=RoutingPolicy.POWER_OF_TWO)
    sim = SimulationConfig(accesses_per_segment=2, seed=7)
    assert run_cluster_scale(hardharvest_block(), sim, cfg).digest() == golden
    assert no_compiler.lib is None


# ----------------------------------------------------------------------
# Loader robustness
# ----------------------------------------------------------------------
def _digest_with(monkeypatch, loader) -> str:
    monkeypatch.setattr(kernel, "_LOADER", loader)
    return run_digest("HardHarvest", 0)


def test_no_compiler_falls_back_and_says_why(no_compiler, monkeypatch):
    assert run_digest("HardHarvest", 0) == GOLDEN[case_label("HardHarvest", 0)]
    assert walk_backend() == {"backend": "python",
                              "reason": "no C compiler (cc) on PATH"}


def test_failing_compile_falls_back(monkeypatch, tmp_path):
    loader = kernel.KernelLoader(cc="false", directory=str(tmp_path))
    assert _digest_with(monkeypatch, loader) == GOLDEN[case_label("HardHarvest", 0)]
    assert loader.lib is None
    assert loader.reason.startswith("compile failed")
    assert walk_backend()["backend"] == "python"
    assert glob.glob(str(tmp_path / "*")) == []  # no half-written library


@needs_kernel
@pytest.mark.parametrize("damage", ["truncate", "garbage", "stale"])
def test_damaged_cached_library_is_rebuilt(damage, monkeypatch, tmp_path):
    first = kernel.KernelLoader(directory=str(tmp_path))
    assert first.load() is not None
    (path,) = glob.glob(str(tmp_path / "walk-*.so"))
    assert kernel._intact(path)
    # Damage through a new file: this process has the library mapped, and
    # rewriting a mapped file in place would crash it (the loader itself
    # only ever publishes with os.replace for the same reason).
    bad = str(tmp_path / "bad")
    if damage == "stale":  # a loadable library built from other source
        subprocess.run(["cc", *kernel.CFLAGS, '-DHH_SOURCE_SHA="other"',
                        "-o", bad, kernel.SOURCE], check=True)
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        with open(bad, "wb") as fh:
            fh.write(data[: len(data) // 2] if damage == "truncate"
                     else b"\x7fELF not really a library")
    os.replace(bad, path)
    if damage == "stale":  # a matching digest: only the exported hash differs
        with open(path + ".sha256", "w") as fh:
            fh.write(kernel._file_sha(path))
    second = kernel.KernelLoader(directory=str(tmp_path))
    assert _digest_with(monkeypatch, second) == GOLDEN[case_label("HardHarvest", 0)]
    assert second.lib is not None and second.reason.startswith("compiled")
    assert walk_backend()["backend"] == "c"


@needs_kernel
def test_cached_library_is_reused(tmp_path):
    assert kernel.KernelLoader(directory=str(tmp_path)).load() is not None
    again = kernel.KernelLoader(directory=str(tmp_path))
    assert again.load() is not None
    assert again.reason.startswith("cached")


def test_racing_first_loads_load_once(monkeypatch):
    loader = kernel.KernelLoader()
    calls = []

    def slow_load():
        calls.append(1)
        time.sleep(0.2)
        return None, "stub"

    monkeypatch.setattr(loader, "_load", slow_load)
    threads = [threading.Thread(target=loader.load) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert loader.reason == "stub"


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_reset_stats_clears_all_four_counters():
    arr = SetAssocArray("t", 1, 1, LruPolicy())
    arr.access(0, 1, False, 1, write=True)
    arr.access(0, 2, False, 1)  # evicts the dirty line: a write-back
    arr.access(0, 2, False, 1)
    assert (arr.hits, arr.misses, arr.evictions, arr.writebacks) == (1, 2, 1, 1)
    arr.reset_stats()
    assert (arr.hits, arr.misses, arr.evictions, arr.writebacks) == (0, 0, 0, 0)


def test_release_returns_an_empty_array():
    arr = SetAssocArray("t", 4, 2, LruPolicy())
    arr.access(1, 7, False, 0b11, write=True)
    arr.release()
    assert len(arr.sets) == 0 and arr.misses == 0 and arr.occupancy() == 0
