"""Per-core memory hierarchy: L1I/L1D/L2 caches, L1/L2 TLBs, and the access
path through them to the per-VM LLC partition and DRAM.

This is the structure HardHarvest partitions. Each private structure carries
a :class:`~repro.mem.partition.WayPartition`; a Primary VM sees all ways, a
Harvest VM only the harvest region (Section 4.2.1). Flushing either the full
private state (software wbinvd path) or just the harvest region (HardHarvest)
operates directly on the arrays, so cold-restart misses emerge naturally.
"""

from __future__ import annotations

import ctypes
from typing import Optional

from repro.config import HierarchyConfig, PartitionConfig, ReplacementKind
from repro.mem import kernel
from repro.mem.cache import Cache
from repro.mem.dram import DramModel
from repro.mem.partition import WayPartition, full_mask
from repro.mem.replacement import (
    HardHarvestPolicy,
    LruPolicy,
    ReplacementPolicy,
    RripPolicy,
)
from repro.mem.tlb import Tlb
from repro.sim.units import cycles_to_ns


def _policy_for(
    kind: ReplacementKind, partition: WayPartition, candidate_fraction: float
) -> ReplacementPolicy:
    if kind is ReplacementKind.LRU:
        return LruPolicy()
    if kind is ReplacementKind.RRIP:
        return RripPolicy()
    if kind is ReplacementKind.HARDHARVEST:
        return HardHarvestPolicy(partition.harvest, candidate_fraction)
    raise ValueError(f"unknown replacement kind {kind}")


def build_llc(name: str, hierarchy: HierarchyConfig, num_cores: int) -> Cache:
    """Build a per-VM LLC partition sized for ``num_cores`` CAT shares.

    The LLC is partitioned per VM with CAT and never flushed (Section 2.3),
    so each VM simply owns a proportional slice, modeled as its own cache.
    """
    base = hierarchy.llc_per_core
    size = base.size_bytes * max(1, num_cores)
    return Cache(name, size, base.ways, base.line_bytes, base.round_trip_cycles, LruPolicy())


class CoreMemory:
    """The private caches and TLBs of one core, plus its access path."""

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        partition_cfg: PartitionConfig,
        dram: DramModel,
    ):
        self.hierarchy = hierarchy
        self.partition_cfg = partition_cfg
        self.dram = dram
        h = hierarchy

        def make_partition(ways: int) -> WayPartition:
            if partition_cfg.enabled:
                return WayPartition.split(ways, partition_cfg.harvest_fraction)
            return WayPartition.unpartitioned(ways)

        self.part_l1d = make_partition(h.l1d.ways)
        self.part_l1i = make_partition(h.l1i.ways)
        self.part_l2 = make_partition(h.l2.ways)
        self.part_l1tlb = make_partition(h.l1_tlb.ways)
        self.part_l2tlb = make_partition(h.l2_tlb.ways)

        cf = partition_cfg.eviction_candidates_fraction
        kind = partition_cfg.replacement

        def cache(cfg, part: WayPartition) -> Cache:
            return Cache(
                cfg.name,
                cfg.size_bytes,
                cfg.ways,
                cfg.line_bytes,
                cfg.round_trip_cycles,
                _policy_for(kind, part, cf),
            )

        self.l1d = cache(h.l1d, self.part_l1d)
        self.l1i = cache(h.l1i, self.part_l1i)
        self.l2 = cache(h.l2, self.part_l2)
        self.l1_tlb = Tlb(
            h.l1_tlb.name,
            h.l1_tlb.entries,
            h.l1_tlb.ways,
            h.l1_tlb.round_trip_cycles,
            _policy_for(kind, self.part_l1tlb, cf),
            h.l1_tlb.page_bytes,
        )
        self.l2_tlb = Tlb(
            h.l2_tlb.name,
            h.l2_tlb.entries,
            h.l2_tlb.ways,
            h.l2_tlb.round_trip_cycles,
            _policy_for(kind, self.part_l2tlb, cf),
            h.l2_tlb.page_bytes,
        )
        # Modeling switch: "infinite caches" baseline for Figure 7.
        self.infinite = hierarchy.infinite

        # The compiled walk's prebuilt state (None: Python reference walk)
        # and, per LLC partition seen, its step (keyed by id, holding a
        # strong reference so the id is never recycled).
        self._walk = None
        self._core = None
        self._llc_steps: dict = {}
        self._arrays = (self.l1_tlb.array, self.l2_tlb.array, self.l1i.array,
                        self.l1d.array, self.l2.array)
        self._bind_kernel()

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(
        self,
        addr: int,
        shared: bool,
        instruction: bool,
        llc: Optional[Cache],
        is_primary: bool,
        now_ns: int,
        write: bool = False,
    ) -> int:
        """One memory reference; returns its latency in nanoseconds.

        ``llc`` is the executing VM's LLC partition (None = modeled as hit
        in DRAM directly, used by microbenchmarks). ``is_primary`` selects
        the way mask: Harvest VMs are confined to the harvest region.
        ``write`` marks the filled/hit L1 line dirty (write-back caches).
        """
        h = self.hierarchy
        if self.infinite:
            # Everything hits in L1: the Figure 7 "Inf" configuration.
            l1 = self.l1i if instruction else self.l1d
            return cycles_to_ns(
                h.l1_tlb.round_trip_cycles + l1.round_trip_cycles, h.freq_ghz
            )

        if is_primary or not self.partition_cfg.enabled:
            m_l1tlb = self.part_l1tlb.all_ways
            m_l2tlb = self.part_l2tlb.all_ways
            m_l1 = self.part_l1i.all_ways if instruction else self.part_l1d.all_ways
            m_l2 = self.part_l2.all_ways
        else:
            m_l1tlb = self.part_l1tlb.harvest
            m_l2tlb = self.part_l2tlb.harvest
            m_l1 = self.part_l1i.harvest if instruction else self.part_l1d.harvest
            m_l2 = self.part_l2.harvest

        cycles = 0
        # Translation.
        if self.l1_tlb.access(addr, shared, m_l1tlb):
            cycles += h.l1_tlb.round_trip_cycles
        elif self.l2_tlb.access(addr, shared, m_l2tlb):
            cycles += h.l2_tlb.round_trip_cycles
        else:
            # Page walk; the L2 TLB access above already filled the entry.
            cycles += h.memory.page_walk_cycles

        # Data/instruction path.
        l1 = self.l1i if instruction else self.l1d
        if l1.access(addr, shared, m_l1, write):
            cycles += l1.round_trip_cycles
            return cycles_to_ns(cycles, h.freq_ghz)
        if self.l2.access(addr, shared, m_l2):
            cycles += self.l2.round_trip_cycles
            return cycles_to_ns(cycles, h.freq_ghz)
        if llc is not None and llc.access(addr, shared, full_mask(llc.array.ways)):
            cycles += llc.round_trip_cycles
            return cycles_to_ns(cycles, h.freq_ghz)
        return cycles_to_ns(cycles, h.freq_ghz) + self.dram.access_latency(now_ns)

    # ------------------------------------------------------------------
    # Batched access path (the compiled walk)
    # ------------------------------------------------------------------
    def _lat_table(self, round_trip_cycles: int):
        """ns latency of a level by translation outcome (0/1/2 = L1-TLB
        hit / L2-TLB hit / page walk): the same ``cycles_to_ns`` of the
        same integer cycle sums as :meth:`access`, computed once."""
        h = self.hierarchy
        trans = (h.l1_tlb.round_trip_cycles, h.l2_tlb.round_trip_cycles,
                 h.memory.page_walk_cycles)
        return [cycles_to_ns(c + round_trip_cycles, h.freq_ghz) for c in trans]

    def _step(self, unit, granule: int, part: Optional[WayPartition]):
        """Kernel step for one level (``part`` None: the LLC, all ways)."""
        lv = kernel.level(unit.array)
        if lv is None:
            return None
        if part is None:
            masks = (full_mask(unit.array.ways),) * 2
        elif self.partition_cfg.enabled:
            masks = (part.all_ways, part.harvest)
        else:
            masks = (part.all_ways, part.all_ways)
        st = kernel.step(lv, unit.array, granule, masks,
                         self._lat_table(unit.round_trip_cycles))
        self._kernel_refs.append(lv)
        return st

    def _bind_kernel(self) -> None:
        """Prebuild the compiled walk's state, if the kernel and every
        private level qualify (else the Python reference walk runs)."""
        fn = kernel.walk_function()
        if fn is None or type(self.dram.config.access_ns) is not int:
            return
        self._kernel_refs: list = []
        steps = [
            self._step(self.l1_tlb, self.l1_tlb.page_bytes, self.part_l1tlb),
            self._step(self.l2_tlb, self.l2_tlb.page_bytes, self.part_l2tlb),
            self._step(self.l1i, self.l1i.line_bytes, self.part_l1i),
            self._step(self.l1d, self.l1d.line_bytes, self.part_l1d),
            self._step(self.l2, self.l2.line_bytes, self.part_l2),
        ]
        if None in steps:
            return
        mem = kernel.Step()
        mem.lat[:] = self._lat_table(0)
        self._core = kernel.Core(*steps, mem, ctypes.addressof(self.dram.state))
        self._core_ptr = ctypes.addressof(self._core)
        self._walk = fn

    def access_batch(self, batch, llc: Optional[Cache], is_primary: bool, now_ns: int) -> int:
        """Walk a whole :class:`~repro.workloads.memory_profile.AccessBatch`
        through the hierarchy; returns the summed latency in nanoseconds.

        Bit-identical to calling :meth:`access` once per element in batch
        order — same state transitions, counters and per-access integer-ns
        rounding (``tests/test_hotpath_parity.py``).  One call into the C
        walk does the batch; Belady tracing, a level the kernel cannot walk,
        or no kernel at all take the per-access reference instead.
        """
        n = len(batch)
        if n == 0:
            return 0
        if self.infinite:
            # Everything hits in L1: the Figure 7 "Inf" configuration.
            h = self.hierarchy
            tlb_rt = h.l1_tlb.round_trip_cycles
            ns_i = cycles_to_ns(tlb_rt + self.l1i.round_trip_cycles, h.freq_ghz)
            ns_d = cycles_to_ns(tlb_rt + self.l1d.round_trip_cycles, h.freq_ghz)
            n_instr = sum(batch.instr.tolist())
            return n_instr * ns_i + (n - n_instr) * ns_d
        walk = self._walk
        llc_ptr = None
        if walk is not None and llc is not None:
            entry = self._llc_steps.get(id(llc))
            if entry is None:
                st = self._step(llc, llc.line_bytes, None)
                entry = self._llc_steps[id(llc)] = (
                    st and ctypes.addressof(st), st, llc)
            llc_ptr = entry[0]
            if llc_ptr is None or llc.array.trace is not None:
                walk = None
        a = self._arrays
        if walk is None or (a[0].trace is not None or a[1].trace is not None
                            or a[2].trace is not None or a[3].trace is not None
                            or a[4].trace is not None):
            acc = self.access
            total = 0
            for addr, sh, instr, wr in batch:
                total += acc(addr, sh, instr, llc, is_primary, now_ns, wr)
            return total
        harvest = 0 if is_primary or not self.partition_cfg.enabled else 1
        total = walk(self._core_ptr, llc_ptr, *batch.ptrs, n, now_ns, harvest)
        if total < 0:
            raise ValueError("no allowed ways in set (allowed mask empty)")
        return total

    def release(self) -> None:
        """Release the private arrays' pages (see SetAssocArray.release)."""
        for arr in self._arrays:
            arr.release()

    # ------------------------------------------------------------------
    # Flush operations
    # ------------------------------------------------------------------
    def flush_private_full(self) -> int:
        """wbinvd path: invalidate all private caches and TLBs."""
        n = self.l1d.flush_all()
        n += self.l1i.flush_all()
        n += self.l2.flush_all()
        n += self.l1_tlb.flush_all()
        n += self.l2_tlb.flush_all()
        return n

    def flush_harvest_region(self) -> int:
        """HardHarvest path: invalidate only harvest-region ways."""
        n = self.l1d.flush_ways(self.part_l1d.harvest)
        n += self.l1i.flush_ways(self.part_l1i.harvest)
        n += self.l2.flush_ways(self.part_l2.harvest)
        n += self.l1_tlb.flush_ways(self.part_l1tlb.harvest)
        n += self.l2_tlb.flush_ways(self.part_l2tlb.harvest)
        return n

    # ------------------------------------------------------------------
    def l2_hit_rate(self) -> float:
        return self.l2.hit_rate()
