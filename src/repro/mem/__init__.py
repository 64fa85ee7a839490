"""Memory-hierarchy substrate: caches, TLBs, partitioning, replacement, DRAM."""

from repro.mem.address import PAGE_BYTES, AddressSpace, Region
from repro.mem.cache import Cache, SetAssocArray
from repro.mem.coherence import Directory
from repro.mem.dram import DramModel
from repro.mem.prefetch import NextLinePrefetcher
from repro.mem.hierarchy import CoreMemory, build_llc
from repro.mem.kernel import walk_backend
from repro.mem.partition import WayPartition, full_mask, harvest_mask
from repro.mem.replacement import (
    CacheSet,
    HardHarvestPolicy,
    LruPolicy,
    ReplacementPolicy,
    RripPolicy,
    make_policy,
)
from repro.mem.tlb import Tlb

__all__ = [
    "AddressSpace",
    "Region",
    "PAGE_BYTES",
    "Cache",
    "SetAssocArray",
    "Tlb",
    "DramModel",
    "Directory",
    "NextLinePrefetcher",
    "CoreMemory",
    "build_llc",
    "WayPartition",
    "full_mask",
    "harvest_mask",
    "CacheSet",
    "ReplacementPolicy",
    "LruPolicy",
    "RripPolicy",
    "HardHarvestPolicy",
    "make_policy",
    "walk_backend",
]
