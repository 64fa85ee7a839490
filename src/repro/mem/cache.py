"""Set-associative cache and TLB arrays.

One generic :class:`SetAssocArray` implements lookup/fill/flush over flat,
C-contiguous per-level arrays; :class:`Cache` and :class:`~repro.mem.tlb.Tlb`
wrap it with line- and page-granularity address mapping respectively.

Storage layout: one anonymous zero-filled mapping per array, so untouched
pages are never resident.  A set gets a *row* on first touch, rows in
touch order, so a big, sparsely used LLC stays as compact as the sets it
actually holds:

* per set: ``row`` (the set's row plus one; 0 = never touched);
* per row, ``ways`` entries each: ``tags``, recency ``stamp``, ``valid``/
  ``shared``/``dirty`` flags, and ``rrpv`` only for RRIP (or unknown)
  policies;
* per row: ``clock`` (the policy recency counter), ``seen`` (the flush epoch
  the row reconciled up to, plus one) and ``log`` (the row's set index, so
  :attr:`SetAssocArray.sets` iterates in first-touch order);
* per array: ``flushed_at`` (flush epoch of each way) and ``meta`` (flush
  epoch, the four counters, and the number of rows in use).

The batched C walk (:mod:`repro.mem.kernel`) reads and writes the same
arrays; the Python methods here are its per-access reference.

The array supports:

* an ``allowed`` way mask per access (partitioning: Harvest VMs only touch
  harvest-region ways);
* flushing a subset of ways (``flush_ways``) for the harvest-region flush, or
  everything (``flush_all``) for the software wbinvd path;
* optional trace recording of ``(set, tag, shared)`` for offline Belady
  replay (Figure 14);
* hit/miss/eviction/write-back counters.
"""

from __future__ import annotations

import mmap
from collections.abc import Mapping
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mem.replacement import HardHarvestPolicy, LruPolicy, ReplacementPolicy

#: Slots of ``SetAssocArray.meta``; the C kernel uses the same order.
EPOCH, HITS, MISSES, EVICTIONS, WRITEBACKS, TOUCHED = range(6)


@lru_cache(maxsize=None)
def _layout(num_sets: int, ways: int, rrpv: bool):
    """(block bytes, field -> (start, end, memoryview format)) for one
    geometry; the 8-byte fields come first, so every field is aligned."""
    n = num_sets * ways
    fields = [("tags", n, "q"), ("stamp", n, "q"), ("clock", num_sets, "q"),
              ("seen", num_sets, "q"), ("row", num_sets, "q"), ("log", num_sets, "q"),
              ("flushed_at", ways, "q"), ("meta", 6, "q"),
              ("valid", n, "B"), ("shared", n, "B"), ("dirty", n, "B")]
    if rrpv:
        fields.append(("rrpv", n, "B"))
    layout = {}
    offset = 0
    for key, count, fmt in fields:
        end = offset + count * (8 if fmt == "q" else 1)
        layout[key] = (offset, end, fmt)
        offset = end
    return offset, layout


def _counter(slot: int) -> property:
    def get(self) -> int:
        return self._meta[slot]

    def put(self, value: int) -> None:
        self._meta[slot] = value

    return property(get, put)


class SetView:
    """One set of a :class:`SetAssocArray`, read and written in place.

    Duck-types :class:`~repro.mem.replacement.CacheSet` for the replacement
    policies and for inspection code: ``tags``/``valid``/``shared``/
    ``dirty``/``stamp``/``rrpv`` are memoryview rows of the flat arrays.
    """

    __slots__ = ("ways", "tags", "valid", "shared", "dirty", "stamp", "rrpv",
                 "_arr", "_row")

    def __init__(self, arr: "SetAssocArray", row: int):
        w = arr.ways
        lo = row * w
        hi = lo + w
        self.ways = w
        self.tags = arr._tags[lo:hi]
        self.valid = arr._valid[lo:hi]
        self.shared = arr._shared[lo:hi]
        self.dirty = arr._dirty[lo:hi]
        self.stamp = arr._stamp[lo:hi]
        self.rrpv = arr._rrpv[lo:hi] if arr._rrpv is not None else None
        self._arr = arr
        self._row = row

    def find(self, tag: int, allowed: int) -> int:
        """Lowest allowed valid way holding ``tag``, or -1."""
        tags = self.tags
        valid = self.valid
        for w in range(self.ways):
            if valid[w] and tags[w] == tag and (allowed >> w) & 1:
                return w
        return -1

    def touch(self, way: int) -> None:
        """Bump the recency stamp of ``way`` (most recently used)."""
        clock = self._arr._clock
        c = clock[self._row] + 1
        clock[self._row] = c
        self.stamp[way] = c


class _Sets(Mapping):
    """``set_index -> SetView`` over the touched sets, first-touch order."""

    def __init__(self, arr: "SetAssocArray"):
        self._arr = arr

    def __getitem__(self, set_index: int) -> SetView:
        arr = self._arr
        if not (0 <= set_index < arr.num_sets and arr._row[set_index]):
            raise KeyError(set_index)
        return SetView(arr, arr._row[set_index] - 1)

    def __iter__(self):
        arr = self._arr
        return iter(arr._log[: arr._meta[TOUCHED]].tolist())

    def __len__(self) -> int:
        return self._arr._meta[TOUCHED]


class SetAssocArray:
    """A bank of sets with a shared replacement policy, stored flat."""

    hits = _counter(HITS)
    misses = _counter(MISSES)
    evictions = _counter(EVICTIONS)
    writebacks = _counter(WRITEBACKS)

    def __init__(self, name: str, num_sets: int, ways: int, policy: ReplacementPolicy):
        if num_sets <= 0:
            raise ValueError(f"{name}: num_sets must be positive, got {num_sets}")
        if ways <= 0:
            raise ValueError(f"{name}: ways must be positive, got {ways}")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.policy = policy
        rrpv = type(policy) not in (LruPolicy, HardHarvestPolicy)
        size, self.layout = _layout(num_sets, ways, rrpv)
        # A private anonymous mapping, not numpy.zeros: calloc may hand
        # back recycled heap memory and zero it eagerly, making every page
        # of a big LLC resident; mapped pages stay unbacked until touched.
        # (Private: a shared mapping would also be shared with forked pool
        # workers, and madvise could not free it.)
        self.block = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        raw = memoryview(self.block)
        for key, (start, end, fmt) in self.layout.items():
            setattr(self, "_" + key, raw[start:end].cast(fmt))
        if not rrpv:
            self._rrpv = None
        self.sets = _Sets(self)
        self.trace: Optional[List[Tuple[int, int, bool]]] = None
        self._trace_limit: Optional[int] = None
        # flush mask -> tuple of its way indices (see flush_ways).
        self._flush_way_lists: Dict[int, Tuple[int, ...]] = {}

    @property
    def flat(self) -> Dict[str, np.ndarray]:
        """Numpy views of every field (``rrpv`` only for RRIP-like policies)."""
        block = np.frombuffer(self.block, dtype=np.uint8)
        return {
            key: block[start:end].view(np.int64 if fmt == "q" else np.uint8)
            for key, (start, end, fmt) in self.layout.items()
        }

    # ------------------------------------------------------------------
    def enable_trace(self, limit: Optional[int] = None) -> None:
        """Start recording (set_index, tag, shared) per access for Belady.

        ``limit`` caps the trace length (None = unbounded)."""
        self.trace = []
        self._trace_limit = limit

    def access(
        self,
        set_index: int,
        tag: int,
        shared: bool,
        allowed: int,
        write: bool = False,
    ) -> bool:
        """Look up ``tag``; on miss, fill it by evicting a policy victim.

        Returns True on hit. ``allowed`` restricts both lookup and fill to a
        subset of ways. ``write=True`` marks the line dirty; evicting (or
        flushing) a dirty line counts a write-back.
        """
        if not 0 <= set_index < self.num_sets:
            raise IndexError(f"{self.name}: set {set_index} out of range")
        meta = self._meta
        row = self._row[set_index] - 1
        if row < 0:  # first touch: the next row, nothing to reconcile
            row = meta[TOUCHED]
            meta[TOUCHED] = row + 1
            self._row[set_index] = row + 1
            self._log[row] = set_index
            self._seen[row] = meta[EPOCH] + 1
        elif self._seen[row] <= meta[EPOCH]:
            self._reconcile(row)
        trace = self.trace
        if trace is not None and (
            self._trace_limit is None or len(trace) < self._trace_limit
        ):
            trace.append((set_index, tag, shared))
        cset = SetView(self, row)
        way = cset.find(tag, allowed)
        if way >= 0:
            meta[HITS] += 1
            if write:
                cset.dirty[way] = 1
            self.policy.on_hit(cset, way)
            return True
        meta[MISSES] += 1
        victim = self.policy.choose_victim(cset, shared, allowed)
        if cset.valid[victim]:
            meta[EVICTIONS] += 1
            if cset.dirty[victim]:
                meta[WRITEBACKS] += 1
        cset.tags[victim] = tag
        cset.valid[victim] = 1
        cset.shared[victim] = 1 if shared else 0
        cset.dirty[victim] = 1 if write else 0
        self.policy.on_insert(cset, victim, shared)
        return False

    def _settled(self, set_index: int) -> Optional[SetView]:
        """The reconciled set, or None if it was never touched."""
        if not (0 <= set_index < self.num_sets and self._row[set_index]):
            return None
        row = self._row[set_index] - 1
        if self._seen[row] <= self._meta[EPOCH]:
            self._reconcile(row)
        return SetView(self, row)

    def probe(self, set_index: int, tag: int, allowed: int) -> bool:
        """Check residency without updating any state or counters."""
        cset = self._settled(set_index)
        return cset is not None and cset.find(tag, allowed) >= 0

    def invalidate(self, set_index: int, tag: int) -> bool:
        """Drop ``tag`` from the set (coherence); True if it was resident.

        Invalidation reaches every way — the partition mask restricts
        allocation, never coherence visibility."""
        cset = self._settled(set_index)
        way = -1 if cset is None else cset.find(tag, (1 << self.ways) - 1)
        if way < 0:
            return False
        cset.valid[way] = 0
        return True

    # ------------------------------------------------------------------
    def _reconcile(self, row: int) -> int:
        """Apply pending way flushes to one row; returns entries dropped.

        Flushing a dirty line is a write-back-and-invalidate (wbinvd
        semantics): the write-back is counted when the flush lands."""
        seen = self._seen[row] - 1
        base = row * self.ways
        valid = self._valid
        dirty = self._dirty
        flushed_at = self._flushed_at
        dropped = 0
        for w in range(self.ways):
            i = base + w
            if valid[i] and flushed_at[w] > seen:
                valid[i] = 0
                dropped += 1
                if dirty[i]:
                    dirty[i] = 0
                    self.writebacks += 1
        self._seen[row] = self._meta[EPOCH] + 1
        return dropped

    def flush_ways(self, mask: int) -> int:
        """Invalidate all entries in the ways of ``mask``.

        Lazy: bumps the flush epoch and marks the ways flushed at it; a set
        reconciles (drops stale entries) the next time it is touched.
        Equivalent to eager invalidation, O(touched sets) cost.  Returns the
        number of ways marked (not entries — counting entries would defeat
        the laziness)."""
        meta = self._meta
        epoch = meta[EPOCH] + 1
        meta[EPOCH] = epoch
        # Harvest flushes repeat the same one or two masks for the whole
        # run; memoize the mask decode.
        ways = self._flush_way_lists.get(mask)
        if ways is None:
            ways = tuple(w for w in range(self.ways) if (mask >> w) & 1)
            self._flush_way_lists[mask] = ways
        flushed_at = self._flushed_at
        for w in ways:
            flushed_at[w] = epoch
        return len(ways)

    def flush_all(self) -> int:
        return self.flush_ways((1 << self.ways) - 1)

    def settle(self) -> None:
        """Force reconciliation of every touched set (for inspection)."""
        epoch = self._meta[EPOCH]
        seen = self._seen
        for row in range(self._meta[TOUCHED]):
            if seen[row] <= epoch:
                self._reconcile(row)

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def occupancy(self) -> int:
        """Number of valid entries across all sets."""
        self.settle()
        return int(np.count_nonzero(self.flat["valid"]))

    def release(self) -> None:
        """Hand the array's resident pages back to the OS now; it reads as
        empty afterwards.  For owners discarding a finished simulation:
        the block is invisible to the cyclic garbage collector, which may
        otherwise keep many dead simulations' blocks resident."""
        self.block.madvise(mmap.MADV_DONTNEED)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0


class Cache:
    """A cache level: maps byte addresses to (set, tag) at line granularity."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_bytes: int,
        round_trip_cycles: int,
        policy: ReplacementPolicy,
    ):
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line"
            )
        self.line_bytes = line_bytes
        self.round_trip_cycles = round_trip_cycles
        num_sets = size_bytes // (ways * line_bytes)
        self.array = SetAssocArray(name, num_sets, ways, policy)

    @property
    def name(self) -> str:
        return self.array.name

    def locate(self, addr: int) -> Tuple[int, int]:
        """(set_index, tag) for a byte address."""
        line = addr // self.line_bytes
        return line % self.array.num_sets, line // self.array.num_sets

    def access(self, addr: int, shared: bool, allowed: int, write: bool = False) -> bool:
        set_index, tag = self.locate(addr)
        return self.array.access(set_index, tag, shared, allowed, write)

    def probe(self, addr: int, allowed: int) -> bool:
        set_index, tag = self.locate(addr)
        return self.array.probe(set_index, tag, allowed)

    def flush_ways(self, mask: int) -> int:
        return self.array.flush_ways(mask)

    def flush_all(self) -> int:
        return self.array.flush_all()

    def hit_rate(self) -> float:
        return self.array.hit_rate()
