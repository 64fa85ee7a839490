"""Replacement policies for set-associative caches and TLBs.

Implements the four policies compared in Figure 14 of the paper:

* :class:`LruPolicy` — vanilla least-recently-used.
* :class:`RripPolicy` — 2-bit SRRIP [37].
* :class:`HardHarvestPolicy` — the paper's Algorithm 1: steer *shared*
  entries into non-harvest ways and *private* entries into harvest ways,
  restricted to the M least-recently-used *eviction candidates* of the set,
  with LRU tie-breaking. (Belady's offline MIN lives in
  :mod:`repro.analysis.belady` since it needs the future trace.)

A policy operates on a :class:`CacheSet` (or anything with its interface,
such as a :class:`~repro.mem.cache.SetView`), which exposes per-way metadata
as parallel sequences. Ways may be restricted by an ``allowed`` bitmask:
when a core executes a Harvest VM under partitioning, only harvest-region
ways are accessible (Section 4.2.1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple


class CacheSet:
    """Per-way metadata of one standalone cache/TLB set.

    ``tags[w]`` is the tag stored in way ``w`` (arbitrary int), ``valid[w]``
    whether it holds data, ``shared[w]`` the paper's Shared page bit.
    ``stamp[w]`` is a recency stamp maintained by the policies (higher =
    more recent); ``rrpv[w]`` is RRIP's re-reference prediction value.
    Offline replay and unit tests use it directly; a
    :class:`~repro.mem.cache.SetAssocArray` exposes the same interface over
    its flat arrays (:class:`~repro.mem.cache.SetView`).
    """

    __slots__ = ("ways", "tags", "valid", "shared", "dirty", "stamp", "rrpv", "clock")

    def __init__(self, ways: int):
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways
        self.tags: List[int] = [0] * ways
        self.valid: List[bool] = [False] * ways
        self.shared: List[bool] = [False] * ways
        self.dirty: List[bool] = [False] * ways
        self.stamp: List[int] = [0] * ways
        self.rrpv: List[int] = [0] * ways
        self.clock = 0

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
        self.clock += 1
        self.stamp[way] = self.clock


class ReplacementPolicy:
    """Interface: victim choice plus hit/insert bookkeeping."""

    name = "base"

    def on_hit(self, cset: CacheSet, way: int) -> None:
        cset.touch(way)

    def on_insert(self, cset: CacheSet, way: int, shared: bool) -> None:
        cset.touch(way)

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        raise NotImplementedError



def _first_invalid(cset: CacheSet, allowed: int) -> int:
    for w in range(cset.ways):
        if (allowed >> w) & 1 and not cset.valid[w]:
            return w
    return -1


def _lru_way(cset: CacheSet, allowed: int) -> int:
    best = -1
    best_stamp = None
    for w in range(cset.ways):
        if (allowed >> w) & 1:
            s = cset.stamp[w]
            if best_stamp is None or s < best_stamp:
                best_stamp = s
                best = w
    if best < 0:
        raise ValueError("no allowed ways in set (allowed mask empty)")
    return best


class LruPolicy(ReplacementPolicy):
    """Least-recently-used with invalid-first filling."""

    name = "lru"

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        inv = _first_invalid(cset, allowed)
        if inv >= 0:
            return inv
        return _lru_way(cset, allowed)

class RripPolicy(ReplacementPolicy):
    """2-bit Static RRIP [37]: insert at RRPV=2, promote to 0 on hit,
    evict the first way with RRPV=3 (aging all ways until one exists)."""

    name = "rrip"
    MAX_RRPV = 3

    def on_hit(self, cset: CacheSet, way: int) -> None:
        cset.touch(way)
        cset.rrpv[way] = 0

    def on_insert(self, cset: CacheSet, way: int, shared: bool) -> None:
        cset.touch(way)
        cset.rrpv[way] = self.MAX_RRPV - 1

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        inv = _first_invalid(cset, allowed)
        if inv >= 0:
            return inv
        if not any((allowed >> w) & 1 for w in range(cset.ways)):
            raise ValueError("no allowed ways in set (allowed mask empty)")
        rrpv = cset.rrpv
        while True:
            for w in range(cset.ways):
                if (allowed >> w) & 1 and rrpv[w] >= self.MAX_RRPV:
                    return w
            for w in range(cset.ways):
                if (allowed >> w) & 1:
                    rrpv[w] += 1

@lru_cache(maxsize=None)
def _window(allowed: int, ways: int, fraction: float) -> Tuple[Tuple[int, ...], int]:
    """Memoized :meth:`HardHarvestPolicy.window`: a run sees only a few
    (mask, ways, fraction) combinations."""
    allowed_ways = tuple(w for w in range(ways) if (allowed >> w) & 1)
    return allowed_ways, max(1, int(round(len(allowed_ways) * fraction)))


class HardHarvestPolicy(ReplacementPolicy):
    """The paper's Algorithm 1 with the eviction-candidate window.

    ``harvest_mask`` marks which ways form the harvest region (bit per way).
    ``candidate_fraction`` is M: only the M least-recently-used allowed ways
    are eligible victims (Section 4.2.3), protecting popular private data.
    Ties within a priority class resolve by LRU.

    Priority (incoming shared entry, Section 4.2.4):
        invalid&non-harvest > invalid > non-harvest&private > harvest&private
        > any (all-shared case, LRU).
    Priority (incoming private entry): swap the harvest/non-harvest roles.
    """

    name = "hardharvest"

    def __init__(self, harvest_mask: int, candidate_fraction: float = 0.75):
        if not 0.0 < candidate_fraction <= 1.0:
            raise ValueError(
                f"candidate_fraction must be in (0,1], got {candidate_fraction}"
            )
        self.harvest_mask = harvest_mask
        self.candidate_fraction = candidate_fraction

    def window(self, allowed: int, ways: int) -> Tuple[Tuple[int, ...], int]:
        """(allowed ways ascending, window size M) for ``allowed``.

        M is ``max(1, round(n * fraction))`` with Python's round-half-even;
        the C walk receives it from here rather than re-deriving it."""
        return _window(allowed, ways, self.candidate_fraction)

    def _candidates(self, cset: CacheSet, allowed: int) -> List[int]:
        """The M least-recently-used allowed ways, LRU-first order."""
        ways, m = self.window(allowed, cset.ways)
        if not ways:
            raise ValueError("no allowed ways in set (allowed mask empty)")
        # sorted() is stable, so ties resolve by ascending way index.
        return sorted(ways, key=cset.stamp.__getitem__)[:m]

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        harvest = self.harvest_mask
        valid = cset.valid
        shared = cset.shared

        # Empty-slot handling is not window-restricted (Algorithm 1 top half).
        empty_pref = -1
        empty_any = -1
        for w in range(cset.ways):
            if (allowed >> w) & 1 and not valid[w]:
                if empty_any < 0:
                    empty_any = w
                in_harvest = (harvest >> w) & 1
                if incoming_shared and not in_harvest:
                    empty_pref = w
                    break
                if not incoming_shared and in_harvest:
                    empty_pref = w
                    break
        if empty_pref >= 0:
            return empty_pref
        if empty_any >= 0:
            return empty_any

        # Eviction case: restrict to the M least-recently-used candidates.
        candidates = self._candidates(cset, allowed)
        if incoming_shared:
            first_region, second_region = 0, 1  # non-harvest first
        else:
            first_region, second_region = 1, 0  # harvest first
        for wanted in (first_region, second_region):
            for w in candidates:
                if ((harvest >> w) & 1) == wanted and not shared[w]:
                    return w
        # All candidate slots hold shared entries: evict the LRU candidate.
        return candidates[0]


def make_policy(
    kind: str,
    harvest_mask: int = 0,
    candidate_fraction: float = 0.75,
) -> ReplacementPolicy:
    """Factory keyed by :class:`repro.config.ReplacementKind` values."""
    if kind == "lru":
        return LruPolicy()
    if kind == "rrip":
        return RripPolicy()
    if kind == "hardharvest":
        return HardHarvestPolicy(harvest_mask, candidate_fraction)
    raise ValueError(f"unknown replacement policy {kind!r}")
