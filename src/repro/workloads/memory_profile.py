"""Synthetic memory-access generation for services and batch jobs.

Converts a footprint description (shared/private/instruction page counts)
into sampled cache-model accesses. Sampling is hot-skewed (a power law over
pages) so the model reproduces the locality that makes microservice working
sets effectively small (Section 3, "microservice invocations have relatively
small working sets").

Each sampled access is a *token* representing ``weight`` real references;
the hierarchy's measured latency per token is scaled by the weight to
produce execution time (see :mod:`repro.cluster.server`).
"""

from __future__ import annotations

import ctypes
from typing import List

import numpy as np

from repro.mem import kernel
from repro.mem.address import AddressSpace, Region
from repro.workloads.microservices import ServiceProfile

#: Cache lines per 4 KB page at 64 B lines.
LINES_PER_PAGE = 64
#: Services touch a hot subset of lines within each page (object headers,
#: hot fields): sampling only these keeps the modeled line working set in
#: the realistic few-thousand-line range that makes microservice working
#: sets effectively small (Section 3).
HOT_LINES_PER_PAGE = 8
#: Exponent of the page-popularity skew: page = N * u**SKEW.
PAGE_SKEW = 2.5
#: How many private-region generations are kept before page reuse: models
#: the allocator recycling freed invocation pages.
PRIVATE_POOL = 4

#: Fraction of data references that are stores.
WRITE_FRACTION = 0.3


class AccessBatch:
    """A segment's sampled accesses as parallel NumPy arrays.

    The fast path (:meth:`repro.mem.hierarchy.CoreMemory.access_batch`)
    consumes the arrays wholesale through :attr:`ptrs`, their four buffer
    addresses, taken once here (after converting to contiguous int64/bool
    arrays); iterating yields the classic ``(addr, shared, instr, write)``
    tuples (Python scalars) for per-access consumers (the per-access walk,
    tests).
    """

    __slots__ = ("addr", "shared", "instr", "write", "ptrs")

    def __init__(
        self,
        addr: np.ndarray,
        shared: np.ndarray,
        instr: np.ndarray,
        write: np.ndarray,
    ):
        self.addr = np.ascontiguousarray(addr, dtype=np.int64)
        self.shared = np.ascontiguousarray(shared, dtype=np.bool_)
        self.instr = np.ascontiguousarray(instr, dtype=np.bool_)
        self.write = np.ascontiguousarray(write, dtype=np.bool_)
        n = len(self.addr)
        if self.addr.ndim != 1 or any(
                a.shape != (n,) for a in (self.shared, self.instr, self.write)):
            raise ValueError("AccessBatch arrays must be 1-D and of equal length")
        self.ptrs = (self.addr.ctypes.data, self.shared.ctypes.data,
                     self.instr.ctypes.data, self.write.ctypes.data)

    def __len__(self) -> int:
        return len(self.addr)

    def __iter__(self):
        return iter(
            zip(
                self.addr.tolist(),
                self.shared.tolist(),
                self.instr.tolist(),
                self.write.tolist(),
            )
        )


_EMPTY_BATCH = AccessBatch(
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=bool),
    np.empty(0, dtype=bool),
    np.empty(0, dtype=bool),
)


#: Page / line geometry matching ``Region.addr`` / ``Region.line_addr``.
_PAGE_BYTES = 4096
_LINE_BYTES = 64


class _CompiledSampler:
    """One memory object's compiled sampling: ``hh_draw`` and ``hh_build``
    over buffers allocated once per segment size ``n``.

    Every call with the same ``n`` fills and returns the same
    :class:`AccessBatch`, so a batch stays valid only until the next
    ``sample()`` on the same memory object; memory objects never share
    buffers.
    """

    __slots__ = ("draw", "build", "max_line", "skew", "segments", "gen", "bitgen", "lock")

    def __init__(self, functions, lines: int, skew: float):
        self.draw, self.build = functions
        self.max_line = lines - 1
        self.skew = skew
        self.segments: dict = {}
        self.gen = None

    def _segment(self, n: int):
        u = np.empty(3 * n)  # the class, page and write draws
        line = np.empty(n, dtype=np.int64)
        batch = AccessBatch(np.empty(n, dtype=np.int64), np.empty(n, dtype=bool),
                            np.empty(n, dtype=bool), np.empty(n, dtype=bool))
        draw = kernel.Draw(n, self.max_line, u.ctypes.data, line.ctypes.data, *batch.ptrs)
        # The struct and the line buffer ride along to stay alive.
        seg = self.segments[n] = (ctypes.addressof(draw), u[n:2 * n], batch, draw, line)
        return seg

    def sample(self, rng: np.random.Generator, n: int, classes_ptr: int) -> AccessBatch:
        seg = self.segments.get(n)
        if seg is None:
            seg = self._segment(n)
        draw, page_u, batch = seg[0], seg[1], seg[2]
        if rng is not self.gen:
            bg = rng.bit_generator
            self.gen, self.bitgen, self.lock = rng, bg.ctypes.bit_generator, bg.lock
        with self.lock:
            self.draw(self.bitgen, draw)
        # numpy's pow, not libm's: the two differ in the last bit on some
        # inputs, and the vectorised body's ``** skew`` is the contract.
        page_u **= self.skew
        self.build(draw, classes_ptr)
        return batch


def _class_table(limits, write_below: float, regions, shared, instr):
    """A :class:`kernel.Classes` for three (region, shared, instr) classes."""
    return kernel.Classes(
        limits, write_below, _PAGE_BYTES, _LINE_BYTES,
        tuple(r.addr(0) for r in regions), tuple(r.num_pages - 1 for r in regions),
        tuple(float(r.num_pages) for r in regions), shared, instr,
    )


class ServiceMemory:
    """Address regions and access sampling for one service instance."""

    def __init__(self, space: AddressSpace, profile: ServiceProfile):
        self.profile = profile
        self.instr = space.alloc(profile.instruction_pages, shared=True)
        self.shared = space.alloc(profile.shared_pages, shared=True)
        self.private_pool: List[Region] = [
            space.alloc(profile.private_pages, shared=False) for _ in range(PRIVATE_POOL)
        ]
        self._next_private = 0
        self._base_instr = self.instr.addr(0)
        self._base_shared = self.shared.addr(0)
        #: Class draws below 0.30 fetch instructions, below this read shared
        #: data, above it touch the invocation's private pages.
        self._shared_below = 0.30 + 0.70 * profile.shared_ref_fraction
        functions = kernel.sample_functions()
        self._compiled = None if functions is None else _CompiledSampler(
            functions, HOT_LINES_PER_PAGE, PAGE_SKEW)
        self._classes: dict = {}  # id(private region) -> (address, Classes, region)

    def new_invocation(self) -> Region:
        """Private region for a fresh invocation (cycled from the pool)."""
        region = self.private_pool[self._next_private]
        self._next_private = (self._next_private + 1) % len(self.private_pool)
        return region

    def sample(
        self, rng: np.random.Generator, n: int, private: Region
    ) -> AccessBatch:
        """Sample ``n`` accesses for one compute segment.

        Mix: ~30% instruction fetches (always shared), the rest data split
        between shared and private pages per the profile.  The compiled
        sampler and, without a compiler, :meth:`_sample_numpy` are
        bit-identical in draws and results (``tests/test_sample_kernel.py``).
        A compiled batch is reused: it is valid until the next ``sample()``
        on this object.
        """
        compiled = self._compiled
        if compiled is None:
            return self._sample_numpy(rng, n, private)
        if n <= 0:
            return _EMPTY_BATCH
        classes = self._classes.get(id(private))
        if classes is None:
            c = _class_table((0.30, self._shared_below), WRITE_FRACTION,
                             (self.instr, self.shared, private), (1, 1, 0), (1, 0, 0))
            classes = self._classes[id(private)] = (ctypes.addressof(c), c, private)
        return compiled.sample(rng, n, classes[0])

    def _sample_numpy(self, rng: np.random.Generator, n: int, private: Region) -> AccessBatch:
        """The vectorised numpy sampler (no compiled kernel)."""
        if n <= 0:
            return _EMPTY_BATCH
        kind = rng.random(n)
        page_u = rng.random(n) ** PAGE_SKEW
        line = rng.integers(0, HOT_LINES_PER_PAGE, n)
        is_write = rng.random(n) < WRITE_FRACTION

        instr_m = kind < 0.30
        shared_m = ~instr_m & (kind < self._shared_below)
        shared_page = instr_m | shared_m

        npages = np.where(
            instr_m,
            float(self.instr.num_pages),
            np.where(shared_m, float(self.shared.num_pages), float(private.num_pages)),
        )
        page = (page_u * npages).astype(np.int64)
        np.minimum(page, npages.astype(np.int64) - 1, out=page)

        addr = np.where(
            instr_m,
            self._base_instr,
            np.where(shared_m, self._base_shared, private.addr(0)),
        )
        page *= _PAGE_BYTES
        addr += page
        addr += line * _LINE_BYTES
        # Instruction fetches and shared read-mostly pages don't write.
        write = is_write & ~shared_page
        return AccessBatch(addr, shared_page, instr_m, write)


class BatchMemory:
    """Address regions and access sampling for a batch job.

    Batch jobs have larger footprints and weaker locality than services;
    ``skew`` close to 1.0 means near-uniform page access (graph workloads),
    larger values mean a hot core (training loops).
    """

    def __init__(self, space: AddressSpace, code_pages: int, data_pages: int, skew: float):
        if skew < 1.0:
            raise ValueError(f"skew must be >= 1.0, got {skew}")
        self.code = space.alloc(code_pages, shared=True)
        self.data = space.alloc(data_pages, shared=False)
        self.skew = skew
        self._base_code = self.code.addr(0)
        self._base_data = self.data.addr(0)
        functions = kernel.sample_functions()
        self._compiled = None if functions is None else _CompiledSampler(
            functions, 2 * HOT_LINES_PER_PAGE, skew)
        if self._compiled is not None:
            # Class draws below 0.2 fetch code, the rest touch data.
            self._classes = _class_table((0.2, 0.2), WRITE_FRACTION,
                                         (self.code, self.data, self.data),
                                         (1, 0, 0), (1, 0, 0))
            self._classes_ptr = ctypes.addressof(self._classes)

    def sample(self, rng: np.random.Generator, n: int) -> AccessBatch:
        """Sample ``n`` accesses for one batch unit (compiled, else
        :meth:`_sample_numpy`; a compiled batch is valid until the next
        ``sample()`` on this object)."""
        compiled = self._compiled
        if compiled is None:
            return self._sample_numpy(rng, n)
        if n <= 0:
            return _EMPTY_BATCH
        return compiled.sample(rng, n, self._classes_ptr)

    def _sample_numpy(self, rng: np.random.Generator, n: int) -> AccessBatch:
        """The vectorised numpy sampler (no compiled kernel)."""
        if n <= 0:
            return _EMPTY_BATCH
        kind = rng.random(n)
        page_u = rng.random(n) ** self.skew
        line = rng.integers(0, 2 * HOT_LINES_PER_PAGE, n)
        is_write = rng.random(n) < WRITE_FRACTION

        code_m = kind < 0.2
        npages = np.where(
            code_m, float(self.code.num_pages), float(self.data.num_pages)
        )
        page = (page_u * npages).astype(np.int64)
        np.minimum(page, npages.astype(np.int64) - 1, out=page)
        base = np.where(code_m, self._base_code, self._base_data)
        addr = base + page * _PAGE_BYTES + line * _LINE_BYTES
        write = is_write & ~code_m
        return AccessBatch(addr, code_m, code_m, write)
