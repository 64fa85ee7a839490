"""The compiled segment sampler (``hh_draw`` + numpy pow + ``hh_build``).

* Differential: on random segment sizes, every service profile with its
  private pool cycling, every batch job's skew, service and batch draws
  interleaved on one generator, and three bit generators, the compiled
  ``sample()`` returns the arrays the vectorised numpy body returns and
  leaves the generator in the same state after every call.
* Lemire: ``hh_draw``'s bounded integers equal ``rng.integers`` for
  ranges with rejection (7, 1000, 2**31 + 1) and the special ones.
* The numpy pow assumption: in-place ``**=`` on a reused buffer view
  equals ``u ** s`` of a whole array, at any length and offset.
* The batch-lifetime contract and the generator lock.
"""

from __future__ import annotations

import contextlib
import ctypes
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mem import kernel
from repro.mem.address import AddressSpace
from repro.workloads.batch import BATCH_JOBS
from repro.workloads.memory_profile import (
    HOT_LINES_PER_PAGE,
    PAGE_SKEW,
    BatchMemory,
    ServiceMemory,
)
from repro.workloads.microservices import SERVICES

#: The process-wide loader, captured before any test swaps it out.
_LOADER = kernel._LOADER

pytestmark = pytest.mark.skipif(
    kernel.sample_functions() is None,
    reason=f"compiled sampler unavailable: {_LOADER.reason}",
)

_GENERATORS = {"PCG64": np.random.PCG64, "MT19937": np.random.MT19937,
               "Philox": np.random.Philox}
_SKEWS = sorted({PAGE_SKEW, 1.0, 2.0, *(job.skew for job in BATCH_JOBS)})


@contextlib.contextmanager
def compiled():
    """Build memory objects with the real loader while a test's
    ``no_compiler`` fixture is active."""
    fallback = kernel._LOADER
    kernel._LOADER = _LOADER
    try:
        yield
    finally:
        kernel._LOADER = fallback


def _service(i: int) -> ServiceMemory:
    return ServiceMemory(AddressSpace(i), SERVICES[i])


def _batch(j: int) -> BatchMemory:
    job = BATCH_JOBS[j]
    return BatchMemory(AddressSpace(8 + j), job.code_pages, job.data_pages, job.skew)


def _arrays(batch):
    """A copy of a batch's four arrays (a compiled batch is reused)."""
    return [np.array(a, copy=True) for a in (batch.addr, batch.shared,
                                             batch.instr, batch.write)]


def _same_state(a, b) -> bool:
    """``bit_generator.state`` equality (MT19937 holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class _Pair:
    """The same memory objects built twice: compiled and numpy."""

    def __init__(self):
        self.fast: dict = {}
        self.ref: dict = {}

    def get(self, key, build):
        if key not in self.ref:
            self.ref[key] = build(key[1])
            with compiled():
                self.fast[key] = build(key[1])
            assert self.fast[key]._compiled is not None
            assert self.ref[key]._compiled is None
        return self.fast[key], self.ref[key]


def _run(ops, generator: str, seed: int) -> None:
    fast_rng = np.random.Generator(_GENERATORS[generator](seed))
    ref_rng = np.random.Generator(_GENERATORS[generator](seed))
    pair, regions = _Pair(), {}
    for op in ops:
        if op[0] == "svc":
            _, i, n, fresh = op
            fast, ref = pair.get(("svc", i), _service)
            if fresh or i not in regions:  # cycles through the private pool
                regions[i] = fast.new_invocation(), ref.new_invocation()
            got = fast.sample(fast_rng, n, regions[i][0])
            want = ref.sample(ref_rng, n, regions[i][1])
        else:
            _, j, n = op
            fast, ref = pair.get(("batch", j), _batch)
            got, want = fast.sample(fast_rng, n), ref.sample(ref_rng, n)
        assert len(got) == len(want) == max(0, n)
        for g, w in zip(_arrays(got), _arrays(want)):
            assert g.dtype == w.dtype and np.array_equal(g, w), op
        assert _same_state(fast_rng.bit_generator.state, ref_rng.bit_generator.state), op


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("svc"), st.integers(0, len(SERVICES) - 1),
                  st.integers(0, 300), st.booleans()),
        st.tuples(st.just("batch"), st.integers(0, len(BATCH_JOBS) - 1),
                  st.integers(0, 300)),
    ),
    min_size=1, max_size=25,
)


# The fixture only swaps the kernel loader; sharing it across examples is
# intended.
@given(ops=_OPS, generator=st.sampled_from(sorted(_GENERATORS)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_compiled_sampler_matches_numpy_body(ops, generator, seed, no_compiler):
    _run(ops, generator, seed)


@pytest.mark.parametrize("generator", sorted(_GENERATORS))
def test_every_profile_and_skew_interleaved(generator, no_compiler):
    """Every service (each private region of its pool, twice) and every
    batch job, alternating on one generator, odd and even sizes."""
    ops = []
    for round_ in range(2 * 4):
        for i in range(len(SERVICES)):
            ops.append(("svc", i, 2 + round_ % 3 * 19, True))
            ops.append(("batch", i % len(BATCH_JOBS), 8 + round_))
    for j in range(len(BATCH_JOBS)):
        ops += [("batch", j, n) for n in (1, 2, 40, 41, 300)]
    _run(ops, generator, 11)


# ----------------------------------------------------------------------
# Lemire's bounded integers, directly
# ----------------------------------------------------------------------
def _draw(rng: np.random.Generator, n: int, lines: int):
    """One ``hh_draw`` of ``n`` accesses with ``lines`` line values."""
    u, line = np.empty(3 * n), np.empty(n, dtype=np.int64)
    d = kernel.Draw(n, lines - 1, u.ctypes.data, line.ctypes.data)
    draw, _ = kernel.sample_functions()
    with rng.bit_generator.lock:
        draw(rng.bit_generator.ctypes.bit_generator, ctypes.addressof(d))
    return u, line


@pytest.mark.parametrize("generator", sorted(_GENERATORS))
@pytest.mark.parametrize("lines", [1, 2, 7, 8, 16, 1000, 2**31 + 1, 2**32 - 1, 2**32])
def test_draw_matches_numpy_draw_order_and_lemire(generator, lines):
    rng = np.random.Generator(_GENERATORS[generator](3))
    ref = np.random.Generator(_GENERATORS[generator](3))
    for n in (1, 2, 5, 64, 257):
        u, line = _draw(rng, n, lines)
        assert np.array_equal(u[:n], ref.random(n))
        assert np.array_equal(u[n:2 * n], ref.random(n))
        assert np.array_equal(line, ref.integers(0, lines, n))
        assert np.array_equal(u[2 * n:], ref.random(n))
        assert _same_state(rng.bit_generator.state, ref.bit_generator.state)


# ----------------------------------------------------------------------
# The numpy pow assumption
# ----------------------------------------------------------------------
@pytest.mark.parametrize("skew", _SKEWS)
def test_inplace_pow_on_a_buffer_view_matches_whole_array_pow(skew):
    """The compiled sampler raises the page draws to the skew in place on
    a view into its reused draw buffer; the vectorised body computes
    ``rng.random(n) ** skew`` on a fresh array.  Both must round alike at
    every length and alignment, bit for bit."""
    rng = np.random.default_rng(int(skew * 10))
    buf = np.empty(4 * 64)
    for n in range(1, 65):
        for offset in sorted({0, 1, 3, n, 2 * n, 4 * 64 - n}):
            u = rng.random(n)
            view = buf[offset:offset + n]
            view[:] = u
            view **= skew
            assert np.array_equal(view.view(np.uint64), (u ** skew).view(np.uint64)), (
                n, offset)


# ----------------------------------------------------------------------
# Batch lifetime, buffer ownership, the generator lock
# ----------------------------------------------------------------------
def test_batch_is_valid_until_the_next_sample_on_the_same_object():
    mem = _service(0)
    region = mem.new_invocation()
    rng = np.random.default_rng(0)
    first = mem.sample(rng, 40, region)
    kept = _arrays(first)
    again = mem.sample(rng, 40, region)
    assert again is first  # the same buffers, refilled
    assert not np.array_equal(kept[0], _arrays(again)[0])
    other = mem.sample(rng, 7, region)  # another size: other buffers
    assert other is not first and not np.shares_memory(other.addr, first.addr)


def test_memory_objects_never_share_buffers():
    rng = np.random.default_rng(0)
    a, b = _service(0), _service(0)  # two VMs running the same service
    c, d = _batch(0), _batch(0)
    batches = [a.sample(rng, 40, a.new_invocation()), b.sample(rng, 40, b.new_invocation()),
               c.sample(rng, 40), d.sample(rng, 40)]
    for i, x in enumerate(batches):
        for y in batches[i + 1:]:
            for p, q in zip((x.addr, x.shared, x.instr, x.write),
                            (y.addr, y.shared, y.instr, y.write)):
                assert not np.shares_memory(p, q)


def test_batch_pointers_are_its_arrays():
    mem = _batch(2)
    batch = mem.sample(np.random.default_rng(1), 16)
    assert batch.ptrs == tuple(a.ctypes.data for a in (
        batch.addr, batch.shared, batch.instr, batch.write))
    assert set(np.asarray(batch.addr) % 4096 // 64) <= set(range(2 * HOT_LINES_PER_PAGE))


def test_threads_on_separate_generators_match_single_threaded_runs():
    """ctypes releases the GIL inside hh_draw/hh_build: threads (more
    than the host's cores, switching often), each with its own generator
    and memory objects, must get exactly what each gets alone."""
    def work(seed, out):
        rng = np.random.Generator(np.random.PCG64(seed))
        svc, job = _service(seed % len(SERVICES)), _batch(seed % len(BATCH_JOBS))
        for k in range(400):
            out.append(_arrays(svc.sample(rng, 1 + k % 41, svc.new_invocation())))
            out.append(_arrays(job.sample(rng, 8 + k % 13)))
        out.append(rng.bit_generator.state)

    seeds = (1, 2, 3, 4)
    alone = {seed: [] for seed in seeds}
    for seed in seeds:
        work(seed, alone[seed])
    together = {seed: [] for seed in seeds}
    threads = [threading.Thread(target=work, args=(s, together[s])) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed in seeds:
        assert len(together[seed]) == len(alone[seed])
        assert together[seed][-1] == alone[seed][-1]
        for got, want in zip(together[seed][:-1], alone[seed][:-1]):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
