"""Model test of the request queues against plain-list object walks.

:class:`~repro.hw.request_queue.Subqueue` keeps one status byte per entry
and a READY counter, and :class:`~repro.cluster.vm.SoftwareQueue` steps
through the READY bytes with ``bytearray.find``.  The models here hold
``[request, status]`` pairs and answer every question by walking them,
the way the queues did before the status bytes; hypothesis drives both
with random operation sequences, past 64 entries deep, and requires the
same answers, the same errors and the same queue contents after every
operation.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.vm import SoftwareQueue
from repro.hw.request_queue import CODE_READY, Subqueue

READY, RUNNING, BLOCKED = "ready", "running", "blocked"
_CODE = {READY: 0, RUNNING: 1, BLOCKED: 2}


class Req:
    """A queued payload; identity is what the queues compare."""

    __slots__ = ("name", "steered_core_id")

    def __init__(self, name, steered_core_id):
        self.name = name
        self.steered_core_id = steered_core_id

    def __repr__(self):
        return f"Req({self.name})"


class ModelSubqueue:
    """A subqueue as ``[request, status]`` pairs, every query a walk."""

    def __init__(self, vm_id, entries_per_chunk):
        self.vm_id = vm_id
        self.entries_per_chunk = entries_per_chunk
        self.rq_map = []
        self.entries = []
        self.overflow = deque()
        self.overflow_highwater = 0

    @property
    def capacity(self):
        return len(self.rq_map) * self.entries_per_chunk

    def _spill(self, request, left=False):
        if left:
            self.overflow.appendleft(request)
        else:
            self.overflow.append(request)
        self.overflow_highwater = max(self.overflow_highwater, len(self.overflow))

    def enqueue(self, request):
        if len(self.entries) < self.capacity:
            self.entries.append([request, READY])
            return True
        self._spill(request)
        return False

    def _promote(self):
        while self.overflow and len(self.entries) < self.capacity:
            self.entries.append([self.overflow.popleft(), READY])

    def dequeue_ready(self):
        for entry in self.entries:
            if entry[1] == READY:
                entry[1] = RUNNING
                return entry[0]
        return None

    def has_ready(self):
        return any(e[1] == READY for e in self.entries)

    def ready_count(self):
        return sum(1 for e in self.entries if e[1] == READY)

    def _find(self, request):
        for i, entry in enumerate(self.entries):
            if entry[0] is request:
                return i, entry
        raise KeyError(
            f"request {request!r} not present in subqueue of VM {self.vm_id}"
        )

    def _move(self, request, expected, new, verb):
        _, entry = self._find(request)
        if entry[1] != expected:
            raise ValueError(f"cannot {verb} a {entry[1]} request")
        entry[1] = new

    def mark_blocked(self, request):
        self._move(request, RUNNING, BLOCKED, "block")

    def mark_ready(self, request):
        self._move(request, BLOCKED, READY, "ready")

    def requeue_ready(self, request):
        self._move(request, RUNNING, READY, "requeue")

    def complete(self, request):
        i, entry = self._find(request)
        if entry[1] != RUNNING:
            raise ValueError(f"cannot complete a {entry[1]} request")
        del self.entries[i]
        self._promote()

    def discard(self, request):
        for i, entry in enumerate(self.entries):
            if entry[0] is request:
                del self.entries[i]
                self._promote()
                return True
        try:
            self.overflow.remove(request)
            return True
        except ValueError:
            return False

    def drain(self):
        drained = [e[0] for e in self.entries] + list(self.overflow)
        self.entries.clear()
        self.overflow.clear()
        return drained

    def grant_chunk(self, chunk_id):
        if chunk_id in self.rq_map:
            raise ValueError(f"chunk {chunk_id} already mapped to VM {self.vm_id}")
        self.rq_map.append(chunk_id)
        self._promote()

    def shed_chunk(self):
        if not self.rq_map:
            raise ValueError(f"VM {self.vm_id} has no chunks to shed")
        chunk = self.rq_map.pop()
        while len(self.entries) > self.capacity:
            displaced = self.entries.pop()
            if displaced[1] != READY:
                # Keep running/blocked entries; spill the newest READY one.
                self.entries.append(displaced)
                ready_idx = None
                for i in range(len(self.entries) - 1, -1, -1):
                    if self.entries[i][1] == READY:
                        ready_idx = i
                        break
                if ready_idx is None:
                    break
                moved = self.entries.pop(ready_idx)
                self._spill(moved[0], left=True)
            else:
                self._spill(displaced[0], left=True)
        return chunk


class ModelSoftwareQueue:
    """A software per-core queue over :class:`ModelSubqueue`."""

    def __init__(self, vm_id):
        self._sq = ModelSubqueue(vm_id, entries_per_chunk=1 << 30)
        self._sq.grant_chunk(0)

    @staticmethod
    def _matches(request, core_id, exclude_steered_to):
        steer = request.steered_core_id
        if exclude_steered_to and steer in exclude_steered_to:
            return False
        return core_id is None or steer is None or steer == core_id

    def dequeue(self, core_id=None, exclude_steered_to=None):
        for entry in self._sq.entries:
            if entry[1] == READY and self._matches(entry[0], core_id,
                                                    exclude_steered_to):
                entry[1] = RUNNING
                return entry[0]
        return None

    def has_ready(self, core_id=None, exclude_steered_to=None):
        return any(
            e[1] == READY and self._matches(e[0], core_id, exclude_steered_to)
            for e in self._sq.entries
        )

    def ready_steered_cores(self):
        seen = []
        for request, status in self._sq.entries:
            steer = request.steered_core_id
            if status == READY and steer is not None and steer not in seen:
                seen.append(steer)
        return seen

    def ready_count(self):
        return self._sq.ready_count()

    def enqueue(self, request):
        return self._sq.enqueue(request)

    def mark_blocked(self, request):
        self._sq.mark_blocked(request)

    def mark_ready(self, request):
        self._sq.mark_ready(request)

    def requeue(self, request):
        self._sq.requeue_ready(request)

    def complete(self, request):
        self._sq.complete(request)

    def discard(self, request):
        return self._sq.discard(request)

    def drain(self):
        return self._sq.drain()

    def pending(self):
        return len(self._sq.entries) + len(self._sq.overflow)


# ----------------------------------------------------------------------
# Driving both
# ----------------------------------------------------------------------

_CORES = st.sampled_from([None, 0, 1, 2, 3])
_EXCLUDE = st.sets(st.sampled_from([0, 1, 2, 3]), max_size=3)
_PICK = st.integers(0, 10_000)  # index into the requests created so far

_SHARED_OPS = [
    st.tuples(st.just("enqueue"), _CORES),
    st.tuples(st.just("enqueue_many"), st.integers(1, 40), _CORES),
    st.tuples(st.just("mark_blocked"), _PICK),
    st.tuples(st.just("mark_ready"), _PICK),
    st.tuples(st.just("complete"), _PICK),
    st.tuples(st.just("discard"), _PICK),
    st.tuples(st.just("ready_count")),
    st.tuples(st.just("drain")),
]

_SUBQUEUE_OP = st.one_of(
    *_SHARED_OPS,
    st.tuples(st.just("dequeue_ready")),
    st.tuples(st.just("requeue_ready"), _PICK),
    st.tuples(st.just("has_ready")),
    st.tuples(st.just("shed_chunk")),
    st.tuples(st.just("grant_chunk"), st.booleans()),
)

_SOFTWARE_OP = st.one_of(
    *_SHARED_OPS,
    st.tuples(st.just("dequeue"), _CORES, _EXCLUDE),
    st.tuples(st.just("requeue"), _PICK),
    st.tuples(st.just("has_ready"), _CORES, _EXCLUDE),
    st.tuples(st.just("ready_steered_cores")),
    st.tuples(st.just("pending")),
)


def _outcome(fn, *args):
    """``fn(*args)``'s result, or the type and text of what it raised."""
    try:
        return ("ok", fn(*args))
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _same(a, b):
    """Results agree; requests (and lists of them) by identity."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, Req) or isinstance(b, Req):
        return a is b
    return a == b


def _check_state(sq, model):
    """Same entries, statuses, overflow and chunks; counter matches."""
    assert sq._ready_count == sq._codes.count(CODE_READY)
    assert len(sq.entries) == len(sq._codes) == len(model.entries)
    assert all(r is e[0] for r, e in zip(sq.entries, model.entries))
    assert bytes(sq._codes) == bytes(_CODE[e[1]] for e in model.entries)
    assert _same(list(sq.overflow), list(model.overflow))
    assert sq.overflow_highwater == model.overflow_highwater
    assert sq.rq_map == model.rq_map


def _run_ops(queue, model, ops, sq, msq):
    """Apply ``ops`` to both queues, comparing after every operation."""
    requests = []
    next_chunk = 100
    for op in ops:
        kind = op[0]
        if kind in ("enqueue", "enqueue_many"):
            count, core = (1, op[1]) if kind == "enqueue" else op[1:]
            for _ in range(count):
                req = Req(len(requests), core)
                requests.append(req)
                assert queue.enqueue(req) == model.enqueue(req)
            _check_state(sq, msq)
            continue
        if kind == "grant_chunk":
            if op[1] and sq.rq_map:
                args = (sq.rq_map[0],)  # already mapped: must be refused
            else:
                args = (next_chunk,)
                next_chunk += 1
        elif len(op) == 3:  # SoftwareQueue dequeue / has_ready
            args = (op[1], op[2] or None)
        elif len(op) == 2 and isinstance(op[1], int) and requests:
            args = (requests[op[1] % len(requests)],)
        elif len(op) == 2:
            continue  # a request op before any request exists
        else:
            args = ()
        got = _outcome(getattr(queue, kind), *args)
        want = _outcome(getattr(model, kind), *args)
        assert got[0] == want[0] and _same(got[1], want[1]), (op, got, want)
        _check_state(sq, msq)


@given(
    entries_per_chunk=st.integers(1, 40),
    chunks=st.integers(0, 4),
    ops=st.lists(_SUBQUEUE_OP, min_size=10, max_size=150),
)
@settings(max_examples=500, deadline=None)
def test_subqueue_matches_object_walk_model(entries_per_chunk, chunks, ops):
    sq = Subqueue(7, entries_per_chunk)
    model = ModelSubqueue(7, entries_per_chunk)
    for chunk in range(chunks):
        sq.grant_chunk(chunk)
        model.grant_chunk(chunk)
    _run_ops(sq, model, ops, sq, model)


@given(ops=st.lists(_SOFTWARE_OP, min_size=10, max_size=150))
@settings(max_examples=500, deadline=None)
def test_software_queue_matches_object_walk_model(ops):
    queue = SoftwareQueue(3)
    model = ModelSoftwareQueue(3)
    _run_ops(queue, model, ops, queue._sq, model._sq)


def test_deep_software_queue_steers_past_64_entries():
    """A 100-deep queue whose only match sits at the back is found, and
    the counter and bytes stay consistent while it drains."""
    queue = SoftwareQueue(0)
    reqs = [Req(i, 1) for i in range(99)] + [Req(99, 2)]
    for req in reqs:
        queue.enqueue(req)
    assert queue.dequeue(0) is None
    assert queue.dequeue(2) is reqs[-1]
    assert queue.ready_steered_cores() == [1]
    assert not queue.has_ready(2)
    assert queue.has_ready(1) and not queue.has_ready(1, {1})
    sq = queue._sq
    assert sq._ready_count == sq._codes.count(CODE_READY) == 99
