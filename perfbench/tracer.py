"""Per-layer attribution by wrapping each layer's public entry points.

The program is not modified: :class:`LayerTracer` replaces selected
functions and methods of the running ``repro`` package with timing
wrappers while it is installed, and restores the originals afterwards.

Accounting follows the tiling rule of ``repro.analysis.critical_path``:
every span boundary closes the segment that was running at its own
timestamp and opens the next, so a root span's duration is partitioned
exactly (in integer nanoseconds) among the spans that ran inside it.
A span's *self time* is its share of that partition.  The benchmark
opens a root around each measured operation with :meth:`LayerTracer.op`;
time in the root that no wrapped call covers is the explicit ``other``
bucket, so the layer self-times plus ``other`` always sum to the traced
wall time.

Each thread keeps its own span stack.  A wrapped call entered on a
thread with no open root is passed through untimed unless its span is
marked ``root=True`` (the service's job threads, whose whole life is one
``execute_job`` call).  The traced wall time is therefore the sum of
root durations over threads: wall seconds for a single-threaded
workload, busy thread-seconds for the service.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

OTHER = "other"

#: Layer names, in report order.  ``cluster`` is the engine, scheduler
#: and server logic together (repro.sim, repro.cluster, repro.hw and
#: repro.harvest), measured as one self-time bucket.
LAYERS = ("mem", "workloads", "cluster", "parallel", "cluster_scale", "service")

Note = Callable[[Dict[str, float], tuple, Any], None]


@dataclass(frozen=True)
class Span:
    """One wrapped entry point: ``<module>[.<owner>].<attr>``."""

    module: str
    owner: Optional[str]
    attr: str
    name: str
    layer: str
    #: Adds counters from (args, result) after each call.
    note: Optional[Note] = None
    #: May open a root on a thread with no benchmark operation open.
    root: bool = False


class _ThreadState:
    __slots__ = ("stack", "starts", "last", "self_ns", "total_ns", "calls",
                 "counters", "root_ns", "roots")

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.starts: List[int] = []
        self.last = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.root_ns = 0
        self.roots = 0


class LayerTracer:
    """Install/uninstall timing wrappers and collect per-span totals."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self.layer_of = {s.name: s.layer for s in self.spans}
        self.layer_of[OTHER] = OTHER
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _enter(self, st: _ThreadState, name: str) -> None:
        now = time.perf_counter_ns()
        if st.stack:
            st.self_ns[st.stack[-1]] += now - st.last
        st.stack.append(name)
        st.starts.append(now)
        st.last = now

    def _exit(self, st: _ThreadState) -> None:
        now = time.perf_counter_ns()
        name = st.stack.pop()
        start = st.starts.pop()
        st.self_ns[name] += now - st.last
        st.total_ns[name] += now - start
        st.calls[name] += 1
        st.last = now
        if not st.stack:
            st.root_ns += now - start
            st.roots += 1

    @contextmanager
    def op(self):
        """Open a root for one benchmark operation on this thread."""
        st = self._state()
        if st.stack:
            raise RuntimeError("benchmark operations must not nest")
        self._enter(st, OTHER)
        try:
            yield
        finally:
            self._exit(st)

    # -- patching -------------------------------------------------------
    def _wrap(self, fn: Callable, span: Span) -> Callable:
        tracer = self
        name = span.name
        note = span.note
        may_root = span.root

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if not st.stack and not may_root:
                return fn(*args, **kwargs)
            tracer._enter(st, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st)
            if note is not None:
                note(st.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span.attr)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for span in self.spans:
            target = importlib.import_module(span.module)
            if span.owner is not None:
                target = getattr(target, span.owner)
            raw = target.__dict__[span.attr]
            if isinstance(raw, staticmethod):
                patched: Any = staticmethod(self._wrap(raw.__func__, span))
            else:
                patched = self._wrap(raw, span)
            self._saved.append((target, span.attr, raw))
            setattr(target, span.attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, raw = self._saved.pop()
            setattr(target, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            for st in self._states:
                if st.stack:
                    raise RuntimeError("cannot reset with a span open")
                st.self_ns.clear()
                st.total_ns.clear()
                st.calls.clear()
                st.counters.clear()
                st.root_ns = 0
                st.roots = 0

    def snapshot(self) -> "TraceTotals":
        """Sum every thread's totals (call between operations)."""
        totals = TraceTotals()
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, ns in st.self_ns.items():
                totals.self_ns[name] += ns
                totals.layer_ns[self.layer_of[name]] += ns
            for name, ns in st.total_ns.items():
                totals.total_ns[name] += ns
            for name, n in st.calls.items():
                totals.calls[name] += n
            for key, value in st.counters.items():
                totals.counters[key] += value
            totals.wall_ns += st.root_ns
            totals.roots += st.roots
        return totals


class TraceTotals:
    """Summed span totals; ``layer_ns`` includes the ``other`` bucket."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.layer_ns: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.wall_ns = 0
        self.roots = 0

    def layer_table(self) -> Dict[str, int]:
        """Self nanoseconds per layer (every layer listed, ``other`` excluded)."""
        return {layer: self.layer_ns.get(layer, 0) for layer in LAYERS}

    @property
    def other_ns(self) -> int:
        return self.layer_ns.get(OTHER, 0)

    def tiles(self) -> bool:
        return sum(self.layer_table().values()) + self.other_ns == self.wall_ns
