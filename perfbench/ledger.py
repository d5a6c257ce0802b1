"""The traced mode's span recorder and the wrappers that feed it.

Spans are recorded by the benchmark around calls into each layer's public
functions; nothing inside the program changes.  A span holds its name,
start, end, parent span and the id of the operation it belongs to.  Spans
stay in memory and are written out once, when the run ends.

Chunks of a parallel pass run on pool threads whose own span stack is
empty; they are parented to the ``parallel.for`` span that fanned them out
(the benchmark issues one operation at a time, so there is one at most).
Self time subtracts the *union* of the children's intervals, because those
parallel children overlap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    span_id: int
    parent: int
    op: int
    name: str
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """In-memory span store; ``enabled`` is False outside the traced phase."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ops = itertools.count(1)
        self._fanout: Span | None = None

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str, **attrs) -> Span | None:
        if not self.enabled:
            return None
        st = self._stack()
        parent = st[-1] if st else self._fanout
        sp = Span(next(self._ids), parent.span_id if parent else 0,
                  parent.op if parent else 0, name, perf_counter(), attrs=attrs)
        st.append(sp)
        if name == "parallel.for":
            self._fanout = sp
        return sp

    def end(self, sp: Span | None) -> None:
        if sp is None:
            return
        sp.t1 = perf_counter()
        st = self._stack()
        if st and st[-1] is sp:
            st.pop()
        if sp.name == "parallel.for":
            self._fanout = None
        with self._lock:
            self.spans.append(sp)

    @contextlib.contextmanager
    def recording(self):
        """Record spans for the duration of the block."""
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def op(self, name: str, **attrs):
        """Scope of one benchmark operation: a root span with a fresh op
        id, which the spans opened inside it inherit."""
        sp = self.begin(name, **attrs)
        if sp is not None:
            sp.op = next(self._ops)
        try:
            yield sp
        finally:
            self.end(sp)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "op": s.op,
                    "name": s.name, "start": s.t0, "end": s.t1, **s.attrs,
                }) + "\n")


def wrap(rec: Recorder, owner, attr: str, name: str, after=None) -> None:
    """Replace ``owner.attr`` with a version that records a ``name`` span.

    ``after(span, result, args)`` may add attributes once the call returns.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sp = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(sp)
        if sp is not None and after is not None:
            after(sp, out, args)
        return out

    setattr(owner, attr, traced)


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro import native
    from repro.core.batched import BatchedTransposePlan
    from repro.core.plan import TransposePlan
    from repro.native.kernel import NativeKernel
    from repro.parallel.executor import ParallelExecutor
    from repro.runtime import plan_cache
    from repro.stream.window import ResidentWindow

    def plan_bytes(sp, _out, args):
        sp.attrs["scratch_bytes"] = args[0].scratch_bytes

    wrap(rec, TransposePlan, "__init__", "core.plan_build", plan_bytes)
    wrap(rec, BatchedTransposePlan, "__init__", "core.plan_build", plan_bytes)
    wrap(rec, plan_cache, "get_single_plan", "runtime.plan_lookup")
    wrap(rec, plan_cache, "get_batched_plan", "runtime.plan_lookup")
    # _build_kernel resolves compile_spec from the package namespace
    wrap(rec, native, "compile_spec", "native.compile")
    for attr in ("run", "run_batch", "run_pass", "run_pass_batch", "run_pass_banded"):
        wrap(rec, NativeKernel, attr, "native.pass")
    wrap(rec, ParallelExecutor, "parallel_for", "parallel.for")
    for attr in ("load_rows", "load_cols"):
        wrap(rec, ResidentWindow, attr, "stream.band_load")
    for attr in ("store_rows", "store_cols"):
        wrap(rec, ResidentWindow, attr, "stream.band_store")
    wrap(rec, ResidentWindow, "flush", "stream.flush")


# -- analysis ------------------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append((s.t0, s.t1))
    return {s.span_id: s.duration - _union(kids.get(s.span_id, [])) for s in spans}


def unattributed_frac(spans: list[Span]) -> float:
    """Share of operation time that no layer span covers (op self time)."""
    ops = [s for s in spans if s.name.startswith("op.")]
    total = sum(s.duration for s in ops)
    if total <= 0:
        return 0.0
    st = self_times(spans)
    return sum(st[s.span_id] for s in ops) / total


def by_name(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def self_time_table(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per span name (the printed ledger)."""
    st = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + st[s.span_id]
    return out


@contextlib.contextmanager
def repro_tracing():
    """The program's own tracer on (as ``REPRO_TRACE=1``), its buffer
    emptied afterwards."""
    from repro.trace import spans

    spans.enable()
    try:
        yield
    finally:
        spans.disable()
        spans.reset()
