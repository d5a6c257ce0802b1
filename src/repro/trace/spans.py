"""Process-wide structured tracer: nestable spans in a bounded ring buffer.

The paper's evaluation is entirely about constant factors — Section 7
reports *achieved bandwidth per pass*, not asymptotics — so the repo needs
to see inside one transpose: where each pass's time goes, how the parallel
workers overlap, which plans hit the cache.  The aggregate timers in
:mod:`repro.runtime.metrics` cannot answer those questions (a TimerStat is
four scalars); spans can, because each one records *when* it ran, *on which
thread*, and *under which parent*.

Design constraints (shared with the metrics registry):

* **No repro imports.**  This module is imported from ``repro.core``,
  ``repro.parallel``, ``repro.runtime`` and ``repro.baselines``; depending
  only on the stdlib keeps the import graph acyclic.
* **Near-zero disabled cost.**  ``tracer.span(...)`` returns a shared no-op
  context manager when disabled; hot paths guard with
  ``if tracer.enabled:`` so the off path is one attribute read and one
  branch (the same discipline as ``registry.enabled``).
* **Bounded memory.**  Finished spans land in a ring buffer
  (``REPRO_TRACE_CAPACITY``, default 65536 records); long-running processes
  overwrite the oldest records instead of growing without bound, and the
  number of overwritten records is kept in ``tracer.dropped``.
* **Thread safety.**  The ring buffer is guarded by one lock; span *nesting*
  is tracked per thread (thread-local stacks), so spans opened on different
  threads never parent each other — exactly the lane-per-thread layout the
  Chrome-trace exporter emits.

Span naming conventions (see docs/TRACING.md):

========== =====================================================
prefix     meaning
========== =====================================================
``op.*``   one public entry-point invocation
``pass.*`` one decomposition pass (rotate / shuffle / permute)
``worker.*`` one parallel worker chunk (carries its rectangle)
``cache.*`` plan-cache events (hit / miss / evict), zero-width
``baseline.*`` one baseline-algorithm invocation
``serve.*`` one serving-layer request, group or execution; zero-width
           ``serve.*`` instants record the serving layer's decisions
           (admit / reject / coalesce / dispatch / ...)
``stream.*`` one streamed band (load, kernel, store)
``native.fallback`` zero-width: native execution fell back to numpy
========== =====================================================

Every instant records under the thread's active :class:`TraceContext`,
so a decision taken for a request carries that request's ``trace_id``
without being told it.

Usage::

    from repro.trace.spans import tracer

    with tracer.span("pass.row_shuffle", m=m, n=n, bytes=2 * buf.nbytes):
        ...                      # the pass

    tracer.event("cache.hit", m=m, n=n)   # zero-width instant event

Distributed tracing (docs/TRACING.md, "Distributed tracing"): a
:class:`TraceContext` carries a request's ``trace_id`` and the span id the
next span should parent to.  ``tracer.activate(ctx)`` installs it on the
current thread; spans opened underneath are stamped with the trace_id, and
the first span (empty stack) parents to ``ctx.parent_id`` — the span a
request's worker-thread spans hang under.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import deque
from time import perf_counter

__all__ = [
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "tracer",
    "traced",
    "new_trace_id",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "DEFAULT_CAPACITY",
]

DEFAULT_CAPACITY = 65536

#: this process's pid, stamped on every record.  Cached because a span is
#: opened per pass, not per element — but refreshed after fork so records
#: from fork/forkserver children carry the *child's* pid (spawn children
#: re-import and get a fresh value).
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_refresh_pid)


def new_trace_id() -> str:
    """Mint a fresh 16-hex-char trace id (random, collision-negligible)."""
    return os.urandom(8).hex()


class TraceContext:
    """A request identity crossing thread boundaries.

    ``trace_id`` names the request end to end; ``parent_id`` is the span id
    the next root span should parent to (0 = none).
    """

    __slots__ = ("trace_id", "parent_id")

    def __init__(self, trace_id: str, parent_id: int = 0):
        self.trace_id = trace_id
        self.parent_id = int(parent_id)

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r}, parent_id={self.parent_id})"


class SpanRecord:
    """One finished span (or instant event, when ``t1 == t0``).

    Immutable once appended to the ring buffer; exporters receive lists of
    these.  Times are :func:`time.perf_counter` values (monotonic, arbitrary
    origin) — exporters rebase against the earliest record.
    """

    __slots__ = ("span_id", "parent_id", "name", "t0", "t1", "tid",
                 "thread_name", "attrs", "trace_id", "pid")

    def __init__(self, span_id: int, parent_id: int, name: str, t0: float,
                 t1: float, tid: int, thread_name: str, attrs: dict,
                 trace_id: str = "", pid: int | None = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.tid = tid
        self.thread_name = thread_name
        self.attrs = attrs
        self.trace_id = trace_id
        self.pid = _PID if pid is None else pid

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    @property
    def is_event(self) -> bool:
        """True for zero-width instant events (``tracer.event``)."""
        return self.t1 == self.t0

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "duration_s": self.duration_s,
            "tid": self.tid,
            "thread_name": self.thread_name,
            "attrs": dict(self.attrs),
            "trace_id": self.trace_id,
            "pid": self.pid,
        }

    def __repr__(self) -> str:
        return (f"SpanRecord({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
                f"tid={self.tid})")


class _NoopSpan:
    """The shared disabled-path span: enter/exit do nothing.

    A single instance is returned by every ``tracer.span`` call while the
    tracer is disabled, so the off path allocates nothing.
    """

    __slots__ = ()
    #: mirrors ``_LiveSpan.duration_s`` so instrumentation that reads the
    #: duration after the ``with`` block stays branch-free.
    duration_s = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _LiveSpan:
    """An open span: a context manager that records itself on exit."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "t0",
                 "t1", "trace_id")

    def __init__(self, tr: "Tracer", name: str, attrs: dict):
        self._tracer = tr
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self.t0 = 0.0
        self.t1 = 0.0
        self.trace_id = ""

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    def __enter__(self) -> "_LiveSpan":
        tr = self._tracer
        stack = tr._stack()
        ctx = getattr(tr._local, "ctx", None)
        if ctx is not None:
            self.trace_id = ctx.trace_id
        # A root span under an active context parents to the context's
        # parent_id (a span recorded on another thread).
        if stack:
            self.parent_id = stack[-1].span_id
        elif ctx is not None:
            self.parent_id = ctx.parent_id
        self.span_id = tr._next_id()
        stack.append(self)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.t1 = perf_counter()
        tr = self._tracer
        stack = tr._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (e.g. an exception unwound siblings): recover
            try:
                stack.remove(self)
            except ValueError:
                pass
        t = threading.current_thread()
        tr._append(SpanRecord(self.span_id, self.parent_id, self.name,
                              self.t0, self.t1, t.ident or 0, t.name,
                              self.attrs, trace_id=self.trace_id))
        return False


class _CtxScope:
    """Installs a :class:`TraceContext` on the current thread, restoring
    whatever was active before on exit (contexts nest)."""

    __slots__ = ("_local", "_ctx", "_prev")

    def __init__(self, local: threading.local, ctx: "TraceContext | None"):
        self._local = local
        self._ctx = ctx
        self._prev = None

    def __enter__(self) -> "TraceContext | None":
        self._prev = getattr(self._local, "ctx", None)
        self._local.ctx = self._ctx
        return self._ctx

    def __exit__(self, *exc) -> bool:
        self._local.ctx = self._prev
        return False


class Tracer:
    """Thread-safe span recorder with a bounded ring buffer.

    ``enabled`` is a plain attribute read by the hot-path guards; flipping
    it is safe at any time (spans already open record normally on exit).
    """

    def __init__(self, enabled: bool = False, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._buf: deque[SpanRecord] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.capacity = capacity
        self.enabled = enabled
        #: records overwritten by ring wraparound since the last reset
        self.dropped = 0
        #: records appended since the last reset (including later-dropped)
        self.recorded = 0

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs) -> "_LiveSpan | _NoopSpan":
        """Open a span: ``with tracer.span("pass.x", m=m, n=n, bytes=b):``.

        Returns the shared no-op context manager while disabled.  Hot paths
        should additionally guard with ``if tracer.enabled:`` so the keyword
        dict is never built on the off path.
        """
        if not self.enabled:
            return _NOOP
        return _LiveSpan(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a zero-width instant event (``cache.hit`` and friends)."""
        if not self.enabled:
            return
        now = perf_counter()
        t = threading.current_thread()
        stack = self._stack()
        ctx = getattr(self._local, "ctx", None)
        if stack:
            parent = stack[-1].span_id
        else:
            parent = ctx.parent_id if ctx is not None else 0
        self._append(SpanRecord(self._next_id(), parent, name, now, now,
                                t.ident or 0, t.name, attrs,
                                trace_id=ctx.trace_id if ctx else ""))

    # -- distributed tracing ---------------------------------------------------

    def activate(self, ctx: "TraceContext | None") -> _CtxScope:
        """``with tracer.activate(ctx):`` — spans opened on this thread are
        stamped with ``ctx.trace_id`` and the first one parents to
        ``ctx.parent_id``.  Safe (and free) while disabled; ``None``
        deactivates for the scope."""
        return _CtxScope(self._local, ctx)

    def current_context(self) -> "TraceContext | None":
        """The thread's active :class:`TraceContext`, if any."""
        return getattr(self._local, "ctx", None)

    def current_trace_id(self) -> str:
        """The active context's trace id, or ``""`` outside any request."""
        ctx = getattr(self._local, "ctx", None)
        return ctx.trace_id if ctx is not None else ""

    # -- internals -----------------------------------------------------------

    def _next_id(self) -> int:
        # itertools.count.__next__ is atomic under the GIL.
        return next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, rec: SpanRecord) -> None:
        with self._lock:
            if len(self._buf) == self._buf.maxlen:
                self.dropped += 1
            self._buf.append(rec)
            self.recorded += 1

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> list[SpanRecord]:
        """The ring buffer's current contents, oldest first (a copy)."""
        with self._lock:
            return list(self._buf)

    def drain(self) -> list[SpanRecord]:
        """Remove and return the buffered records, oldest first."""
        with self._lock:
            out = list(self._buf)
            self._buf.clear()
            return out

    def reset(self) -> None:
        """Drop all records and counters (the enabled flag is untouched)."""
        with self._lock:
            self._buf.clear()
            self.dropped = 0
            self.recorded = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)


#: The process-wide tracer used by every instrumented entry point.
#: Off by default (mirroring ``REPRO_SANITIZE``); ``REPRO_TRACE=1`` enables.
tracer = Tracer(
    enabled=os.environ.get("REPRO_TRACE", "0") == "1",
    capacity=int(os.environ.get("REPRO_TRACE_CAPACITY", DEFAULT_CAPACITY)),
)


def traced(name: str):
    """Decorator tracing a ``fn(buf, m, n, ...)`` entry point.

    Used by the baseline algorithms so their traces are comparable with the
    decomposition's: one ``baseline.*`` span per call, carrying the shape
    and the 2x read+write byte volume.  Disabled cost is one attribute read
    and one branch.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(buf, m, n, *args, **kwargs):
            if not tracer.enabled:
                return fn(buf, m, n, *args, **kwargs)
            with tracer.span(name, m=m, n=n, bytes=2 * buf.nbytes):
                return fn(buf, m, n, *args, **kwargs)

        return wrapper

    return deco


def enable() -> None:
    tracer.enabled = True


def disable() -> None:
    tracer.enabled = False


def is_enabled() -> bool:
    return tracer.enabled


def reset() -> None:
    tracer.reset()
