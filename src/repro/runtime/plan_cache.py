"""A thread-safe, process-wide LRU cache of transpose plans.

Section 4's cost analysis shows that materializing the gather maps
(``d'^{-1}``/``s'``) costs about as much as one pass over the data — so a
workload that transposes the same shape repeatedly (AoS/SoA conversion,
batched FFT-style pipelines, attention-head reshapes) pays the planning tax
on every call unless something amortizes it.  This module is that something:
a process-wide LRU keyed by

    ``(m, n, order, algorithm, dtype)``

mapping to :class:`~repro.core.plan.TransposePlan` objects.  The passes
depend on the shape only, so one plan serves single-matrix calls and
batches of any size (a single matrix is a batch of one tile):
:func:`get_single_plan` and :func:`get_batched_plan` return the same entry.
A plan's identity never changes after construction, and its one piece of
mutable state — the gather maps, built once on the first numpy execute
under the plan's own lock — is safe to race on (see
``tests/test_concurrency.py``), so one instance may be executed from any
number of threads concurrently.

The cache enforces a configurable **byte budget** (default 256 MiB, env
``REPRO_PLAN_CACHE_BYTES``) over the bytes each plan actually holds: a plan
enters at its resident footprint (0 until its maps exist), least-recently
used plans are evicted once the budget is exceeded, and a plan larger than
the whole budget — at insertion or after it grows — is never retained.  The
cache can be disabled entirely with :func:`configure` or
``REPRO_PLAN_CACHE=0``.

Retained plans are stamped with a ``_plan_cache_binding`` back-reference so
what they acquire after insertion — their ``O(mn)`` int32 gather maps, and
the native backend's compiled ``.so`` files — is charged to the entry via
:func:`charge` and counts against the same budget.  Eviction (LRU, budget
shrink, or :meth:`PlanCache.clear`) invokes the plan's ``on_cache_evict``
hook outside the lock, which releases those artifacts.

Hit/miss/eviction counts are part of :func:`repro.runtime.metrics.snapshot`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter

__all__ = [
    "PlanKey",
    "PlanCache",
    "DEFAULT_MAX_BYTES",
    "get_plan_cache",
    "configure",
    "clear",
    "stats",
    "get_single_plan",
    "get_batched_plan",
    "charge",
]

DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_trace = None
_events = None


def _tracer():
    """Lazily bind the process-wide tracer (repro.trace.spans is stdlib-only,
    so this import can never recurse into package initialization)."""
    global _trace
    if _trace is None:
        from repro.trace import spans as _sp

        _trace = _sp
    return _trace.tracer


def _event_log():
    """Lazily bind the structured event log (also stdlib-only)."""
    global _events
    if _events is None:
        from repro.trace import events as _ev

        _events = _ev
    return _events.event_log


def _key_attrs(key: "PlanKey") -> dict:
    """Span attributes identifying a cached plan in ``cache.*`` events."""
    return {
        "m": key.m,
        "n": key.n,
        "order": key.order,
        "algorithm": key.algorithm,
        "dtype": key.dtype,
    }


@dataclass(frozen=True)
class PlanKey:
    """The identity of a cached plan.

    There is no batch count: one plan serves every batch size.  ``dtype``
    is part of the key even though the int32 gather maps are
    dtype-independent — it keeps hit/miss accounting meaningful per
    workload and costs nothing for the one or two dtypes a real pipeline
    uses.  ``algorithm`` is stored resolved (never ``"auto"``) so explicit
    and ``"auto"`` requests share entries.
    """

    m: int
    n: int
    order: str
    algorithm: str
    dtype: str


class PlanCache:
    """LRU plan cache with a byte budget and hit/miss/eviction statistics.

    A single reentrant lock guards the map and the counters.  Plan
    *construction* happens outside the lock, as does the later build of a
    plan's gather maps (a full pass over ``O(mn)`` index data that must not
    serialize unrelated shapes); two threads racing on the same cold key may
    both construct, with one plan discarded (counted under ``races``).
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES, enabled: bool = True):
        self._lock = threading.RLock()
        self._plans: OrderedDict[PlanKey, tuple[object, int]] = OrderedDict()
        self.max_bytes = int(max_bytes)
        self.enabled = enabled
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.races = 0
        self.oversize_rejects = 0
        self.build_seconds = 0.0

    # -- lookup ----------------------------------------------------------------

    def get_or_build(self, key: PlanKey, factory, size_of) -> object:
        """Return the cached plan for ``key``, building it on a miss.

        ``factory`` builds the plan; ``size_of`` maps a plan to its resident
        byte footprint (used against the budget).  When the cache is
        disabled the factory result is returned without being retained and
        no statistics move.
        """
        if not self.enabled:
            return factory()
        tr = _tracer()
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                self._plans.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        # Trace events fire outside the lock: the tracer is a leaf subsystem
        # and must never extend the cache's critical section.
        if entry is not None:
            if tr.enabled:
                tr.event("cache.hit", **_key_attrs(key))
            return entry[0]
        if tr.enabled:
            tr.event("cache.miss", **_key_attrs(key))
        t0 = perf_counter()
        plan = factory()
        dt = perf_counter() - t0
        nbytes = int(size_of(plan))
        evicted: list[tuple[PlanKey, int]] = []
        with self._lock:
            self.build_seconds += dt
            if key in self._plans:
                # Another thread built and inserted while we were building;
                # keep theirs (it is already shared) and drop ours.
                self.races += 1
                self._plans.move_to_end(key)
                return self._plans[key][0]
            if nbytes > self.max_bytes:
                self.oversize_rejects += 1
                return plan
            # The binding lets what the plan acquires after insertion (its
            # gather maps, native kernel .so files) be charged to this entry.
            plan.__dict__["_plan_cache_binding"] = (self, key)
            self._plans[key] = (plan, nbytes)
            self.current_bytes += nbytes
            while self.current_bytes > self.max_bytes and len(self._plans) > 1:
                ekey, (eplan, evicted_bytes) = self._plans.popitem(last=False)
                self.current_bytes -= evicted_bytes
                self.evictions += 1
                evicted.append((ekey, eplan, evicted_bytes))
        self._fire_evictions(evicted)
        return plan

    def _fire_evictions(
        self, evicted: list[tuple[PlanKey, object, int]]
    ) -> None:
        """Trace events and per-plan eviction hooks, strictly outside the
        lock: hooks re-enter subsystems (artifact unlink, tracing) that must
        never extend the cache's critical section."""
        if not evicted:
            return
        tr = _tracer()
        ev = _event_log()
        for ekey, eplan, ebytes in evicted:
            if tr.enabled:
                tr.event("cache.evict", bytes=ebytes, **_key_attrs(ekey))
            if ev.enabled:
                # Attributed to whichever request's plan build triggered
                # the eviction ("" outside a traced request).
                ev.emit(
                    "evict", trace_id=tr.current_trace_id(),
                    bytes=ebytes, **_key_attrs(ekey),
                )
            hook = getattr(eplan, "on_cache_evict", None)
            if hook is not None:
                hook()

    def adjust_bytes(self, key: PlanKey, delta: int, plan=None) -> None:
        """Re-account ``key``'s entry by ``delta`` bytes.

        Used when a retained plan's resident footprint changes after
        insertion — its gather maps are built on first numpy use, and the
        native backend charges each compiled ``.so`` — so everything a plan
        holds lives under one budget.  Unknown keys are ignored (the plan
        was evicted meanwhile, never retained, or the cache is disabled), as
        are charges from a ``plan`` that is no longer the one retained under
        ``key``.  Growth runs the normal LRU eviction loop and may, at the
        margin, evict the adjusted entry itself; an entry grown past the
        whole budget is dropped and counted under ``oversize_rejects``, as
        it would have been at insertion.
        """
        evicted: list[tuple[PlanKey, object, int]] = []
        dropped = None
        with self._lock:
            entry = self._plans.get(key)
            if entry is None or (plan is not None and entry[0] is not plan):
                return
            held, nbytes = entry
            new_bytes = max(0, nbytes + int(delta))
            if new_bytes > self.max_bytes:
                del self._plans[key]
                self.current_bytes -= nbytes
                self.oversize_rejects += 1
                dropped = held
            else:
                self._plans[key] = (held, new_bytes)
                self.current_bytes += new_bytes - nbytes
                while self.current_bytes > self.max_bytes and len(self._plans) > 1:
                    ekey, (eplan, evicted_bytes) = self._plans.popitem(last=False)
                    self.current_bytes -= evicted_bytes
                    self.evictions += 1
                    evicted.append((ekey, eplan, evicted_bytes))
        if dropped is not None:
            hook = getattr(dropped, "on_cache_evict", None)
            if hook is not None:
                hook()
        self._fire_evictions(evicted)

    # -- management ------------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached plan (statistics are retained).

        Eviction hooks fire for each dropped plan so side artifacts are
        released; no ``cache.evict`` trace events or eviction counts are
        recorded — clearing is an explicit management action, not budget
        pressure.
        """
        with self._lock:
            dropped = [plan for plan, _ in self._plans.values()]
            self._plans.clear()
            self.current_bytes = 0
        for plan in dropped:
            hook = getattr(plan, "on_cache_evict", None)
            if hook is not None:
                hook()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0
            self.races = self.oversize_rejects = 0
            self.build_seconds = 0.0

    def configure(
        self, *, max_bytes: int | None = None, enabled: bool | None = None
    ) -> None:
        """Adjust the byte budget and/or the opt-out flag.

        Shrinking the budget evicts immediately; disabling keeps existing
        entries resident (call :meth:`clear` to release them).
        """
        evicted: list[tuple[PlanKey, object, int]] = []
        with self._lock:
            if enabled is not None:
                self.enabled = bool(enabled)
            if max_bytes is not None:
                self.max_bytes = int(max_bytes)
                while self.current_bytes > self.max_bytes and self._plans:
                    ekey, (eplan, evicted_bytes) = self._plans.popitem(last=False)
                    self.current_bytes -= evicted_bytes
                    self.evictions += 1
                    evicted.append((ekey, eplan, evicted_bytes))
        self._fire_evictions(evicted)

    def stats(self) -> dict:
        """A JSON-able statistics snapshot."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "enabled": self.enabled,
                "entries": len(self._plans),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "races": self.races,
                "oversize_rejects": self.oversize_rejects,
                "build_seconds": self.build_seconds,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._plans


#: The process-wide cache used by ``transpose_inplace`` and friends.
_GLOBAL = PlanCache(
    max_bytes=int(os.environ.get("REPRO_PLAN_CACHE_BYTES", DEFAULT_MAX_BYTES)),
    enabled=os.environ.get("REPRO_PLAN_CACHE", "1") != "0",
)


def get_plan_cache() -> PlanCache:
    return _GLOBAL


def configure(*, max_bytes: int | None = None, enabled: bool | None = None) -> None:
    _GLOBAL.configure(max_bytes=max_bytes, enabled=enabled)


def clear() -> None:
    _GLOBAL.clear()


def stats() -> dict:
    return _GLOBAL.stats()


def charge(plan, delta: int) -> None:
    """Charge ``delta`` bytes the plan acquired to its cache entry, if any.

    A plan no cache retains (direct construction, oversize reject, disabled
    cache) has no binding and nothing to charge.  Call it outside any lock
    of the plan: the adjustment can evict plans — possibly this one — and
    eviction hooks re-enter the plan.
    """
    binding = plan.__dict__.get("_plan_cache_binding")
    if binding is None or not delta:
        return
    cache, key = binding
    cache.adjust_bytes(key, delta, plan)


# -- entry-point helpers --------------------------------------------------------
# Core imports happen inside the functions: these run strictly after package
# initialization, so the core <-> runtime import graph stays acyclic.


def get_single_plan(
    m: int, n: int, order: str, algorithm: str, dtype, *, cache: PlanCache | None = None
):
    """The (possibly cached) :class:`~repro.core.plan.TransposePlan` for one
    ``(m, n, order, algorithm, dtype)``.

    ``algorithm`` may be ``"auto"``; it is resolved through
    :func:`~repro.core.transpose.choose_algorithm` before keying.
    """
    from repro.core.plan import TransposePlan
    from repro.core.transpose import choose_algorithm

    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    key = PlanKey(m, n, order, algorithm, str(dtype))
    target = cache if cache is not None else _GLOBAL
    return target.get_or_build(
        key,
        lambda: TransposePlan(m, n, order, algorithm),
        lambda plan: plan.scratch_bytes,
    )


#: The batched entry point's lookup: the same entry, which a batch runs
#: through :meth:`~repro.core.plan.TransposePlan.execute_batch`.
get_batched_plan = get_single_plan
