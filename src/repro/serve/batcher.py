"""Shape/dtype-coalescing batcher: queue order in, batched plans out.

The paper's batched ASTA formulation (Section 5, ``repro.core.batched``)
makes the index maps shape-properties, not request-properties: every
request with the same ``(m, n, order, dtype)`` can ride through one
:class:`~repro.core.batched.BatchedTransposePlan` execution, with the
batch dimension free.  The batcher is the piece that turns an arrival
stream into those groups:

* requests drain from the :class:`~repro.serve.queue.RequestQueue` into
  per-shape **lanes**;
* a lane dispatches when it reaches ``max_batch`` tiles (a request may
  carry several client-side-batched tiles), when its oldest request has
  waited ``max_wait_s`` (bounded added latency), or immediately once the
  queue closes (shutdown flushes, never drops);
* a dispatched group of any size, one tile included, stages into one
  contiguous ``(tiles, m*n)`` buffer and runs ``batched_transpose_inplace``
  through the shape's one cached plan.

Request buffers are never mutated: results are produced in the staging
buffer, so a transient execution failure can be retried by the worker with
the inputs intact.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from time import monotonic, perf_counter

import numpy as np

from ..core.batched import batched_transpose_inplace, validate_batch_member
from ..runtime import metrics
from ..trace import spans
from ..trace.spans import TraceContext
from .queue import (
    CANCELLED,
    DONE,
    FAILED,
    DeadlineExceededError,
    Request,
    RequestQueue,
)

__all__ = ["Group", "ShapeBatcher", "BATCH_SIZE_BOUNDS"]

#: bucket bounds for the ``serve.batch_size`` value histogram (counts, not
#: latencies — powers of two up to the largest sane max_batch)
BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()


def _request_event(r: Request, name: str, **attrs) -> None:
    """Record instant ``name`` under request ``r``'s trace context, from a
    thread that may be serving another request (callers guard with
    ``if spans.tracer.enabled:``)."""
    tr = spans.tracer
    with tr.activate(TraceContext(r.trace_id, r.parent_span_id)):
        tr.event(name, **attrs)


class Group:
    """One dispatchable batch: same-shape requests claimed together."""

    __slots__ = ("key", "requests")

    def __init__(self, key: tuple, requests: list[Request]):
        self.key = key
        self.requests = requests

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def tiles(self) -> int:
        """Total matrices across the group (requests may carry several)."""
        return sum(r.tiles for r in self.requests)

    def fail_pending(self, error: BaseException) -> None:
        """Fail every request that has not reached a terminal state."""
        for r in self.requests:
            r.fail(error)

    def __repr__(self) -> str:
        m, n, order, dtype = self.key
        return (
            f"Group({m}x{n} {dtype}, k={len(self.requests)}, "
            f"tiles={self.tiles})"
        )


class ShapeBatcher:
    """Drains a :class:`RequestQueue` into same-shape groups and runs them.

    Thread-safe: any number of workers may call :meth:`next_group` /
    :meth:`execute_group` concurrently; the lanes are guarded by one lock
    and blocking waits happen against the queue, outside it.
    """

    def __init__(
        self,
        queue: RequestQueue,
        *,
        max_batch: int = 32,
        max_wait_s: float = 0.002,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.queue = queue
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self._lock = threading.Lock()
        #: shape key -> FIFO of pending requests (arrival order preserved)
        self._lanes: dict[tuple, list[Request]] = {}

    # -- lane bookkeeping ----------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests held in lanes (drained from the queue, not yet grouped)."""
        with self._lock:
            return sum(len(v) for v in self._lanes.values())

    def _add(self, request: Request) -> None:
        with self._lock:
            self._lanes.setdefault(request.shape_key, []).append(request)

    def drain_lanes(self) -> list[Request]:
        """Pop every request currently held in lanes, arrival order per lane.

        Used once every worker has died
        (``TransposeServer._check_workers``):
        nothing will dispatch these lanes, so their requests are failed
        rather than left to time out.
        """
        with self._lock:
            out = [r for lane in self._lanes.values() for r in lane]
            self._lanes.clear()
            return out

    def _pop_group(self, *, flush: bool) -> Group | None:
        """Pop a dispatchable group under the lane lock.

        Preference order: a full lane, then (or with ``flush``/timeout) the
        lane whose oldest request has waited longest.
        """
        now = monotonic()
        with self._lock:
            best_key = None
            best_age = -1.0
            for key, lane in self._lanes.items():
                if sum(r.tiles for r in lane) >= self.max_batch:
                    best_key = key
                    break
                age = now - lane[0].t_submit
                if age > best_age:
                    best_key, best_age = key, age
            if best_key is None:
                return None
            lane = self._lanes[best_key]
            ripe = (
                sum(r.tiles for r in lane) >= self.max_batch
                or flush
                or (now - lane[0].t_submit) >= self.max_wait_s
            )
            if not ripe:
                return None
            # Take whole requests until the tile budget is met (always at
            # least one, even if a single request exceeds max_batch alone).
            taken_n, tiles = 0, 0
            for r in lane:
                taken_n += 1
                tiles += r.tiles
                if tiles >= self.max_batch:
                    break
            taken = lane[:taken_n]
            del lane[:taken_n]
            if not lane:
                del self._lanes[best_key]
            return Group(best_key, taken)

    def _next_lane_ripeness(self) -> float | None:
        """Monotonic time at which the oldest lane becomes age-ripe."""
        with self._lock:
            t = None
            for lane in self._lanes.values():
                ripe_at = lane[0].t_submit + self.max_wait_s
                if t is None or ripe_at < t:
                    t = ripe_at
            return t

    # -- the drain loop ------------------------------------------------------

    def next_group(self, timeout: float = 0.1) -> Group | None:
        """Block up to ``timeout`` for the next dispatchable group.

        Returns ``None`` when nothing became ripe in time (callers loop);
        once the queue is closed, remaining lanes flush immediately
        regardless of ripeness so shutdown drains at full speed.
        """
        t_end = monotonic() + timeout
        while True:
            for r in self.queue.drain_nowait(max_items=self.max_batch):
                self._add(r)
            group = self._pop_group(flush=self.queue.closed)
            if group is not None:
                if spans.tracer.enabled:
                    m, n, _order, dtype = group.key
                    _request_event(
                        group.requests[0], "serve.coalesce", m=m, n=n,
                        dtype=dtype, requests=len(group.requests),
                        tiles=group.tiles,
                    )
                return group
            if self.queue.closed:
                # Closed and no group: lanes are empty (a closed queue
                # flushes any lane above), so only the backlog remains —
                # get() returns None instantly once it too is empty.
                item = self.queue.get(timeout=0)
                if item is None:
                    return None
                self._add(item)
                continue
            now = monotonic()
            ripe_at = self._next_lane_ripeness()
            wait_until = t_end if ripe_at is None else min(ripe_at, t_end)
            if wait_until <= now:
                if ripe_at is not None and ripe_at <= now:
                    continue  # became age-ripe since _pop_group looked
                return None
            item = self.queue.get(timeout=wait_until - now)
            if item is not None:
                self._add(item)

    # -- execution -----------------------------------------------------------

    def execute_group(self, group: Group) -> int:
        """Claim, validate and execute one group; returns requests served.

        Expired requests fail with :class:`DeadlineExceededError`, cancelled
        ones are skipped, and per-request buffer problems (contiguity /
        dtype mismatch) fail that request alone with the
        :func:`~repro.core.batched.validate_batch_member` error.  Raises
        only on execution failure — with every live request still
        unfulfilled and every input buffer intact, so the caller may retry.
        """
        m, n, order, dtype_str = group.key
        dtype = np.dtype(dtype_str)
        reg = metrics.registry
        tr = spans.tracer
        live: list[Request] = []
        for r in group.requests:
            if r.state in (DONE, FAILED, CANCELLED):
                # Terminal from a previous attempt of this group (worker
                # retry path): its counter was recorded on the first
                # transition — re-counting would skew the serving metrics.
                continue
            if r.expired:
                r.fail(DeadlineExceededError(
                    f"request {r.id} missed its deadline while queued"
                ))
                reg.inc("serve.expired")
                if tr.enabled:
                    _request_event(r, "serve.expired", request=r.id)
                continue
            if not r.claim():  # cancelled (or already terminal): skip
                reg.inc("serve.skipped_cancelled")
                continue
            try:
                validate_batch_member(
                    r.buf, m, n, dtype, count=r.tiles, require_writeable=False
                )
            except ValueError as exc:
                r.fail(exc)
                reg.inc("serve.rejected_invalid")
                if tr.enabled:
                    _request_event(
                        r, "serve.reject", request=r.id, reason="invalid",
                        error=str(exc),
                    )
                continue
            live.append(r)
        if not live:
            return 0

        k = len(live)
        tiles = sum(r.tiles for r in live)
        # The group executes under the *lead* (first-queued) request's trace
        # context so its spans parent under that request's serve.request
        # span; every coalesced request's id rides along in the span's
        # trace_ids attribute for per-request lookup (filter_trace).
        trace_id = live[0].trace_id
        if tr.enabled:
            ctx_cm = tr.activate(TraceContext(trace_id, live[0].parent_span_id))
            trace_ids = [r.trace_id for r in live]
        else:
            ctx_cm = _NULL_CM
            trace_ids = ()
        t0 = perf_counter()
        with ctx_cm:
            if tr.enabled:
                tr.event("serve.dispatch", m=m, n=n, requests=k, tiles=tiles)
            with tr.span(
                "serve.execute.batch", m=m, n=n, batch=tiles,
                dtype=dtype_str, requests=k, trace_ids=trace_ids,
            ) if tr.enabled else _NULL_CM:
                self._execute_batch(live, m, n, order, dtype)
            reg.inc("serve.batches")
        dt = perf_counter() - t0
        if reg.enabled:
            reg.observe("serve.execute", dt)
            reg.observe_value("serve.batch_size", tiles, BATCH_SIZE_BOUNDS)
            now = monotonic()
            for r in live:
                reg.observe("serve.queue_wait", r.t_claim - r.t_submit)
                reg.observe("serve.e2e", now - r.t_submit)
            reg.inc("serve.completed", k)
        return k

    @staticmethod
    def _execute_batch(
        live: list[Request], m: int, n: int, order: str, dtype: np.dtype
    ) -> None:
        mn = m * n
        tiles = sum(r.tiles for r in live)
        staging = np.empty((tiles, mn), dtype=dtype)
        off = 0
        for r in live:
            staging[off:off + r.tiles] = r.buf.reshape(r.tiles, mn)
            off += r.tiles
        batched_transpose_inplace(staging, m, n, order)
        # Fulfill only after the whole batch succeeded: each result is a
        # row (or row-span) view of the shared staging buffer — no
        # copy-out pass.
        off = 0
        for r in live:
            if r.tiles == 1:
                r.fulfill(staging[off])
            else:
                r.fulfill(staging[off:off + r.tiles].reshape(-1))
            off += r.tiles
