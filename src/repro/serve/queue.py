"""Bounded request queue with admission control, deadlines and cancellation.

The serving layer is open-loop: clients submit work at whatever rate they
like, so the queue — not the workers — is where overload policy lives.
Three rules, all enforced here:

* **Admission control.**  The queue holds at most ``maxsize`` requests;
  a submit against a full queue raises :class:`QueueFullError` immediately
  (the HTTP front end maps it to ``429 Too Many Requests``) instead of
  letting latency grow without bound.
* **Deadlines.**  A request may carry a deadline (:func:`time.monotonic`
  scale).  Expired requests are never executed — the batcher fails them
  with :class:`DeadlineExceededError` at claim time, so a backed-up queue
  sheds exactly the work nobody is waiting for anymore.
* **Cancellation.**  A pending request can be cancelled by its submitter;
  claim and cancel race through one per-request state machine
  (``PENDING -> CLAIMED -> terminal``), so a request is executed or
  cancelled, never both.

The per-tenant quotas live here too: :class:`TenantQuotas` keeps one
token bucket per tenant, refilled at ``rate x weight(tenant)``
matrices/s.  The server checks them *before* :meth:`RequestQueue.submit`,
so over-quota traffic never takes queue space, and the reject carries
the computed time until the tenant's bucket recovers.

The queue itself stores requests in arrival order and knows nothing about
shapes; coalescing is :mod:`repro.serve.batcher`'s job.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from time import monotonic
from typing import Any

import numpy as np

__all__ = [
    "QueueFullError",
    "QueueClosedError",
    "WorkersDeadError",
    "QuotaExceededError",
    "TokenBucket",
    "TenantQuotas",
    "DeadlineExceededError",
    "RequestCancelledError",
    "Request",
    "RequestQueue",
    "compute_retry_after",
    "PENDING",
    "CLAIMED",
    "DONE",
    "FAILED",
    "CANCELLED",
    "RETRY_AFTER_MIN_S",
    "RETRY_AFTER_MAX_S",
]

#: clamp range for the computed 429 Retry-After (seconds).  The floor keeps
#: clients from hammering a momentarily-full queue; the ceiling keeps a
#: stalled drain from telling clients to go away for minutes.
RETRY_AFTER_MIN_S = 1.0
RETRY_AFTER_MAX_S = 30.0


def compute_retry_after(
    depth: int,
    maxsize: int,
    drain_rate: float,
    *,
    lo: float = RETRY_AFTER_MIN_S,
    hi: float = RETRY_AFTER_MAX_S,
) -> float:
    """Seconds a 429'd client should back off, from live queue state.

    With a measured drain rate the estimate is literal queueing theory:
    ``depth / drain_rate`` is how long the current backlog takes to clear.
    With no drain observed yet (cold start, stalled workers) fall back to
    scaling the clamp range by queue fullness — deeper still means longer.
    Monotonic in ``depth`` either way, clamped to ``[lo, hi]``.
    """
    if drain_rate > 0.0:
        estimate = depth / drain_rate
    else:
        estimate = lo + (hi - lo) * (depth / maxsize if maxsize else 1.0)
    return min(max(estimate, lo), hi)


class QueueFullError(RuntimeError):
    """Admission reject: the queue is at capacity (HTTP 429).

    ``retry_after_s`` is the backoff computed from the rejecting queue's
    depth and drain rate (:func:`compute_retry_after`).
    """

    def __init__(self, message: str, *, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueClosedError(RuntimeError):
    """Submit after shutdown began (HTTP 503)."""


class WorkersDeadError(RuntimeError):
    """Every worker thread has exited, so a queued request can never run
    (HTTP 503)."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before execution (HTTP 504)."""


class RequestCancelledError(RuntimeError):
    """The submitter cancelled the request before execution."""


#: request lifecycle states
PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_ids = itertools.count(1)


class Request:
    """One transposition request travelling through the serving layer.

    ``buf`` holds ``tiles`` stacked ``m x n`` matrices (``tiles * m * n``
    elements; ``tiles`` is client-side micro-batching — one HTTP round
    trip carrying several same-shape tiles).  It is **never mutated** —
    the worker fulfills the request with a freshly produced transposed
    array (staged through the batch buffer), which keeps a retry after a
    transient failure safe: the input is still intact.

    The submitter blocks in :meth:`wait`; the worker finishes the request
    through exactly one of :meth:`fulfill` / :meth:`fail`.
    """

    __slots__ = (
        "id", "buf", "m", "n", "order", "tiles", "deadline", "t_submit",
        "t_claim", "t_done", "result", "error", "_state", "_lock", "_event",
        "trace_id", "parent_span_id", "admit_depth",
    )

    def __init__(
        self,
        buf: np.ndarray,
        m: int,
        n: int,
        order: str = "C",
        *,
        tiles: int = 1,
        deadline: float | None = None,
        trace_id: str = "",
    ):
        if tiles < 1:
            raise ValueError(f"tiles must be >= 1, got {tiles}")
        self.id = next(_ids)
        self.buf = buf
        self.m = int(m)
        self.n = int(n)
        self.order = order
        self.tiles = int(tiles)
        self.deadline = deadline
        #: distributed-tracing identity: the request's trace id (minted or
        #: propagated by the HTTP front end) and the ``serve.request`` span
        #: it should parent under.  Empty/zero when tracing is off.
        self.trace_id = trace_id
        self.parent_span_id = 0
        #: queue depth observed at admission, *including this request*,
        #: recorded atomically inside RequestQueue.submit.  A post-submit
        #: re-read of ``queue.depth`` races with concurrent drains and
        #: under-reports backpressure; the ``serve.admit`` instant reports it.
        self.admit_depth = 0
        self.t_submit = 0.0
        self.t_claim = 0.0
        self.t_done = 0.0
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self._state = PENDING
        self._lock = threading.Lock()
        self._event = threading.Event()

    # -- identity ------------------------------------------------------------

    @property
    def shape_key(self) -> tuple[int, int, str, str]:
        """The coalescing identity: same key means same batched plan."""
        return (self.m, self.n, self.order, str(self.buf.dtype))

    @property
    def state(self) -> str:
        return self._state

    @property
    def expired(self) -> bool:
        return self.deadline is not None and monotonic() > self.deadline

    # -- worker side ---------------------------------------------------------

    def claim(self) -> bool:
        """Move PENDING -> CLAIMED; False if cancelled first (or terminal).

        Claiming again while already CLAIMED succeeds — a worker retrying a
        transient group failure re-claims the same requests.
        """
        with self._lock:
            if self._state == PENDING:
                self._state = CLAIMED
                self.t_claim = monotonic()
                return True
            return self._state == CLAIMED

    def fulfill(self, result: np.ndarray) -> None:
        with self._lock:
            if self._state in (DONE, FAILED, CANCELLED):
                return
            self._state = DONE
            self.result = result
            self.t_done = monotonic()
        self._event.set()

    def fail(self, error: BaseException) -> None:
        with self._lock:
            if self._state in (DONE, FAILED, CANCELLED):
                return
            self._state = FAILED
            self.error = error
            self.t_done = monotonic()
        self._event.set()

    # -- submitter side ------------------------------------------------------

    def cancel(self) -> bool:
        """Cancel a still-pending request; False once claimed or finished."""
        with self._lock:
            if self._state != PENDING:
                return False
            self._state = CANCELLED
            self.error = RequestCancelledError(f"request {self.id} cancelled")
            self.t_done = monotonic()
        self._event.set()
        return True

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> np.ndarray:
        """Block until terminal; return the transposed array or raise."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"request {self.id} still in flight")
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result

    def __repr__(self) -> str:
        return (
            f"Request(id={self.id}, {self.m}x{self.n} {self.buf.dtype}, "
            f"state={self._state!r})"
        )


class RequestQueue:
    """A bounded FIFO of :class:`Request` with admission control.

    ``submit`` never blocks: a full queue is a client problem (back off and
    retry), not a reason to hold the connection hostage.  Consumers use
    :meth:`get` / :meth:`drain_nowait`; :meth:`close` starts shutdown —
    further submits raise, and ``get`` returns ``None`` once the backlog is
    empty so workers can exit their drain loop.
    """

    #: sliding window (seconds) over which the drain rate is measured
    DRAIN_WINDOW_S = 10.0

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError("queue maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._items: list[Request] = []
        self._cv = threading.Condition()
        self._closed = False
        #: monotonic timestamps of recent pops, for drain_rate(); bounded
        #: so a long-lived queue never grows it without limit
        self._pops: deque[float] = deque(maxlen=4096)
        #: lifetime counters (exported through serve metrics)
        self.submitted = 0
        self.rejected_full = 0
        self.rejected_closed = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        with self._cv:
            return len(self._items)

    def submit(self, request: Request) -> Request:
        """Admit ``request`` or raise (:class:`QueueFullError` /
        :class:`QueueClosedError`).  Returns the request for chaining."""
        with self._cv:
            if self._closed:
                self.rejected_closed += 1
                raise QueueClosedError("queue is closed (server shutting down)")
            if len(self._items) >= self.maxsize:
                self.rejected_full += 1
                raise QueueFullError(
                    f"queue full ({self.maxsize} requests); retry later",
                    retry_after_s=self.retry_after_s(),
                )
            request.t_submit = monotonic()
            self._items.append(request)
            # Recorded here, under the lock, so the value is exact even
            # when a consumer pops the request before the submitter's next
            # statement runs (the ``serve.admit`` race this field exists for).
            request.admit_depth = len(self._items)
            self.submitted += 1
            self._cv.notify()
        return request

    def get(self, timeout: float | None = None) -> Request | None:
        """Pop the oldest request, waiting up to ``timeout``.

        Returns ``None`` on timeout, or immediately once the queue is both
        closed and empty (the drain-complete signal).
        """
        deadline = None if timeout is None else monotonic() + timeout
        with self._cv:
            while not self._items:
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cv.wait(remaining)
            item = self._items.pop(0)
            self._pops.append(monotonic())
            return item

    def drain_nowait(self, max_items: int | None = None) -> list[Request]:
        """Pop everything currently queued (up to ``max_items``), no wait."""
        with self._cv:
            if max_items is None or max_items >= len(self._items):
                out, self._items = self._items, []
            else:
                out = self._items[:max_items]
                del self._items[:max_items]
            if out:
                now = monotonic()
                self._pops.extend([now] * len(out))
            return out

    # -- backpressure estimation ---------------------------------------------

    def drain_rate(self, now: float | None = None) -> float:
        """Requests consumed per second over the recent sliding window.

        0.0 until the first pop lands inside the window — callers treat
        that as "no drain observed" and fall back to depth-proportional
        backoff (:func:`compute_retry_after`).
        """
        ts = monotonic() if now is None else now
        cutoff = ts - self.DRAIN_WINDOW_S
        with self._cv:
            recent = sum(1 for t in self._pops if t >= cutoff)
        return recent / self.DRAIN_WINDOW_S

    def retry_after_s(self, now: float | None = None) -> float:
        """Computed 429 backoff for this queue's current state."""
        return compute_retry_after(self.depth, self.maxsize, self.drain_rate(now))

    def close(self) -> None:
        """Refuse new submits; wake every waiting consumer.

        Queued requests stay queued — shutdown *drains* them ("drain, don't
        drop"); :class:`~repro.serve.workers.WorkerPool` keeps consuming
        until :meth:`get` returns ``None``.
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    def stats(self) -> dict[str, Any]:
        with self._cv:
            return {
                "depth": len(self._items),
                "maxsize": self.maxsize,
                "closed": self._closed,
                "submitted": self.submitted,
                "rejected_full": self.rejected_full,
                "rejected_closed": self.rejected_closed,
            }

    def __len__(self) -> int:
        return self.depth


class QuotaExceededError(RuntimeError):
    """Per-tenant admission reject (HTTP 429, ``kind="quota"``).

    ``retry_after_s`` is the computed time until the tenant's token bucket
    holds enough tokens for the rejected request — the honest backoff, not
    a constant.
    """

    def __init__(self, message: str, *, tenant: str, retry_after_s: float):
        super().__init__(message)
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` capacity.

    Not thread-safe on its own — :class:`TenantQuotas` serializes access.
    """

    __slots__ = ("rate", "burst", "tokens", "t_last")

    def __init__(self, rate: float, burst: float, now: float | None = None):
        if rate <= 0:
            raise ValueError("token rate must be positive")
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self.tokens = self.burst
        self.t_last = monotonic() if now is None else now

    def take(self, cost: float, now: float | None = None) -> float:
        """Try to spend ``cost`` tokens.  Returns 0.0 on success, else the
        seconds until the bucket will hold ``cost`` tokens (nothing is
        spent on failure)."""
        ts = monotonic() if now is None else now
        self.tokens = min(self.burst, self.tokens + (ts - self.t_last) * self.rate)
        self.t_last = ts
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate


class TenantQuotas:
    """Weighted per-tenant token buckets with lazy creation.

    ``rate`` is matrices/s for a weight-1.0 tenant; a tenant's bucket
    refills at ``rate x weight`` (weights default to 1.0), which is the
    weighted-admission policy: capacity shares follow configured weights,
    and the 429 a tenant sees when over its share carries the computed
    time until its own bucket recovers.  ``rate=None`` disables quotas.
    """

    def __init__(
        self,
        rate: float | None = None,
        *,
        burst_s: float = 2.0,
        weights: dict[str, float] | None = None,
    ):
        self.rate = None if rate is None else float(rate)
        if self.rate is not None and self.rate <= 0:
            raise ValueError("tenant rate must be positive (or None to disable)")
        #: burst capacity expressed in seconds of refill
        self.burst_s = float(burst_s)
        self.weights = dict(weights or {})
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        #: lifetime admission-reject count per tenant
        self.rejected: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self.rate is not None

    def weight(self, tenant: str) -> float:
        return float(self.weights.get(tenant, 1.0))

    def admit(self, tenant: str, cost: float, now: float | None = None) -> None:
        """Spend ``cost`` tokens from ``tenant``'s bucket or raise
        :class:`QuotaExceededError` with the computed backoff."""
        if self.rate is None:
            return
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                tenant_rate = self.rate * self.weight(tenant)
                bucket = self._buckets[tenant] = TokenBucket(
                    tenant_rate, tenant_rate * self.burst_s, now
                )
            wait = bucket.take(cost, now)
            if wait > 0.0:
                self.rejected[tenant] = self.rejected.get(tenant, 0) + 1
                raise QuotaExceededError(
                    f"tenant {tenant or '<default>'} over quota "
                    f"({bucket.rate:.1f} matrices/s); retry in {wait:.2f}s",
                    tenant=tenant,
                    retry_after_s=wait,
                )

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": self.rate is not None,
                "rate": self.rate,
                "burst_s": self.burst_s,
                "tenants": {
                    t: {
                        "rate": b.rate,
                        "tokens": round(b.tokens, 3),
                        "rejected": self.rejected.get(t, 0),
                    }
                    for t, b in self._buckets.items()
                },
            }
