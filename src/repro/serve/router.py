"""Sharded serving tier: consistent-hash shape-affinity routing.

The paper's decomposition makes every transposition embarrassingly
parallel *within* an operation; this module applies the same move one
level up, across operations — the way the FPGA exemplar scales throughput
by feeding more independent memory banks.  A :class:`ShardRouter` fronts
``N`` independent serve shards, each a complete
queue + batcher + worker-pool stack
(:class:`~repro.serve.queue.RequestQueue`,
:class:`~repro.serve.batcher.ShapeBatcher`,
:class:`~repro.serve.workers.WorkerPool`), and routes every request by
consistent-hashing its coalescing identity ``(m, n, order, dtype)`` onto
the ring:

* **Shape affinity.**  All requests for one shape land on one shard, so
  that shard's slice of the process-wide plan/kernel cache stays hot for
  its shape slice and coalesced batches never fragment across shards —
  the router preserves exactly the batching invariant the batcher exists
  to exploit.
* **Stability.**  The ring hashes each shard through ``VNODES`` virtual
  points, so adding or removing one shard of ``N`` remaps only ``~1/N``
  of the key space; every other shape keeps its warm shard.
* **Failover without request loss.**  A shard whose workers have all died
  is *evicted*: removed from the ring, its queue closed, and everything
  it still held (queue backlog + batcher lanes) resubmitted to the
  surviving shards.  Health checks are driven by the ``/healthz`` and
  ``/statusz`` endpoints — scraping the server is what trips eviction.
* **Per-tenant quotas + weighted admission.**  An optional token bucket
  per tenant (``X-Repro-Tenant``), refilled at
  ``tenant_rate x weight(tenant)`` matrices/s, rejects over-quota
  traffic with a *computed* retry delay (`QuotaExceededError.retry_after_s`)
  before it can crowd a shard's queue; a full shard queue likewise
  rejects with a backoff derived from that queue's depth and recent
  drain rate (:func:`~repro.serve.queue.compute_retry_after`).

Everything here is stdlib + the existing serve primitives; the HTTP front
end (:mod:`repro.serve.server`) owns exactly one router and delegates
submit/health/shutdown to it.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from time import monotonic

from ..runtime import metrics
from ..trace import spans
from ..trace.events import event_log
from .batcher import ShapeBatcher
from .queue import QueueClosedError, QueueFullError, Request, RequestQueue
from .workers import WorkerPool

__all__ = [
    "QuotaExceededError",
    "TokenBucket",
    "TenantQuotas",
    "HashRing",
    "Shard",
    "ShardRouter",
    "VNODES",
]

#: virtual points per shard on the hash ring.  128 keeps the key-space
#: split within a few percent of uniform for any realistic shard count
#: while the ring stays small enough to rebuild on every membership change.
VNODES = 128


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


def _hash64(data: str) -> int:
    """Stable 64-bit point for ring placement and key lookup."""
    return int.from_bytes(
        hashlib.blake2b(data.encode(), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring over shard ids with virtual nodes.

    Membership changes move only the keys whose arc changed hands:
    adding one shard to ``N`` claims ``~1/(N+1)`` of the space, removing
    one releases exactly its own arcs.  Lookup is a binary search.
    """

    def __init__(self, shard_ids=(), *, vnodes: int = VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._points: list[tuple[int, int]] = []  # (hash, shard_id), sorted
        self._hashes: list[int] = []
        self._members: set[int] = set()
        for sid in shard_ids:
            self.add(sid)

    def __len__(self) -> int:
        return len(self._members)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def add(self, shard_id: int) -> None:
        if shard_id in self._members:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._members.add(shard_id)
        for v in range(self.vnodes):
            self._points.append((_hash64(f"shard-{shard_id}:vnode-{v}"), shard_id))
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def remove(self, shard_id: int) -> None:
        if shard_id not in self._members:
            raise ValueError(f"shard {shard_id} not on the ring")
        self._members.discard(shard_id)
        self._points = [(h, s) for h, s in self._points if s != shard_id]
        self._hashes = [h for h, _ in self._points]

    def lookup(self, key: tuple) -> int:
        """Shard id owning ``key`` (the first ring point at or after the
        key's hash, wrapping)."""
        if not self._points:
            raise LookupError("hash ring is empty (no shards)")
        h = _hash64(repr(key))
        i = bisect_right(self._hashes, h)
        if i == len(self._points):
            i = 0
        return self._points[i][1]


class Shard:
    """One independent serve stack: queue + batcher + worker pool.

    A shard is the unit of affinity (the router sends a whole shape slice
    here), of health (its workers live or die together) and of eviction.
    """

    def __init__(
        self,
        sid: int,
        *,
        queue_size: int,
        max_batch: int,
        max_wait_s: float,
        workers: int,
    ):
        self.sid = sid
        self.queue = RequestQueue(maxsize=queue_size)
        self.batcher = ShapeBatcher(
            self.queue, max_batch=max_batch, max_wait_s=max_wait_s
        )
        self.pool = WorkerPool(
            self.batcher,
            workers,
            name_prefix=f"repro-serve-s{sid}-worker",
        )
        self.started = False
        #: routing counters: requests sent here, and how many hit a shape
        #: this shard had already seen (the plan/kernel-cache affinity
        #: proxy the loadtest gates on)
        self.routed = 0
        self.affinity_hits = 0
        self.shapes_seen: set[tuple] = set()

    @property
    def healthy(self) -> bool:
        """A started shard is healthy while any worker thread is alive."""
        if not self.started:
            return True
        return self.pool.alive > 0

    @property
    def affinity_rate(self) -> float:
        return self.affinity_hits / self.routed if self.routed else 0.0

    def start(self) -> "Shard":
        self.pool.start()
        self.started = True
        return self

    def stats(self) -> dict:
        return {
            "sid": self.sid,
            "depth": self.queue.depth,
            "maxsize": self.queue.maxsize,
            "closed": self.queue.closed,
            "pending": self.batcher.pending,
            "workers_alive": self.pool.alive,
            "healthy": self.healthy,
            "routed": self.routed,
            "affinity_hits": self.affinity_hits,
            "affinity_rate": round(self.affinity_rate, 4),
            "shapes": len(self.shapes_seen),
            "rejected_full": self.queue.rejected_full,
            "drain_rate": round(self.queue.drain_rate(), 3),
        }


class ShardRouter:
    """Consistent-hash front end over ``N`` :class:`Shard` stacks.

    The router owns shard lifecycle (start/evict/shutdown), per-tenant
    quotas, and the routing decision; it does **not** own HTTP or request
    accounting — that stays in :class:`~repro.serve.server.TransposeServer`.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        queue_size: int = 512,
        max_batch: int = 32,
        max_wait_s: float = 0.002,
        workers: int = 2,
        tenant_rate: float | None = None,
        tenant_burst_s: float = 2.0,
        tenant_weights: dict[str, float] | None = None,
        vnodes: int = VNODES,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = int(n_shards)
        # Total queue capacity stays ~queue_size regardless of the shard
        # count, so sharding never silently multiplies admitted backlog.
        per_shard_queue = max(1, queue_size // self.n_shards)
        self._lock = threading.Lock()
        self.shards: dict[int, Shard] = {
            sid: Shard(
                sid,
                queue_size=per_shard_queue,
                max_batch=max_batch,
                max_wait_s=max_wait_s,
                workers=workers,
            )
            for sid in range(self.n_shards)
        }
        #: shards removed by eviction, kept for lifetime counters
        self.evicted: dict[int, Shard] = {}
        self.ring = HashRing(self.shards, vnodes=vnodes)
        self.quotas = TenantQuotas(
            tenant_rate, burst_s=tenant_burst_s, weights=tenant_weights
        )
        #: requests moved off a dead shard by failover (lifetime)
        self.failover_resubmitted = 0
        self.failover_failed = 0

    # -- routing -------------------------------------------------------------

    def shard_for_key(self, key: tuple) -> int:
        """Shard id the ring assigns to a coalescing key
        ``(m, n, order, dtype)`` — exposed for tests and workload tools."""
        with self._lock:
            return self.ring.lookup(key)

    def submit(self, request: Request, *, tenant: str = "") -> tuple[int, int]:
        """Admit ``request``: quota check, ring lookup, shard enqueue.

        Returns ``(shard_id, admit_depth)`` where ``admit_depth`` is the
        shard queue's depth observed atomically at admission (including
        this request).  Raises :class:`QuotaExceededError` (computed
        backoff), :class:`~repro.serve.queue.QueueFullError` (annotated
        with ``retry_after_s`` from the target shard's depth and drain
        rate) or :class:`~repro.serve.queue.QueueClosedError`.
        """
        # Quota first: over-quota traffic must not reach (and fill) a queue.
        self.quotas.admit(tenant, float(request.tiles))
        key = request.shape_key
        with self._lock:
            sid = self.ring.lookup(key)
            shard = self.shards[sid]
            shard.routed += 1
            if key in shard.shapes_seen:
                shard.affinity_hits += 1
            else:
                shard.shapes_seen.add(key)
        tr = spans.tracer
        if tr.enabled:
            # The route span parents under the caller's serve.request span
            # (per-thread nesting) and everything downstream — the shard's
            # serve.group and execute spans — re-parents under it, so the
            # trace tree reads request -> route -> shard.
            with tr.span("serve.route", shard=sid, tenant=tenant) as sp:
                request.parent_span_id = sp.span_id
                self._submit_to(shard, request)
        else:
            self._submit_to(shard, request)
        reg = metrics.registry
        if reg.enabled:
            reg.inc(f"serve.shard{sid}.routed")
        return sid, request.admit_depth

    def _submit_to(self, shard: Shard, request: Request) -> None:
        try:
            shard.queue.submit(request)
        except QueueFullError as exc:
            # Annotate with the computed backoff so the HTTP layer can send
            # an honest Retry-After without reaching into the shard.
            exc.retry_after_s = shard.queue.retry_after_s()
            raise

    # -- health + failover ---------------------------------------------------

    def check_health(self) -> list[int]:
        """Evict every started-but-dead shard; returns the evicted ids.

        Called from the ``/healthz`` and ``/statusz`` handlers — health
        scraping is what drives eviction, no dedicated thread needed.
        """
        with self._lock:
            dead = [s.sid for s in self.shards.values() if not s.healthy]
        return [sid for sid in dead if self.evict(sid)]

    def evict(self, sid: int) -> bool:
        """Remove shard ``sid`` from the ring and fail over its requests.

        Everything the shard still held — queue backlog and batcher lanes —
        is resubmitted through the ring to the surviving shards, so an
        eviction loses no admitted request.  Returns False if ``sid`` was
        already gone (concurrent eviction).
        """
        with self._lock:
            shard = self.shards.pop(sid, None)
            if shard is None:
                return False
            self.ring.remove(sid)
            self.evicted[sid] = shard
        shard.queue.close()
        stranded = shard.queue.drain_nowait() + shard.batcher.drain_lanes()
        shard.pool.shutdown(timeout=1.0)
        moved = failed = 0
        for r in stranded:
            try:
                with self._lock:
                    new_sid = self.ring.lookup(r.shape_key)
                    self.shards[new_sid].queue.submit(r)
                moved += 1
            except (QueueFullError, QueueClosedError, LookupError) as exc:
                # No healthy home: unblock the waiter with the real error
                # rather than letting it time out.
                r.fail(exc)
                failed += 1
        with self._lock:
            self.failover_resubmitted += moved
            self.failover_failed += failed
        reg = metrics.registry
        if reg.enabled:
            reg.inc("serve.shard_evictions")
            if moved:
                reg.inc("serve.failover_resubmitted", moved)
            for gauge in ("queue_depth", "pending", "workers"):
                reg.remove_gauge(f"serve.shard{sid}.{gauge}")
        if event_log.enabled:
            event_log.emit(
                "shard_down", trace_id="", shard=sid,
                resubmitted=moved, failed=failed,
            )
        return True

    # -- aggregates (the server's health/statusz/metrics views) --------------

    @property
    def closed(self) -> bool:
        """True once every live shard's queue refuses new submits."""
        with self._lock:
            live = list(self.shards.values())
        return all(s.queue.closed for s in live) if live else True

    @property
    def depth(self) -> int:
        with self._lock:
            live = list(self.shards.values())
        return sum(s.queue.depth for s in live)

    def _all(self) -> list[Shard]:
        with self._lock:
            return list(self.shards.values()) + list(self.evicted.values())

    @property
    def rejected_full(self) -> int:
        return sum(s.queue.rejected_full for s in self._all())

    @property
    def rejected_closed(self) -> int:
        return sum(s.queue.rejected_closed for s in self._all())

    @property
    def workers_alive(self) -> int:
        with self._lock:
            live = list(self.shards.values())
        return sum(s.pool.alive for s in live)

    @property
    def pending(self) -> int:
        with self._lock:
            live = list(self.shards.values())
        return sum(s.batcher.pending for s in live)

    def queue_stats(self) -> dict:
        """Aggregate of every live shard's queue (same keys as
        ``RequestQueue.stats`` so ``/statusz`` consumers see one queue)."""
        with self._lock:
            live = list(self.shards.values())
        per = [s.queue.stats() for s in live]
        return {
            "depth": sum(p["depth"] for p in per),
            "maxsize": sum(p["maxsize"] for p in per),
            "closed": all(p["closed"] for p in per) if per else True,
            "submitted": sum(p["submitted"] for p in per),
            "rejected_full": self.rejected_full,
            "rejected_closed": self.rejected_closed,
        }

    def stats(self) -> dict:
        """The router section of ``/statusz``."""
        with self._lock:
            live = list(self.shards.values())
            evicted = sorted(self.evicted)
        return {
            "shards": len(live),
            "vnodes": self.ring.vnodes,
            "evicted": evicted,
            "failover_resubmitted": self.failover_resubmitted,
            "failover_failed": self.failover_failed,
            "quotas": self.quotas.stats(),
            "per_shard": [s.stats() for s in sorted(live, key=lambda s: s.sid)],
        }

    def publish_gauges(self) -> None:
        """Refresh per-shard gauges in the metrics registry."""
        reg = metrics.registry
        if not reg.enabled:
            return
        with self._lock:
            live = list(self.shards.values())
        reg.set_gauge("serve.shards", len(live))
        for s in live:
            reg.set_gauge(f"serve.shard{s.sid}.queue_depth", s.queue.depth)
            reg.set_gauge(f"serve.shard{s.sid}.pending", s.batcher.pending)
            reg.set_gauge(f"serve.shard{s.sid}.workers", s.pool.alive)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardRouter":
        with self._lock:
            live = list(self.shards.values())
        for s in live:
            s.start()
        return self

    def close(self) -> None:
        with self._lock:
            live = list(self.shards.values())
        for s in live:
            s.queue.close()

    def shutdown(self, timeout: float = 30.0) -> dict:
        """Drain every live shard; merged pool summary (counters summed,
        ``drained`` is the conjunction)."""
        with self._lock:
            live = list(self.shards.values())
        t_end = monotonic() + timeout
        summaries = [
            s.pool.shutdown(timeout=max(t_end - monotonic(), 0.1)) for s in live
        ]
        merged = {
            "requests_served": 0,
            "groups_executed": 0,
            "retries": 0,
            "group_failures": 0,
            "drained": True,
        }
        for summary in summaries:
            merged["requests_served"] += summary["requests_served"]
            merged["groups_executed"] += summary["groups_executed"]
            merged["retries"] += summary["retries"]
            merged["group_failures"] += summary["group_failures"]
            merged["drained"] &= summary["drained"]
        merged["shards"] = len(live)
        merged["shards_evicted"] = len(self.evicted)
        return merged
