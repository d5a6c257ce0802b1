"""Request lifecycle and bounded-queue admission control."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve.queue import (
    CANCELLED,
    CLAIMED,
    DONE,
    FAILED,
    PENDING,
    QueueClosedError,
    QueueFullError,
    QuotaExceededError,
    Request,
    RequestQueue,
    TenantQuotas,
    TokenBucket,
)


def _req(m=3, n=4, tiles=1, **kw):
    return Request(np.arange(tiles * m * n, dtype=np.float64), m, n,
                   tiles=tiles, **kw)


class TestRequestLifecycle:
    def test_initial_state(self):
        r = _req()
        assert r.state == PENDING
        assert not r.done()
        assert r.shape_key == (3, 4, "C", "float64")

    def test_claim_then_fulfill(self):
        r = _req()
        assert r.claim()
        assert r.state == CLAIMED
        out = np.arange(12.0)
        r.fulfill(out)
        assert r.state == DONE
        assert r.wait(timeout=0) is out

    def test_claim_is_idempotent_while_claimed(self):
        # A worker retrying a transient failure re-claims the same request.
        r = _req()
        assert r.claim()
        assert r.claim()

    def test_cancel_beats_claim(self):
        r = _req()
        assert r.cancel()
        assert r.state == CANCELLED
        assert not r.claim()
        with pytest.raises(Exception, match="cancelled"):
            r.wait(timeout=0)

    def test_cancel_after_claim_fails(self):
        r = _req()
        r.claim()
        assert not r.cancel()
        assert r.state == CLAIMED

    def test_fail_delivers_error_to_waiter(self):
        r = _req()
        r.claim()
        r.fail(ValueError("boom"))
        assert r.state == FAILED
        with pytest.raises(ValueError, match="boom"):
            r.wait(timeout=0)

    def test_terminal_states_are_sticky(self):
        r = _req()
        r.claim()
        r.fulfill(np.zeros(12))
        r.fail(ValueError("late"))
        assert r.state == DONE
        assert r.error is None

    def test_wait_timeout_raises(self):
        r = _req()
        with pytest.raises(TimeoutError):
            r.wait(timeout=0.01)

    def test_wait_unblocks_across_threads(self):
        r = _req()
        result = np.arange(12.0)

        def worker():
            r.claim()
            r.fulfill(result)

        t = threading.Thread(target=worker)
        t.start()
        assert r.wait(timeout=5) is result
        t.join()

    def test_deadline_expiry(self):
        from time import monotonic

        assert not _req().expired
        assert _req(deadline=monotonic() - 0.001).expired
        assert not _req(deadline=monotonic() + 60).expired

    def test_tiles_validation(self):
        with pytest.raises(ValueError, match="tiles"):
            _req(tiles=0)
        assert _req(tiles=3).tiles == 3


class TestRequestQueue:
    def test_fifo_order(self):
        q = RequestQueue(maxsize=8)
        reqs = [_req() for _ in range(3)]
        for r in reqs:
            q.submit(r)
        assert [q.get(timeout=0) for _ in range(3)] == reqs

    def test_admission_reject_when_full(self):
        q = RequestQueue(maxsize=2)
        q.submit(_req())
        q.submit(_req())
        with pytest.raises(QueueFullError):
            q.submit(_req())
        assert q.rejected_full == 1
        assert q.depth == 2

    def test_submit_after_close_raises(self):
        q = RequestQueue(maxsize=2)
        q.close()
        with pytest.raises(QueueClosedError):
            q.submit(_req())
        assert q.rejected_closed == 1

    def test_close_drains_backlog_then_signals_empty(self):
        # "Drain, don't drop": queued requests survive close().
        q = RequestQueue(maxsize=4)
        r = q.submit(_req())
        q.close()
        assert q.get(timeout=0) is r
        assert q.get(timeout=0) is None

    def test_get_timeout_returns_none(self):
        q = RequestQueue(maxsize=2)
        assert q.get(timeout=0.01) is None

    def test_get_wakes_on_submit(self):
        q = RequestQueue(maxsize=2)
        r = _req()
        got = []

        def consumer():
            got.append(q.get(timeout=5))

        t = threading.Thread(target=consumer)
        t.start()
        q.submit(r)
        t.join(timeout=5)
        assert got == [r]

    def test_drain_nowait_respects_limit(self):
        q = RequestQueue(maxsize=8)
        reqs = [q.submit(_req()) for _ in range(5)]
        first = q.drain_nowait(max_items=2)
        rest = q.drain_nowait()
        assert first == reqs[:2]
        assert rest == reqs[2:]
        assert q.drain_nowait() == []

    def test_stats_snapshot(self):
        q = RequestQueue(maxsize=3)
        q.submit(_req())
        s = q.stats()
        assert s["depth"] == 1
        assert s["maxsize"] == 3
        assert s["submitted"] == 1
        assert not s["closed"]
        assert len(q) == 1

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(maxsize=0)


class TestAdmissionDepthSnapshot:
    def test_admit_depth_is_recorded_under_the_queue_lock(self):
        q = RequestQueue(maxsize=8)
        depths = [q.submit(_req()).admit_depth for _ in range(3)]
        assert depths == [1, 2, 3]

    def test_admit_depth_survives_an_immediate_drain(self):
        """Regression: the admit event used to re-read queue.depth after
        submit returned, racing with worker drains — a request admitted
        into a deep queue could be logged at depth 0.  The snapshot taken
        at admission is immune."""
        q = RequestQueue(maxsize=8)
        first = q.submit(_req())
        second = q.submit(_req())
        q.drain_nowait()  # a worker empties the queue immediately
        assert q.depth == 0
        assert first.admit_depth == 1
        assert second.admit_depth == 2


class TestDrainRateAndRetryAfter:
    def test_drain_rate_counts_recent_pops(self):
        q = RequestQueue(maxsize=8)
        for _ in range(5):
            q.submit(_req())
        assert q.drain_rate() == 0.0  # nothing drained yet
        q.drain_nowait()
        assert q.drain_rate() == pytest.approx(5 / q.DRAIN_WINDOW_S)

    def test_drain_rate_window_expires(self):
        q = RequestQueue(maxsize=8)
        q.submit(_req())
        q.get(timeout=0.1)
        assert q.drain_rate() > 0.0
        assert q.drain_rate(now=1e9) == 0.0  # far future: window empty

    def test_retry_after_tracks_depth_over_drain_rate(self):
        from repro.serve.queue import (
            RETRY_AFTER_MAX_S,
            RETRY_AFTER_MIN_S,
            compute_retry_after,
        )

        # depth/drain_rate inside the clamp band passes through
        assert compute_retry_after(10, 64, 2.0) == pytest.approx(5.0)
        # clamped at both ends
        assert compute_retry_after(1, 64, 100.0) == RETRY_AFTER_MIN_S
        assert compute_retry_after(10_000, 64, 0.1) == RETRY_AFTER_MAX_S
        # no drain signal: depth-proportional between the clamps
        empty = compute_retry_after(0, 64, 0.0)
        half = compute_retry_after(32, 64, 0.0)
        full = compute_retry_after(64, 64, 0.0)
        assert empty == RETRY_AFTER_MIN_S
        assert full == RETRY_AFTER_MAX_S
        assert empty < half < full

    def test_queue_retry_after_uses_live_state(self):
        q = RequestQueue(maxsize=4)
        for _ in range(4):
            q.submit(_req())
        # no drains observed: full queue advertises the max clamp
        assert q.retry_after_s() == 30.0


class TestQuotas:
    def test_bucket_burst_then_computed_wait(self):
        b = TokenBucket(rate=10.0, burst=20.0, now=0.0)
        assert b.take(20.0, now=0.0) == 0.0  # full burst spends cleanly
        wait = b.take(5.0, now=0.0)
        assert wait == pytest.approx(0.5)  # 5 tokens at 10/s
        # refill: 1s later the 5-token request fits again
        assert b.take(5.0, now=1.0) == 0.0

    def test_quota_reject_carries_computed_retry_after(self):
        q = TenantQuotas(rate=10.0, burst_s=1.0)
        q.admit("t", 10.0, now=0.0)  # exactly the burst
        with pytest.raises(QuotaExceededError) as ei:
            q.admit("t", 10.0, now=0.0)
        assert ei.value.tenant == "t"
        assert ei.value.retry_after_s == pytest.approx(1.0)
        assert q.rejected["t"] == 1

    def test_weighted_admission(self):
        """A weight-4 tenant's bucket holds 4x the tokens of a weight-1
        tenant: same instant, same demand, different outcomes."""
        q = TenantQuotas(rate=10.0, burst_s=1.0, weights={"gold": 4.0})
        q.admit("gold", 40.0, now=0.0)
        with pytest.raises(QuotaExceededError):
            q.admit("free", 40.0, now=0.0)

    def test_disabled_quotas_admit_everything(self):
        q = TenantQuotas(rate=None)
        for _ in range(100):
            q.admit("anyone", 1e9)
        assert q.stats()["enabled"] is False

    def test_submit_taxonomy(self):
        """Quota rejections never consume queue capacity; queue-full
        rejections carry the drain-rate-computed backoff."""
        from repro.serve import ServeConfig, TransposeServer

        srv = TransposeServer(ServeConfig(
            port=0, queue_size=2, workers=1,
            tenant_rate=4.0, tenant_burst_s=1.0,
        ))
        try:
            srv.submit(_req(tiles=4), tenant="t")  # spends the whole burst
            with pytest.raises(QuotaExceededError) as ei:
                srv.submit(_req(tiles=4), tenant="t")
            assert ei.value.retry_after_s > 0.0
            assert srv.queue.depth == 1  # the rejected request never enqueued
            # an unthrottled tenant can still fill the queue...
            srv.submit(_req(), tenant="other")
            with pytest.raises(QueueFullError) as full:
                srv.submit(_req(), tenant="other")
            # ...and the full error carries a computed backoff
            assert full.value.retry_after_s >= 1.0
        finally:
            srv.queue.close()
            srv._httpd.server_close()
