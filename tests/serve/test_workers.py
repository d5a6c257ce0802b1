"""Worker pool: drain-style shutdown, retry-once, failure isolation."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import batcher as batcher_mod
from repro.serve.batcher import ShapeBatcher
from repro.serve.queue import Request, RequestQueue
from repro.serve.workers import WorkerPool


def _req(m=8, n=6, seed=0, tiles=1):
    rng = np.random.default_rng(seed)
    buf = (rng.random(tiles * m * n) * 100).astype(np.float64)
    return Request(buf, m, n, tiles=tiles)


def _expected(r: Request) -> np.ndarray:
    tiles = r.buf.reshape(r.tiles, r.m, r.n)
    return np.ascontiguousarray(tiles.transpose(0, 2, 1)).reshape(-1)


def _stack(workers=2, max_batch=8, max_wait_s=0.001, maxsize=256):
    q = RequestQueue(maxsize=maxsize)
    b = ShapeBatcher(q, max_batch=max_batch, max_wait_s=max_wait_s)
    return q, b, WorkerPool(b, workers, poll_s=0.01)


class TestPoolLifecycle:
    def test_start_twice_raises(self):
        _, _, pool = _stack()
        with pool:
            with pytest.raises(RuntimeError):
                pool.start()

    def test_n_workers_validation(self):
        _, b, _ = _stack()
        with pytest.raises(ValueError):
            WorkerPool(b, 0)

    def test_workers_are_named_lanes(self):
        _, _, pool = _stack(workers=2)
        with pool:
            names = {t.name for t in pool._threads}
            assert names == {"repro-serve-worker-0", "repro-serve-worker-1"}
            assert pool.alive == 2

    def test_shutdown_summary_shape(self):
        q, _, pool = _stack()
        pool.start()
        summary = pool.shutdown(timeout=5)
        assert summary == {
            "requests_served": 0,
            "groups_executed": 0,
            "retries": 0,
            "group_failures": 0,
            "drained": True,
        }
        assert q.closed


class TestServing:
    def test_concurrent_clients_differential(self):
        # Many client threads, mixed shapes, all results must match numpy.
        q, _, pool = _stack(workers=2)
        shapes = [(8, 6), (5, 9), (8, 6), (12, 4)]
        results = {}
        lock = threading.Lock()

        def client(i):
            m, n = shapes[i % len(shapes)]
            r = _req(m, n, seed=i, tiles=1 + i % 3)
            q.submit(r)
            out = r.wait(timeout=30)
            with lock:
                results[i] = (r, out.copy())

        with pool:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(24)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert len(results) == 24
        for r, out in results.values():
            np.testing.assert_array_equal(out, _expected(r))

    def test_graceful_shutdown_drains_backlog(self):
        # Submit a pile of work and shut down immediately: every accepted
        # request must still be executed ("drain, don't drop").
        q, _, pool = _stack(workers=2, max_wait_s=60.0, max_batch=64)
        reqs = [q.submit(_req(seed=i)) for i in range(40)]
        pool.start()
        summary = pool.shutdown(timeout=30)
        assert summary["drained"]
        assert summary["requests_served"] == 40
        for r in reqs:
            np.testing.assert_array_equal(r.wait(timeout=0), _expected(r))

    def test_retry_once_recovers_from_transient_failure(self, monkeypatch):
        q, b, pool = _stack(workers=1)
        real = b.execute_group
        calls = {"n": 0}

        def flaky(group):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient blip")
            return real(group)

        monkeypatch.setattr(b, "execute_group", flaky)
        r = q.submit(_req(seed=7))
        with pool:
            np.testing.assert_array_equal(r.wait(timeout=30), _expected(r))
        assert pool.retries == 1
        assert pool.group_failures == 0

    def test_second_failure_fails_the_group(self, monkeypatch):
        q, b, pool = _stack(workers=1)

        def broken(group):
            raise RuntimeError("permanently broken")

        monkeypatch.setattr(b, "execute_group", broken)
        r = q.submit(_req())
        pool.start()
        with pytest.raises(RuntimeError, match="permanently broken"):
            r.wait(timeout=30)
        # The pool survives a failed group and keeps draining.
        monkeypatch.undo()
        r2 = q.submit(_req(seed=1))
        np.testing.assert_array_equal(r2.wait(timeout=30), _expected(r2))
        summary = pool.shutdown(timeout=10)
        assert summary["group_failures"] == 1
        assert summary["retries"] == 1  # first failure consumed the retry

    def test_kernel_failure_leaves_inputs_for_the_retry(self, monkeypatch):
        # A kernel that scribbles over its staging buffer and then raises
        # fulfills nothing and leaves every request buffer intact, so the
        # pool's one retry recomputes from the original inputs.
        q, _, pool = _stack(workers=1, max_wait_s=60.0)
        real = batcher_mod.batched_transpose_inplace
        calls = {"n": 0}

        def failing_once(staging, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                staging[...] = -1
                raise MemoryError("transient scratch failure")
            return real(staging, *args, **kwargs)

        monkeypatch.setattr(batcher_mod, "batched_transpose_inplace", failing_once)
        reqs = [q.submit(_req(seed=i, tiles=2)) for i in range(3)]
        originals = [r.buf.copy() for r in reqs]
        pool.start()
        summary = pool.shutdown(timeout=30)
        assert summary["retries"] == 1 and summary["group_failures"] == 0
        for r, original in zip(reqs, originals):
            np.testing.assert_array_equal(r.buf, original)
            np.testing.assert_array_equal(r.wait(timeout=0), _expected(r))
