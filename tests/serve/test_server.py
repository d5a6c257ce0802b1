"""HTTP front end: round trips, error mapping, metrics, graceful shutdown."""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.serve import ServeConfig, TransposeServer
from repro.trace.export import validate_prometheus_text


@pytest.fixture
def server():
    srv = TransposeServer(
        ServeConfig(port=0, workers=1, queue_size=32, max_wait_ms=0.5)
    ).start()
    yield srv
    srv.shutdown(timeout=10)


def _post(srv, body, headers, path="/transpose"):
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


def _get(srv, path):
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _headers(m, n, dtype="float64", **extra):
    h = {"X-Repro-Rows": str(m), "X-Repro-Cols": str(n),
         "X-Repro-Dtype": dtype}
    h.update(extra)
    return h


class TestTransposeEndpoint:
    def test_round_trip_matches_numpy(self, server):
        m, n = 24, 16
        A = np.arange(m * n, dtype=np.float64)
        status, body, headers = _post(server, A.tobytes(), _headers(m, n))
        assert status == 200
        out = np.frombuffer(body, dtype=np.float64).reshape(n, m)
        np.testing.assert_array_equal(out, A.reshape(m, n).T)
        assert headers["X-Repro-Rows"] == str(n)
        assert headers["X-Repro-Cols"] == str(m)

    def test_multi_tile_round_trip(self, server):
        m, n, k = 12, 8, 3
        A = np.arange(k * m * n, dtype=np.float32).reshape(k, m, n)
        status, body, headers = _post(
            server, A.tobytes(),
            _headers(m, n, dtype="float32", **{"X-Repro-Batch": str(k)}),
        )
        assert status == 200
        assert headers["X-Repro-Batch"] == str(k)
        out = np.frombuffer(body, dtype=np.float32).reshape(k, n, m)
        np.testing.assert_array_equal(out, A.transpose(0, 2, 1))

    def test_narrow_dtype_round_trip(self, server):
        m, n = 16, 10
        A = np.arange(m * n, dtype=np.uint8)
        status, body, _ = _post(
            server, A.tobytes(), _headers(m, n, dtype="uint8")
        )
        assert status == 200
        out = np.frombuffer(body, dtype=np.uint8).reshape(n, m)
        np.testing.assert_array_equal(out, A.reshape(m, n).T)

    def test_keepalive_connection_serves_many(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for seed in range(3):
                A = np.full(6 * 4, seed, dtype=np.float64)
                conn.request(
                    "POST", "/transpose", body=A.tobytes(), headers=_headers(6, 4)
                )
                resp = conn.getresponse()
                assert resp.status == 200
                assert len(resp.read()) == A.nbytes
        finally:
            conn.close()


class TestErrorMapping:
    def test_missing_shape_headers_400(self, server):
        status, body, _ = _post(server, b"", {})
        assert status == 400
        assert b"X-Repro-Rows" in body

    def test_bad_dimensions_400(self, server):
        status, _, _ = _post(server, b"", _headers(0, 4))
        assert status == 400

    def test_unknown_dtype_400(self, server):
        status, _, _ = _post(server, b"", _headers(3, 4, dtype="complex_lies"))
        assert status == 400

    @pytest.mark.parametrize("dtype", ["object", "O", "U4", "S8", "V8", "M8[s]"])
    def test_non_numeric_dtype_400(self, server, dtype):
        # 'object' especially: readinto() over PyObject pointers was a
        # remotely triggered interpreter crash before the dtype-kind guard.
        itemsize = np.dtype(dtype).itemsize or 8
        body = b"\x41" * (3 * 4 * itemsize)
        status, reply, _ = _post(server, body, _headers(3, 4, dtype=dtype))
        assert status == 400
        assert b"numeric" in reply
        # The process survived: a well-formed request still round-trips.
        A = np.arange(12, dtype=np.float64)
        status, out, _ = _post(server, A.tobytes(), _headers(3, 4))
        assert status == 200
        np.testing.assert_array_equal(
            np.frombuffer(out, dtype=np.float64).reshape(4, 3),
            A.reshape(3, 4).T,
        )

    def test_bad_order_400(self, server):
        status, _, _ = _post(
            server, b"", _headers(3, 4, **{"X-Repro-Order": "Z"})
        )
        assert status == 400

    def test_bad_batch_400(self, server):
        status, _, _ = _post(
            server, b"x" * 96, _headers(3, 4, **{"X-Repro-Batch": "0"})
        )
        assert status == 400

    def test_wrong_content_length_400(self, server):
        status, body, _ = _post(server, b"x" * 10, _headers(3, 4))
        assert status == 400
        assert b"bytes" in body

    def test_unknown_path_404(self, server):
        status, _, _ = _post(server, b"", {"X-Repro-Rows": "1"})
        assert status == 400  # transpose path with bad headers
        status, _ = _get(server, "/nope")
        assert status == 404

    def test_error_with_unread_body_closes_connection(self, server):
        # A pre-body 400 leaves the request body on the socket; the server
        # must close the connection instead of letting keep-alive parse
        # those bytes as the next request line (desync).
        host, port = server.address
        A = np.arange(12, dtype=np.float64)
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/transpose", body=A.tobytes(),
                headers=_headers(3, 4, dtype="no_such_dtype"),
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert resp.getheader("Connection") == "close"
            resp.read()
            # The advertised close makes http.client reconnect; before the
            # fix this follow-up got a garbage reply parsed out of the
            # stale body bytes still sitting on the old connection.
            conn.request(
                "POST", "/transpose", body=A.tobytes(), headers=_headers(3, 4)
            )
            resp = conn.getresponse()
            assert resp.status == 200
            out = np.frombuffer(resp.read(), dtype=np.float64).reshape(4, 3)
            np.testing.assert_array_equal(out, A.reshape(3, 4).T)
        finally:
            conn.close()

    def test_expired_deadline_504(self, server):
        A = np.arange(12, dtype=np.float64)
        status, body, _ = _post(
            server, A.tobytes(),
            _headers(3, 4, **{"X-Repro-Timeout-Ms": "0"}),
        )
        assert status == 504

    def test_expired_at_admission_fails_fast_as_client_deadline(self, server):
        """An already-expired X-Repro-Timeout-Ms must be rejected before
        the request is enqueued — no queue wait, no kernel work — and the
        504 body must say the *client's* deadline expired."""
        from time import perf_counter

        A = np.arange(12, dtype=np.float64)
        t0 = perf_counter()
        status, body, headers = _post(
            server, A.tobytes(),
            _headers(3, 4, **{"X-Repro-Timeout-Ms": "0"}),
        )
        elapsed = perf_counter() - t0
        assert status == 504
        assert json.loads(body)["kind"] == "client-deadline"
        assert b"before admission" in body
        # Fast fail: rejected pre-queue, not after a queue/execute timeout.
        assert elapsed < 0.9
        # Pre-body rejection leaves bytes on the socket -> must close.
        assert headers.get("Connection") == "close"

    def test_serving_timeout_504_is_distinguished(self):
        """A request that was admitted fine but hit the serving-layer
        timeout gets the other 504 flavor: kind="serving-timeout"."""
        srv = TransposeServer(ServeConfig(
            port=0, workers=1, queue_size=32,
            max_wait_ms=5000.0,  # lone request waits for batch-mates...
            request_timeout_s=0.05,  # ...but the server gives up first
        )).start()
        try:
            A = np.arange(12, dtype=np.float64)
            status, body, _ = _post(srv, A.tobytes(), _headers(3, 4))
            assert status == 504
            assert json.loads(body)["kind"] == "serving-timeout"
        finally:
            srv.shutdown(timeout=10)

    def test_queue_full_429_with_retry_after(self):
        # Fill the queue directly (workers not started, nothing drains),
        # then a real HTTP submit must be admission-rejected with a
        # *computed* Retry-After — never the old hardcoded "1".  With no
        # drains observed the backoff is depth-proportional, so a full
        # queue advertises the maximum clamp.
        from repro.serve.queue import RETRY_AFTER_MAX_S, Request

        srv = TransposeServer(ServeConfig(port=0, workers=1, queue_size=1))
        srv._serve_thread = None
        import threading

        srv._serve_thread = threading.Thread(
            target=srv._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        srv._serve_thread.start()
        try:
            srv.queue.submit(Request(np.zeros(12), 3, 4))
            A = np.arange(12, dtype=np.float64)
            status, body, headers = _post(srv, A.tobytes(), _headers(3, 4))
            assert status == 429
            assert json.loads(body)["kind"] == "queue-full"
            retry = int(headers.get("Retry-After"))
            assert retry == int(RETRY_AFTER_MAX_S)
            assert srv.queue.rejected_full == 1
        finally:
            srv.queue.close()
            srv._httpd.shutdown()
            srv._httpd.server_close()

    def test_quota_429_never_takes_queue_space(self):
        srv = TransposeServer(ServeConfig(
            port=0, workers=1, tenant_rate=1.0, tenant_burst_s=1.0,
        )).start()
        try:
            A = np.arange(12, dtype=np.float64)
            tenant = {"X-Repro-Tenant": "t"}
            status, _, _ = _post(srv, A.tobytes(), _headers(3, 4, **tenant))
            assert status == 200  # spends the one-token burst
            submitted = srv.queue.stats()["submitted"]
            status, body, headers = _post(
                srv, A.tobytes(), _headers(3, 4, **tenant)
            )
            assert status == 429
            assert json.loads(body)["kind"] == "quota"
            assert int(headers["Retry-After"]) >= 1
            assert srv.queue.stats()["submitted"] == submitted
        finally:
            srv.shutdown(timeout=10)

    def test_retry_after_scales_with_queue_depth(self):
        # Regression for the hardcoded Retry-After: with an observed drain
        # rate, the advertised backoff must grow with the rejecting
        # queue's depth (depth / drain_rate, clamped).
        from repro.serve.queue import compute_retry_after

        shallow = compute_retry_after(4, 64, drain_rate=2.0)
        deep = compute_retry_after(40, 64, drain_rate=2.0)
        assert deep > shallow
        assert shallow == pytest.approx(2.0)
        assert deep == pytest.approx(20.0)
        # and without any drain signal, deeper queues still back off more
        assert compute_retry_after(
            60, 64, drain_rate=0.0
        ) > compute_retry_after(8, 64, drain_rate=0.0)


class TestIntrospection:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["queue_maxsize"] == 32
        assert health["workers_alive"] == 1

    def test_metrics_parse_and_families(self, server):
        # Generate some traffic first so serve.* families exist.
        A = np.arange(6 * 4, dtype=np.float64)
        for _ in range(3):
            status, _, _ = _post(server, A.tobytes(), _headers(6, 4))
            assert status == 200
        status, body = _get(server, "/metrics")
        assert status == 200
        text = body.decode()
        stats = validate_prometheus_text(text)
        assert stats["samples"] > 0
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_workers" in text
        assert "repro_serve_batch_size_bucket" in text
        assert "repro_serve_completed_total" in text
        # Latencies share one family, labelled by operation.
        assert "repro_latency_seconds" in text
        assert 'op="serve.e2e"' in text
        assert 'op="serve.queue_wait"' in text
        assert 'op="serve.execute"' in text


class TestTransposeFileBackend:
    def _post_file(self, srv, payload):
        return _post(
            srv, json.dumps(payload).encode(),
            {"Content-Type": "application/json"}, path="/transpose-file",
        )

    def test_threads_backend_accepted(self, server, tmp_path):
        A = np.arange(12 * 8, dtype=np.float64).reshape(12, 8)
        path = tmp_path / "t.bin"
        A.tofile(path)
        status, _, _ = self._post_file(server, {
            "path": str(path), "rows": 12, "cols": 8, "backend": "threads",
        })
        assert status == 200
        np.testing.assert_array_equal(
            np.fromfile(path, np.float64).reshape(8, 12), A.T
        )

    def test_mp_backend_rejected_file_untouched(self, server, tmp_path):
        # The process-pool backend is gone: a client still asking for it
        # gets a 400 naming the one backend, not a silent thread run.
        A = np.arange(12 * 8, dtype=np.float64)
        path = tmp_path / "mp.bin"
        A.tofile(path)
        status, body, _ = self._post_file(server, {
            "path": str(path), "rows": 12, "cols": 8, "backend": "mp",
        })
        assert status == 400
        assert b"threads" in body
        np.testing.assert_array_equal(np.fromfile(path, np.float64), A)


class TestWorkerDeath:
    def test_dead_pool_fails_waiters_and_later_posts_with_503(self):
        """Once every worker thread has died, the health check fails the
        stranded requests and closes the queue: each client gets a JSON
        503, never a closed connection, and every admitted request gets
        exactly one response."""
        import threading
        import time

        srv = TransposeServer(ServeConfig(port=0, workers=1))
        srv.pool._run = lambda: None  # the worker thread exits at once
        srv.start()
        try:
            deadline = time.monotonic() + 5.0
            while srv.pool.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv.pool.alive == 0
            A = np.arange(12, dtype=np.float64)
            stranded = {}
            waiter = threading.Thread(target=lambda: stranded.update(
                reply=_post(srv, A.tobytes(), _headers(3, 4))
            ))
            waiter.start()
            while srv.accepted < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv.accepted == 1

            status, body = _get(srv, "/healthz")
            assert status == 200
            assert json.loads(body)["workers_alive"] == 0
            waiter.join(timeout=10)
            status, body, _ = stranded["reply"]
            assert status == 503
            assert json.loads(body)["kind"] == "workers-dead"

            status, body, _ = _post(srv, A.tobytes(), _headers(3, 4))
            assert status == 503
            assert "error" in json.loads(body)
            assert srv.accepted == srv.responded == 1
        finally:
            summary = srv.shutdown(timeout=10)
        assert summary["dropped"] == 0


class TestShutdown:
    def test_zero_dropped_summary(self):
        srv = TransposeServer(ServeConfig(port=0, workers=1)).start()
        A = np.arange(8 * 6, dtype=np.float64)
        for _ in range(5):
            status, _, _ = _post(srv, A.tobytes(), _headers(8, 6))
            assert status == 200
        summary = srv.shutdown(timeout=10)
        assert summary["accepted"] == 5
        assert summary["responded"] == 5
        assert summary["dropped"] == 0
        assert summary["drained"]

    def test_post_after_shutdown_rejected(self):
        srv = TransposeServer(ServeConfig(port=0, workers=1)).start()
        srv.queue.close()  # draining state: submits now map to 503
        A = np.arange(12, dtype=np.float64)
        status, _, _ = _post(srv, A.tobytes(), _headers(3, 4))
        assert status == 503
        srv.shutdown(timeout=10)
