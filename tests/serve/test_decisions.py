"""Serving decisions as tracer instants: every admission, rejection,
coalescing, dispatch, expiry, retry and group failure is one zero-width
``serve.*`` record in the span ring, stamped with the trace id of the
request it was taken for, and nothing at all is recorded while tracing is
off."""

from __future__ import annotations

import http.client
import json
import threading
from time import monotonic

import numpy as np
import pytest

from repro.serve import ServeConfig, TransposeServer
from repro.serve.batcher import ShapeBatcher
from repro.serve.queue import Request, RequestQueue
from repro.serve.workers import WorkerPool
from repro.trace import spans
from repro.trace.export import to_request_tree


@pytest.fixture
def traced():
    was = spans.tracer.enabled
    spans.tracer.reset()
    spans.enable()
    yield spans.tracer
    spans.tracer.enabled = was
    spans.tracer.reset()


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
        return resp.status, resp.read()
    finally:
        conn.close()


def _headers(m, n, trace_id, **extra):
    h = {"X-Repro-Rows": str(m), "X-Repro-Cols": str(n),
         "X-Repro-Dtype": "float64", "X-Repro-Trace-Id": trace_id}
    h.update(extra)
    return h


def _body(m, n):
    return np.arange(m * n, dtype=np.float64).tobytes()


def _instants(name, trace_id=None):
    return [
        r for r in spans.tracer.snapshot()
        if r.is_event and r.name == name
        and (trace_id is None or r.trace_id == trace_id)
    ]


def _http_only(srv):
    """Serve HTTP without starting the worker pool: nothing drains."""
    srv._serve_thread = threading.Thread(
        target=srv._httpd.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    srv._serve_thread.start()


def _stop_http_only(srv):
    srv.queue.close()
    srv._httpd.shutdown()
    srv._httpd.server_close()


def _req(m=6, n=4, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return Request((rng.random(m * n) * 100).astype(np.float64), m, n, **kw)


class TestServedRequest:
    def test_request_tree_shows_admit_coalesce_and_dispatch(
        self, server, traced, request_span
    ):
        status, _ = _post(server, _body(8, 6), _headers(8, 6, "tree-1"))
        assert status == 200
        request_span("tree-1")
        tree = to_request_tree(traced.snapshot(), "tree-1")
        for name in ("serve.admit", "serve.coalesce", "serve.dispatch"):
            assert f"* {name}" in tree, tree
        assert "serve.request" in tree

    def test_each_decision_is_recorded_once(self, server, traced, request_span):
        status, _ = _post(server, _body(8, 6), _headers(8, 6, "once-1"))
        assert status == 200
        for name in ("serve.admit", "serve.coalesce", "serve.dispatch"):
            assert len(_instants(name, "once-1")) == 1, name
        admit = _instants("serve.admit", "once-1")[0]
        assert admit.attrs["depth"] >= 1
        assert (admit.attrs["m"], admit.attrs["n"]) == (8, 6)
        assert admit.parent_id == request_span("once-1").span_id
        dispatch = _instants("serve.dispatch", "once-1")[0]
        assert dispatch.attrs["requests"] == 1

    def test_disabled_tracing_records_nothing(self, server):
        was = spans.tracer.enabled
        spans.tracer.reset()
        spans.disable()
        try:
            status, _ = _post(server, _body(8, 6), _headers(8, 6, "off-1"))
            assert status == 200
            assert spans.tracer.recorded == 0
            assert len(spans.tracer) == 0
        finally:
            spans.tracer.enabled = was


class TestRejections:
    def test_expired_at_admission(self, server, traced):
        status, _ = _post(
            server, _body(3, 4),
            _headers(3, 4, "exp-1", **{"X-Repro-Timeout-Ms": "0"}),
        )
        assert status == 504
        (rec,) = _instants("serve.reject", "exp-1")
        assert rec.attrs["reason"] == "expired"

    def test_queue_full(self, traced):
        srv = TransposeServer(ServeConfig(port=0, workers=1, queue_size=1))
        _http_only(srv)
        try:
            srv.queue.submit(_req(3, 4))
            status, _ = _post(srv, _body(3, 4), _headers(3, 4, "full-1"))
            assert status == 429
        finally:
            _stop_http_only(srv)
        (rec,) = _instants("serve.reject", "full-1")
        assert rec.attrs["reason"] == "full"
        assert _instants("serve.admit", "full-1") == []

    def test_closed(self, traced):
        srv = TransposeServer(ServeConfig(port=0, workers=1))
        _http_only(srv)
        try:
            srv.queue.close()
            status, _ = _post(srv, _body(3, 4), _headers(3, 4, "closed-1"))
            assert status == 503
        finally:
            _stop_http_only(srv)
        (rec,) = _instants("serve.reject", "closed-1")
        assert rec.attrs["reason"] == "closed"

    def test_quota(self, traced):
        srv = TransposeServer(ServeConfig(
            port=0, workers=1, tenant_rate=1.0, tenant_burst_s=1.0,
        )).start()
        try:
            tenant = {"X-Repro-Tenant": "t"}
            assert _post(
                srv, _body(3, 4), _headers(3, 4, "quota-0", **tenant)
            )[0] == 200
            status, _ = _post(
                srv, _body(3, 4), _headers(3, 4, "quota-1", **tenant)
            )
            assert status == 429
        finally:
            srv.shutdown(timeout=10)
        (rec,) = _instants("serve.reject", "quota-1")
        assert rec.attrs["reason"] == "quota"
        assert rec.attrs["tenant"] == "t"


class TestBatcherDecisions:
    def test_invalid_member_and_claim_time_expiry(self, traced):
        q = RequestQueue(maxsize=16)
        b = ShapeBatcher(q, max_batch=8, max_wait_s=0.0)
        good = q.submit(_req(trace_id="lead-1"))
        bad = q.submit(Request(np.zeros(11), 6, 4, trace_id="bad-1"))
        dead = q.submit(_req(deadline=monotonic() - 0.01, trace_id="dead-1"))
        group = b.next_group(timeout=0.2)
        assert b.execute_group(group) == 1
        assert good.wait(timeout=0) is not None
        (rej,) = _instants("serve.reject", "bad-1")
        assert rej.attrs["reason"] == "invalid"
        assert rej.attrs["request"] == bad.id
        (exp,) = _instants("serve.expired", "dead-1")
        assert exp.attrs["request"] == dead.id
        # group decisions go to the lead request, once each
        (co,) = _instants("serve.coalesce")
        assert co.trace_id == "lead-1" and co.attrs["requests"] == 3
        (di,) = _instants("serve.dispatch")
        assert di.trace_id == "lead-1" and di.attrs["requests"] == 1


class TestWorkerDecisions:
    def _pool(self):
        q = RequestQueue(maxsize=16)
        b = ShapeBatcher(q, max_batch=8, max_wait_s=0.001)
        return q, b, WorkerPool(b, 1, poll_s=0.01)

    def test_retry_recorded_under_the_lead_request(self, traced, monkeypatch):
        q, b, pool = self._pool()
        real = b.execute_group
        calls = {"n": 0}

        def flaky(group):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient blip")
            return real(group)

        monkeypatch.setattr(b, "execute_group", flaky)
        r = q.submit(_req(trace_id="retry-1"))
        with pool:
            r.wait(timeout=30)
        (rec,) = _instants("serve.retry")
        assert rec.trace_id == "retry-1"
        assert rec.attrs["attempt"] == 1 and "transient blip" in rec.attrs["error"]
        assert _instants("serve.group_failure") == []

    def test_group_failure_recorded_under_the_lead_request(
        self, traced, monkeypatch
    ):
        q, b, pool = self._pool()

        def broken(group):
            raise RuntimeError("permanently broken")

        monkeypatch.setattr(b, "execute_group", broken)
        r = q.submit(_req(trace_id="fail-1"))
        with pool:
            with pytest.raises(RuntimeError):
                r.wait(timeout=30)
        (rec,) = _instants("serve.group_failure")
        assert rec.trace_id == "fail-1"
        assert "permanently broken" in rec.attrs["error"]
        assert len(_instants("serve.retry", "fail-1")) == 1


class TestStreamFile:
    def _post_file(self, srv, payload, trace_id):
        return _post(
            srv, json.dumps(payload).encode(),
            {"Content-Type": "application/json", "X-Repro-Trace-Id": trace_id},
            path="/transpose-file",
        )

    def test_error_phase(self, server, traced, tmp_path, monkeypatch):
        import repro.stream

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(repro.stream, "transpose_file_inplace", boom)
        path = tmp_path / "e.bin"
        np.zeros((4, 4)).tofile(path)
        status, _ = self._post_file(
            server, {"path": str(path), "rows": 4, "cols": 4}, "sf-err"
        )
        assert status == 500
        phases = [r.attrs["phase"]
                  for r in _instants("serve.stream_file", "sf-err")]
        assert phases == ["start", "error"]
