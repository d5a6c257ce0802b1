"""/statusz endpoint, trace-id minting/echo, and decision instants in the
trace."""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.serve import ServeConfig, TransposeServer
from repro.trace import spans


@pytest.fixture
def server():
    srv = TransposeServer(
        ServeConfig(port=0, workers=1, queue_size=32, max_wait_ms=0.5)
    ).start()
    yield srv
    srv.shutdown(timeout=10)


def _post(srv, body, headers):
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", "/transpose", body=body, headers=headers)
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


def _body(m, n, dtype=np.float64):
    return np.arange(m * n, dtype=dtype).tobytes()


class TestStatusz:
    def test_reports_queue_slo_native_and_trace_health(self, server):
        _post(server, _body(8, 6), _headers(8, 6))
        status, body = _get(server, "/statusz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["queue"]["depth"] == 0
        assert doc["queue"]["maxsize"] == 32
        assert doc["inflight"] == 0
        assert doc["accepted"] >= 1
        assert doc["workers"]["alive"] == 1
        slo = doc["slo"]
        assert slo["p99_objective_ms"] == 50.0
        assert slo["total_observed"] >= 1
        assert {"burn_rate", "p99_ms", "samples"} <= set(slo["windows"][0])
        assert "alerting" in slo and "burn_rate_max" in slo
        assert {"calls", "fallback", "compile", "unsupported"} \
            <= set(doc["native"])
        assert "dropped_spans" in doc["trace"]
        assert {"enabled", "recorded", "buffered"} <= set(doc["trace"])
        assert "events" not in doc

    def test_slo_objectives_follow_config(self):
        srv = TransposeServer(ServeConfig(
            port=0, workers=1, slo_p99_ms=10.0, slo_error_budget=0.05,
        )).start()
        try:
            doc = json.loads(_get(srv, "/statusz")[1])
            assert doc["slo"]["p99_objective_ms"] == 10.0
            assert doc["slo"]["error_budget"] == 0.05
        finally:
            srv.shutdown(timeout=10)

    def test_client_errors_do_not_burn_error_budget(self, server):
        _post(server, b"", _headers(0, 0))  # 400
        doc = json.loads(_get(server, "/statusz")[1])
        assert doc["slo"]["total_observed"] >= 1
        assert doc["slo"]["total_errors"] == 0  # 4xx is the client's fault

    def test_metrics_include_slo_gauges(self, server):
        _post(server, _body(4, 4), _headers(4, 4))
        status, body = _get(server, "/metrics")
        assert status == 200
        text = body.decode()
        assert "repro_slo_p99_objective_ms" in text
        assert "repro_slo_burn_rate_max" in text
        assert "repro_trace_dropped_spans_total" in text


class TestTraceIdHeader:
    def test_valid_client_trace_id_is_honored_and_echoed(self, server):
        status, _, headers = _post(
            server, _body(8, 6),
            _headers(8, 6, **{"X-Repro-Trace-Id": "client-abc.123"}),
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == "client-abc.123"

    def test_missing_trace_id_is_minted(self, server):
        status, _, headers = _post(server, _body(8, 6), _headers(8, 6))
        assert status == 200
        minted = headers["X-Repro-Trace-Id"]
        assert len(minted) == 16
        int(minted, 16)

    def test_malformed_trace_id_is_replaced_not_echoed(self, server):
        evil = "abc def<script>" + "x" * 200
        status, _, headers = _post(
            server, _body(8, 6), _headers(8, 6, **{"X-Repro-Trace-Id": evil}),
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] != evil
        int(headers["X-Repro-Trace-Id"], 16)

    def test_rejections_carry_a_trace_id_too(self, server):
        status, _, headers = _post(
            server, b"", _headers(0, 0, **{"X-Repro-Trace-Id": "bad-req-1"}),
        )
        assert status == 400
        assert headers["X-Repro-Trace-Id"] == "bad-req-1"


class TestThreadModePropagation:
    def test_request_spans_share_trace_id_across_server_threads(
        self, server, request_span
    ):
        spans.tracer.reset()
        spans.enable()
        try:
            status, _, _ = _post(
                server, _body(8, 6),
                _headers(8, 6, **{"X-Repro-Trace-Id": "prop-1"}),
            )
            assert status == 200
            # serve.request closes after the reply is written: wait for it
            request_span("prop-1")
            recs = [r for r in spans.tracer.snapshot()
                    if r.trace_id == "prop-1"]
        finally:
            spans.disable()
            spans.tracer.reset()
        names = {r.name for r in recs}
        assert "serve.request" in names
        assert "serve.group" in names  # worker thread, joined via ctx
        req = next(r for r in recs if r.name == "serve.request")
        grp = next(r for r in recs if r.name == "serve.group")
        # request -> group: the worker's span parents under the request
        assert grp.parent_id == req.span_id
        assert grp.tid != req.tid  # crossed a thread boundary
        # the execute and pass spans run on the worker thread, same trace
        execute = [r for r in recs if r.name.startswith("serve.execute.")]
        passes = [r for r in recs if r.name.startswith("pass.")]
        assert execute and passes
        assert {r.tid for r in execute + passes} == {grp.tid}


class TestDecisionInstants:
    def test_admission_records_trace_stamped_instants(self, server):
        spans.tracer.reset()
        spans.enable()
        try:
            _post(server, _body(8, 6),
                  _headers(8, 6, **{"X-Repro-Trace-Id": "ev-1"}))
            recs = [r for r in spans.tracer.drain() if r.is_event]
        finally:
            spans.disable()
            spans.tracer.reset()
        kinds = {r.name for r in recs if r.trace_id == "ev-1"}
        assert "serve.admit" in kinds
        assert "serve.coalesce" in kinds
        assert "serve.dispatch" in kinds
        admit = next(r for r in recs if r.name == "serve.admit"
                     and r.trace_id == "ev-1")
        assert "depth" in admit.attrs
