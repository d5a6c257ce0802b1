"""Zero-copy shared-memory ingress and the streamed /transpose-file
endpoint: round trips, the segment 4xx taxonomy, and leak-free drains."""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.parallel import shm
from repro.serve import ServeConfig, TransposeServer
from repro.trace import spans


@pytest.fixture
def server():
    srv = TransposeServer(
        ServeConfig(port=0, workers=1, queue_size=32, max_wait_ms=0.5)
    ).start()
    yield srv
    srv.shutdown(timeout=10)


def _post(srv, path, body, headers):
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


def _segment_post(srv, name, m, n, dtype="float64", **extra):
    headers = {"X-Repro-Rows": str(m), "X-Repro-Cols": str(n),
               "X-Repro-Dtype": dtype, "Content-Type": "application/json"}
    headers.update(extra)
    return _post(
        srv, "/transpose", json.dumps({"segment": name}).encode(), headers
    )


class TestSegmentIngress:
    def test_round_trip_in_place(self, server):
        m, n = 24, 16
        A = np.arange(m * n, dtype=np.float64)
        seg = shm.SharedArray((m * n,), np.float64)
        try:
            seg.array[:] = A
            status, body, _ = _segment_post(server, seg.name, m, n)
            assert status == 200
            ack = json.loads(body)
            assert ack["segment"] == seg.name
            assert ack["rows"] == n and ack["cols"] == m
            # the transpose landed in the segment; nothing crossed the wire
            np.testing.assert_array_equal(
                seg.array.reshape(n, m), A.reshape(m, n).T
            )
        finally:
            seg.destroy()

    def test_multi_tile_segment(self, server):
        m, n, k = 12, 8, 3
        A = np.arange(k * m * n, dtype=np.float32).reshape(k, m, n)
        seg = shm.SharedArray((k * m * n,), np.float32)
        try:
            seg.array[:] = A.ravel()
            status, body, _ = _segment_post(
                server, seg.name, m, n, dtype="float32",
                **{"X-Repro-Batch": str(k)},
            )
            assert status == 200
            np.testing.assert_array_equal(
                seg.array.reshape(k, n, m), A.transpose(0, 2, 1)
            )
        finally:
            seg.destroy()

    def test_missing_segment_404(self, server):
        status, body, _ = _segment_post(server, "repro_definitely_absent", 4, 4)
        assert status == 404
        doc = json.loads(body)
        assert doc["kind"] == "segment-missing"

    def test_undersized_segment_409(self, server):
        seg = shm.SharedArray((8,), np.float64)
        try:
            status, body, _ = _segment_post(server, seg.name, 64, 64)
            assert status == 409
            assert json.loads(body)["kind"] == "segment-mismatch"
        finally:
            seg.destroy()

    def test_malformed_descriptor_400(self, server):
        status, body, _ = _post(
            server, "/transpose", b'{"not_segment": 1}',
            {"X-Repro-Rows": "4", "X-Repro-Cols": "4",
             "Content-Type": "application/json"},
        )
        assert status == 400

    def test_reject_reasons_reach_the_trace(self, server):
        spans.tracer.reset()
        spans.enable()
        try:
            _segment_post(server, "repro_definitely_absent", 4, 4,
                          **{"X-Repro-Trace-Id": "seg-missing"})
            small = shm.SharedArray((4,), np.float64)
            try:
                _segment_post(server, small.name, 64, 64,
                              **{"X-Repro-Trace-Id": "seg-small"})
            finally:
                small.destroy()
            reasons = {
                (ev.trace_id, ev.attrs.get("reason"))
                for ev in spans.tracer.snapshot()
                if ev.is_event and ev.name == "serve.reject"
            }
            assert {("seg-missing", "segment-missing"),
                    ("seg-small", "segment-mismatch")} <= reasons
        finally:
            spans.disable()
            spans.tracer.reset()

    def test_no_segments_leaked_after_drain(self):
        srv = TransposeServer(ServeConfig(port=0, workers=1)).start()
        m, n = 16, 12
        seg = shm.SharedArray((m * n,), np.float64)
        seg.array[:] = np.arange(m * n, dtype=np.float64)
        status, _, _ = _segment_post(srv, seg.name, m, n)
        assert status == 200
        seg.destroy()
        summary = srv.shutdown(timeout=10)
        assert summary["shm_leaked"] == 0
        assert shm.owned_segments() == []


class TestTransposeFileEndpoint:
    def _post_file(self, srv, payload):
        return _post(
            srv, "/transpose-file", json.dumps(payload).encode(),
            {"Content-Type": "application/json"},
        )

    def test_streams_server_local_file(self, server, tmp_path):
        m, n = 48, 36
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        path = tmp_path / "srv.bin"
        A.tofile(path)
        status, body, _ = self._post_file(server, {
            "path": str(path), "rows": m, "cols": n, "dtype": "int64",
            "window_bytes": "64k",
        })
        assert status == 200
        stats = json.loads(body)
        assert stats["bands"] >= 1 and stats["trace_id"]
        got = np.fromfile(path, dtype=np.int64).reshape(n, m)
        np.testing.assert_array_equal(got, A.T)

    def test_band_progress_lands_in_the_trace(self, server, tmp_path):
        m, n = 40, 30
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = tmp_path / "ev.bin"
        A.tofile(path)
        spans.tracer.reset()
        spans.enable()
        try:
            status, body, _ = self._post_file(server, {
                "path": str(path), "rows": m, "cols": n,
                "window_bytes": "16k",
            })
            assert status == 200
            stats = json.loads(body)
            trace_id = stats["trace_id"]
            recs = spans.tracer.snapshot()
            phases = [r.attrs["phase"] for r in recs
                      if r.is_event and r.name == "serve.stream_file"
                      and r.trace_id == trace_id]
            assert phases == ["start", "done"]
            bands = [r for r in recs if r.name == "stream.band"]
            assert bands and all(r.trace_id == trace_id for r in bands)
        finally:
            spans.disable()
            spans.tracer.reset()

    def test_missing_file_404(self, server, tmp_path):
        status, _, _ = self._post_file(server, {
            "path": str(tmp_path / "absent.bin"), "rows": 4, "cols": 4,
        })
        assert status == 404

    def test_size_mismatch_409(self, server, tmp_path):
        path = tmp_path / "short.bin"
        np.zeros(10, dtype=np.float64).tofile(path)
        status, body, _ = self._post_file(server, {
            "path": str(path), "rows": 8, "cols": 8,
        })
        assert status == 409
        assert json.loads(body)["kind"] == "size-mismatch"

    @pytest.mark.parametrize("payload", [
        {"rows": 4, "cols": 4},                                   # no path
        {"path": "/x", "rows": 0, "cols": 4},                     # bad shape
        {"path": "/x", "rows": 4, "cols": 4, "dtype": "object"},  # bad dtype
        {"path": "/x", "rows": 4, "cols": 4, "order": "Q"},       # bad order
        {"path": "/x", "rows": 4, "cols": 4, "algorithm": "x"},   # bad algo
        {"path": "/x", "rows": 4, "cols": 4, "backend": "gpu"},   # bad backend
        {"path": "/x", "rows": 4, "cols": 4, "window_bytes": "q"},
    ])
    def test_bad_params_400(self, server, payload):
        status, _, _ = self._post_file(server, payload)
        assert status == 400

    def test_error_reply_carries_trace_id(self, server, tmp_path):
        status, _, headers = self._post_file(server, {
            "path": str(tmp_path / "absent.bin"), "rows": 4, "cols": 4,
        })
        assert status == 404
        assert headers.get("X-Repro-Trace-Id")
