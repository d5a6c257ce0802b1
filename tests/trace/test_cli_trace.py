"""The ``repro trace`` and ``repro profile`` CLI commands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.trace import spans
from repro.trace.export import validate_chrome_trace


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    was_enabled = spans.tracer.enabled
    spans.tracer.reset()
    yield
    spans.tracer.reset()
    spans.tracer.enabled = was_enabled


class TestTraceCommand:
    def test_chrome_export_has_pass_worker_and_cache_records(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "--shape", "64x96", "--threads", "2",
            "--repeats", "2", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        validate_chrome_trace(doc)
        events = doc["traceEvents"]
        names = {e["name"] for e in events}
        # one pass.* span per decomposition pass of the cached plan path
        assert any(n.startswith("pass.") for n in names)
        assert "op.transpose_inplace" in names
        # plan-cache events: first call misses, repeats hit
        assert "cache.miss" in names and "cache.hit" in names
        # parallel worker chunks land on at least two distinct lanes
        worker_tids = {
            e["tid"] for e in events if e["name"] == "worker.chunk"
        }
        assert len(worker_tids) >= 2

    def test_stdout_chrome_export(self, capsys):
        assert main(["trace", "--shape", "16x24", "--repeats", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_chrome_trace(doc)

    def test_tree_format(self, capsys):
        assert main([
            "trace", "--shape", "16x24", "--format", "tree", "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "thread MainThread" in out
        assert "op.transpose_inplace" in out

    def test_prometheus_format(self, capsys):
        assert main([
            "trace", "--shape", "16x24", "--format", "prometheus",
            "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro_latency_seconds_bucket" in out

    def test_rejects_bad_shape(self, capsys):
        assert main(["trace", "--shape", "banana"]) == 1
        assert "error" in capsys.readouterr().out


class TestProfileCommand:
    def test_table_output(self, capsys):
        assert main([
            "profile", "--shape", "32x48", "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "(memcpy ceiling," in out
        assert "backend=" in out
        assert "32x48" in out

    def test_json_output_reports_positive_bandwidth(self, capsys):
        assert main([
            "profile", "--shape", "32x48", "--repeats", "1", "--json",
        ]) == 0
        profiles = json.loads(capsys.readouterr().out)
        assert profiles[0]["m"] == 32
        assert profiles[0]["memcpy_gbps"] > 0
        assert all(p["gbps"] > 0 for p in profiles[0]["passes"])

    def test_rejects_bad_shape(self, capsys):
        assert main(["profile", "--shape", "x"]) == 1
        assert "error" in capsys.readouterr().out


class TestTraceInspection:
    def test_request_tree_from_exported_file(self, tmp_path, capsys):
        # build a tiny exported trace with a known trace_id
        from repro.trace.export import to_chrome_trace
        from repro.trace.spans import TraceContext, Tracer

        tr = Tracer(enabled=True)
        with tr.activate(TraceContext("req-42")):
            with tr.span("serve.request", request=1):
                with tr.span("serve.execute.batch"):
                    pass
        path = tmp_path / "exported.json"
        path.write_text(json.dumps(to_chrome_trace(tr.snapshot())))
        capsys.readouterr()
        assert main([
            "trace", "--input", str(path), "--request", "req-42",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace req-42: 2 spans" in out
        assert "serve.request" in out
        assert "serve.execute.batch" in out

    def test_input_without_request_dumps_whole_tree(self, tmp_path, capsys):
        from repro.trace.export import to_chrome_trace
        from repro.trace.spans import Tracer

        tr = Tracer(enabled=True)
        with tr.span("op.x"):
            pass
        path = tmp_path / "exported.json"
        path.write_text(json.dumps(to_chrome_trace(tr.snapshot())))
        capsys.readouterr()
        assert main(["trace", "--input", str(path)]) == 0
        assert "op.x" in capsys.readouterr().out

    def test_request_without_input_errors(self, capsys):
        assert main(["trace", "--request", "abc"]) == 1
        assert "--input" in capsys.readouterr().out
