"""Runtime decisions in the span ring: a plan-cache eviction, a streamed
band and a native fallback each leave exactly one record, stamped with the
active request's trace id ("" outside a request)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.core.plan import TransposePlan
from repro.runtime import metrics, plan_cache
from repro.runtime.plan_cache import PlanCache
from repro.stream import transpose_file_inplace
from repro.trace import spans
from repro.trace.spans import TraceContext


@pytest.fixture
def tracer():
    was = spans.tracer.enabled
    spans.tracer.reset()
    spans.enable()
    yield spans.tracer
    spans.tracer.enabled = was
    spans.tracer.reset()


def _resident_plan(m: int, n: int, cache: PlanCache):
    plan = plan_cache.get_single_plan(m, n, "C", "c2r", "float64", cache=cache)
    plan.execute(np.zeros(m * n), backend="numpy")
    return plan


class TestEviction:
    def test_one_eviction_leaves_one_record_under_the_request(self, tracer):
        probe = TransposePlan(24, 36)
        probe.execute(np.zeros(24 * 36), backend="numpy")
        cache = PlanCache(max_bytes=int(probe.scratch_bytes * 1.5))
        _resident_plan(24, 36, cache)
        with tracer.activate(TraceContext("evict-1")):
            _resident_plan(25, 36, cache)
        assert cache.stats()["evictions"] == 1
        evicts = [r for r in tracer.snapshot() if "evict" in r.name]
        assert [r.name for r in evicts] == ["cache.evict"]
        (rec,) = evicts
        assert rec.is_event and rec.trace_id == "evict-1"
        assert (rec.attrs["m"], rec.attrs["n"]) == (24, 36)
        assert rec.attrs["bytes"] > 0


class TestStreamedBands:
    def test_one_band_leaves_one_record(self, tracer, tmp_path):
        m, n = 40, 30
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = tmp_path / "b.bin"
        A.tofile(path)
        before = metrics.registry.snapshot()["counters"].get("stream.bands", 0)
        with tracer.activate(TraceContext("band-1")):
            transpose_file_inplace(path, m, n, np.float64, window_bytes=16384)
        bands = metrics.registry.snapshot()["counters"]["stream.bands"] - before
        assert bands > 1
        band_recs = [r for r in tracer.snapshot() if "band" in r.attrs]
        assert len(band_recs) == bands
        assert {r.name for r in band_recs} == {"stream.band"}
        assert all(r.trace_id == "band-1" for r in band_recs)
        got = np.fromfile(path, dtype=np.float64)
        np.testing.assert_array_equal(got, A.T.ravel())


class TestNativeFallback:
    def test_fallback_is_one_instant_with_the_reason(self, tracer, monkeypatch):
        monkeypatch.setattr(native, "_warned_once", True)  # silence
        with tracer.activate(TraceContext("fb-1")):
            native.record_fallback("compile failed")
        native.record_fallback("outside any request")
        recs = [r for r in tracer.snapshot() if r.name == "native.fallback"]
        assert [(r.trace_id, r.attrs["reason"]) for r in recs] == [
            ("fb-1", "compile failed"), ("", "outside any request"),
        ]
        assert all(r.is_event for r in recs)

    def test_disabled_tracer_records_nothing(self, monkeypatch):
        monkeypatch.setattr(native, "_warned_once", True)
        was = spans.tracer.enabled
        spans.tracer.reset()
        spans.disable()
        try:
            native.record_fallback("untraced")
            assert spans.tracer.recorded == 0
        finally:
            spans.tracer.enabled = was
