"""Metrics registry: counters, timer statistics, snapshots, instrumentation
wiring of the public entry points, and the ``repro stats`` CLI command."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core.batched import batched_transpose_inplace
from repro.core.steps import WorkCounter
from repro.core.transpose import transpose_inplace
from repro.parallel import parallel_transpose_inplace
from repro.runtime import metrics
from repro.runtime.metrics import (
    HISTOGRAM_BOUNDS,
    HistogramStat,
    MetricsRegistry,
    TimerStat,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    was_enabled = metrics.registry.enabled
    metrics.reset()
    metrics.enable()
    yield
    metrics.reset()
    metrics.registry.enabled = was_enabled


class TestTimerStat:
    def test_streaming_summary(self):
        stat = TimerStat()
        for s in (0.2, 0.1, 0.4):
            stat.observe(s)
        d = stat.as_dict()
        assert d["count"] == 3
        assert d["total_s"] == pytest.approx(0.7)
        assert d["mean_s"] == pytest.approx(0.7 / 3)
        assert d["min_s"] == pytest.approx(0.1)
        assert d["max_s"] == pytest.approx(0.4)

    def test_empty_stat_serializes_to_zeros(self):
        d = TimerStat().as_dict()
        assert d == {"count": 0, "total_s": 0.0, "mean_s": 0.0, "min_s": 0.0, "max_s": 0.0}


class TestHistogramStat:
    def test_bounds_are_log_spaced_three_per_decade(self):
        assert len(HISTOGRAM_BOUNDS) == 25
        assert HISTOGRAM_BOUNDS[0] == pytest.approx(1e-7)
        assert HISTOGRAM_BOUNDS[-1] == pytest.approx(1e1)
        for lo, hi in zip(HISTOGRAM_BOUNDS, HISTOGRAM_BOUNDS[3:]):
            assert hi / lo == pytest.approx(10.0)

    def test_observations_land_in_le_buckets(self):
        h = HistogramStat()
        h.observe(5e-8)   # below the first bound -> bucket 0
        h.observe(1e-7)   # exactly on a bound -> that bound's bucket (le)
        h.observe(3e-4)
        h.observe(100.0)  # beyond the last bound -> overflow bucket
        d = h.as_dict()
        assert d["count"] == 4
        assert d["sum_s"] == pytest.approx(5e-8 + 1e-7 + 3e-4 + 100.0)
        assert len(d["counts"]) == len(d["bounds"]) + 1
        assert d["counts"][0] == 2
        assert d["counts"][-1] == 1
        idx = next(
            i for i, b in enumerate(HISTOGRAM_BOUNDS) if 3e-4 <= b
        )
        assert d["counts"][idx] == 1

    def test_total_count_equals_sum_of_buckets(self):
        h = HistogramStat()
        for i in range(200):
            h.observe(10.0 ** ((i % 30) - 22))
        d = h.as_dict()
        assert sum(d["counts"]) == d["count"] == 200


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 4)
        assert reg.snapshot()["counters"]["x"] == 5

    def test_timer_context_manager_respects_enabled_flag(self):
        reg = MetricsRegistry(enabled=False)
        with reg.timer("t"):
            pass
        assert reg.snapshot()["timers"] == {}
        reg.enabled = True
        with reg.timer("t"):
            pass
        assert reg.snapshot()["timers"]["t"]["count"] == 1

    def test_record_call_tracks_traffic(self):
        reg = MetricsRegistry()
        reg.record_call("op", 0.01, nbytes=800, elements=100)
        reg.record_call("op", 0.02, nbytes=800, elements=100)
        snap = reg.snapshot()
        assert snap["counters"]["op.calls"] == 2
        assert snap["counters"]["bytes_moved"] == 1600
        assert snap["counters"]["elements_touched"] == 200
        assert snap["timers"]["op"]["count"] == 2

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.record_call("op", 0.01, nbytes=8)
        parsed = json.loads(reg.to_json())
        assert parsed["counters"]["op.calls"] == 1

    def test_reset_clears_data_not_flag(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("x")
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["timers"] == {}
        assert reg.enabled is False

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("serve.queue_depth", 4)
        reg.set_gauge("serve.queue_depth", 2)
        assert reg.snapshot()["gauges"] == {"serve.queue_depth": 2.0}

    def test_observe_value_uses_custom_bounds_on_first_use(self):
        reg = MetricsRegistry()
        reg.observe_value("serve.batch_size", 3, (1, 2, 4, 8))
        # Later calls reuse the family's bounds even if they pass none.
        reg.observe_value("serve.batch_size", 100)
        d = reg.snapshot()["value_histograms"]["serve.batch_size"]
        assert d["bounds"] == [1, 2, 4, 8]
        assert d["count"] == 2
        assert d["counts"][2] == 1   # 3 lands in le=4
        assert d["counts"][-1] == 1  # 100 overflows to +Inf

    def test_observe_value_defaults_to_latency_bounds(self):
        reg = MetricsRegistry()
        reg.observe_value("depth", 0.5)
        d = reg.snapshot()["value_histograms"]["depth"]
        assert d["bounds"] == list(HISTOGRAM_BOUNDS)

    def test_gauges_and_value_histograms_respect_enabled_flag(self):
        reg = MetricsRegistry(enabled=False)
        reg.set_gauge("g", 1)
        reg.observe_value("v", 1)
        snap = reg.snapshot()
        assert snap["gauges"] == {} and snap["value_histograms"] == {}

    def test_reset_clears_gauges_and_value_histograms(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1)
        reg.observe_value("v", 1)
        reg.reset()
        snap = reg.snapshot()
        assert snap["gauges"] == {} and snap["value_histograms"] == {}

    def test_disabled_registry_takes_no_lock_and_mutates_nothing(self):
        """The ``REPRO_METRICS=0`` fast path must return before touching the
        lock or the maps, so unguarded callers pay one branch, no contention."""

        class CountingLock:
            def __init__(self):
                self.acquisitions = 0
                self._inner = threading.Lock()

            def __enter__(self):
                self.acquisitions += 1
                return self._inner.__enter__()

            def __exit__(self, *exc):
                return self._inner.__exit__(*exc)

        reg = MetricsRegistry(enabled=False)
        lock = CountingLock()
        reg._lock = lock
        reg.inc("x", 5)
        reg.observe("t", 0.001)
        reg.record_call("op", 0.01, nbytes=64, elements=8)
        assert lock.acquisitions == 0
        assert reg._counters == {}
        assert reg._timers == {}
        # Re-enabling restores the locked slow path.
        reg.enabled = True
        reg.inc("x")
        assert lock.acquisitions == 1
        assert reg._counters == {"x": 1}

    def test_thread_safety_of_observations(self):
        reg = MetricsRegistry()

        def worker() -> None:
            for _ in range(500):
                reg.inc("n")
                reg.observe("t", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["counters"]["n"] == 4000
        assert snap["timers"]["t"]["count"] == 4000

    def test_observations_feed_timer_and_histogram_together(self):
        reg = MetricsRegistry()
        reg.observe("op", 0.003)
        reg.record_call("op", 0.005)
        snap = reg.snapshot()
        assert snap["timers"]["op"]["count"] == 2
        assert snap["histograms"]["op"]["count"] == 2
        assert snap["histograms"]["op"]["sum_s"] == pytest.approx(0.008)

    def test_reset_bumps_epoch_and_clears_histograms(self):
        reg = MetricsRegistry()
        reg.observe("op", 0.01)
        assert reg.snapshot()["epoch"] == 0
        reg.reset()
        snap = reg.snapshot()
        assert snap["epoch"] == 1
        assert snap["histograms"] == {} and snap["timers"] == {}

    def test_snapshot_is_atomic_under_concurrent_reset(self):
        """Regression: the three maps and the epoch must come from one lock
        acquisition, so a snapshot racing reset() can never pair counters
        from one epoch with timers/histograms from another — the invariant
        ``op.calls == timers[op].count == histograms[op].count`` holds in
        every observed snapshot."""
        reg = MetricsRegistry()
        stop = threading.Event()
        bad: list[dict] = []

        def recorder() -> None:
            while not stop.is_set():
                reg.record_call("op", 0.001)

        def resetter() -> None:
            while not stop.is_set():
                reg.reset()

        def snapshotter() -> None:
            while not stop.is_set():
                snap = reg.snapshot()
                calls = snap["counters"].get("op.calls", 0)
                t_count = snap["timers"].get("op", {}).get("count", 0)
                h_count = snap["histograms"].get("op", {}).get("count", 0)
                if not (calls == t_count == h_count):
                    bad.append(snap)
                    return

        threads = (
            [threading.Thread(target=recorder) for _ in range(2)]
            + [threading.Thread(target=resetter)]
            + [threading.Thread(target=snapshotter) for _ in range(2)]
        )
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert bad == [], f"torn snapshot observed: {bad[0]}"


class TestEntryPointWiring:
    def test_transpose_inplace_records_by_default(self):
        transpose_inplace(np.arange(12 * 18, dtype=np.float64), 12, 18)
        snap = metrics.registry.snapshot()
        assert snap["counters"]["transpose_inplace.calls"] == 1
        assert snap["timers"]["transpose_inplace"]["count"] == 1
        assert snap["counters"]["bytes_moved"] > 0
        assert any(k.startswith("plan.pass.") for k in snap["timers"])

    def test_uncached_kernel_path_also_records(self):
        transpose_inplace(
            np.arange(12 * 18, dtype=np.float64), 12, 18, use_plan_cache=False
        )
        snap = metrics.registry.snapshot()
        assert snap["counters"]["transpose_inplace.calls"] == 1

    def test_batched_records(self):
        batched_transpose_inplace(np.arange(3 * 6 * 9, dtype=np.float64), 6, 9)
        snap = metrics.registry.snapshot()
        assert snap["counters"]["batched_transpose_inplace.calls"] == 1
        # a batch runs the single-matrix plan's passes, timed as plan passes
        assert any(k.startswith("plan.pass.") for k in snap["timers"])
        assert not any(k.startswith("batched.") for k in snap["timers"])

    def test_parallel_records_per_pass(self):
        parallel_transpose_inplace(
            np.arange(12 * 18, dtype=np.float64), 12, 18, n_threads=2
        )
        snap = metrics.registry.snapshot()
        assert any(k.startswith("parallel.pass.") for k in snap["timers"])
        assert any(k in snap["timers"] for k in ("parallel.c2r", "parallel.r2c"))

    def test_disabled_registry_records_nothing(self):
        metrics.disable()
        transpose_inplace(np.arange(12 * 18, dtype=np.float64), 12, 18)
        batched_transpose_inplace(np.arange(2 * 6 * 9, dtype=np.float64), 6, 9)
        snap = metrics.registry.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert snap["metrics_enabled"] is False

    def test_full_snapshot_includes_plan_cache_stats(self):
        transpose_inplace(np.arange(6 * 8, dtype=np.float64), 6, 8)
        snap = metrics.snapshot()
        assert "plan_cache" in snap
        for field in ("hits", "misses", "evictions", "current_bytes"):
            assert field in snap["plan_cache"]


class TestWorkCounterExtensions:
    def test_bytes_moved_scales_total_by_itemsize(self):
        wc = WorkCounter()
        wc.add(10, 6)
        assert wc.bytes_moved(8) == 16 * 8
        assert wc.as_dict(itemsize=4) == {
            "reads": 10,
            "writes": 6,
            "total": 16,
            "bytes_moved": 64,
        }

    def test_strict_kernel_counter_publishes_to_registry(self):
        wc = WorkCounter()
        transpose_inplace(
            np.arange(9 * 15, dtype=np.float64), 9, 15, aux="strict", counter=wc
        )
        wc.publish("strict")
        snap = metrics.registry.snapshot()
        assert snap["counters"]["strict.reads"] == wc.reads
        assert snap["counters"]["strict.writes"] == wc.writes
        assert snap["counters"]["elements_touched"] >= wc.total


class TestStatsCommand:
    def test_stats_prints_json_with_timings_and_cache_counts(self, capsys):
        assert main(["stats", "--reset", "--shapes", "16x24,24x16,20x20"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["transpose_inplace.calls"] >= 12
        assert snap["timers"]["transpose_inplace"]["count"] >= 12
        assert any(k.startswith("plan.pass.") for k in snap["timers"])
        assert snap["plan_cache"]["hits"] > 0
        assert snap["plan_cache"]["misses"] > 0
        # Each timer has a matching latency histogram with agreeing counts.
        hist = snap["histograms"]["transpose_inplace"]
        assert hist["count"] == snap["timers"]["transpose_inplace"]["count"]
        assert sum(hist["counts"]) == hist["count"]

    def test_stats_without_exercise_is_a_pure_snapshot(self, capsys):
        before = metrics.registry.snapshot()["counters"].get(
            "transpose_inplace.calls", 0
        )
        assert main(["stats", "--no-exercise"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"].get("transpose_inplace.calls", 0) == before

    def test_stats_writes_output_file(self, tmp_path, capsys):
        out = tmp_path / "snap.json"
        assert main(["stats", "--output", str(out)]) == 0
        snap = json.loads(out.read_text())
        assert "plan_cache" in snap
        assert "wrote" in capsys.readouterr().out

    def test_stats_rejects_bad_shapes(self, capsys):
        assert main(["stats", "--shapes", "banana"]) == 1
        assert "error" in capsys.readouterr().out
