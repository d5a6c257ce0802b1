"""Plan-cache behavior: LRU eviction under a byte budget, thread safety,
differential cached-vs-uncached equality, and the amortization win the cache
exists to deliver.

Plans enter the cache without gather maps; the budget counts the bytes a
plan actually holds, so budget tests first make each plan resident with a
numpy execute (:func:`_resident`)."""

from __future__ import annotations

import threading
from time import perf_counter, sleep

import numpy as np
import pytest

from repro.core.batched import batched_transpose_inplace
from repro.core.plan import TransposePlan
from repro.core.transpose import transpose_inplace
from repro.runtime import plan_cache
from repro.runtime.plan_cache import PlanCache, PlanKey


def _resident(plan):
    """Build ``plan``'s gather maps (and charge them) with one numpy execute."""
    plan.execute(np.zeros(plan.m * plan.n), backend="numpy")
    return plan


def _resident_plan(m: int, n: int, cache: PlanCache):
    return _resident(
        plan_cache.get_single_plan(m, n, "C", "c2r", "float64", cache=cache)
    )


def _key(m: int, n: int, **kw) -> PlanKey:
    defaults = dict(m=m, n=n, order="C", algorithm="c2r", dtype="float64")
    defaults.update(kw)
    return PlanKey(**defaults)


@pytest.fixture(autouse=True)
def _clean_global_cache():
    """Tests observing the process-wide cache start from a known state."""
    cache = plan_cache.get_plan_cache()
    saved = (cache.max_bytes, cache.enabled)
    plan_cache.clear()
    cache.reset_stats()
    yield
    cache.configure(max_bytes=saved[0], enabled=saved[1])
    plan_cache.clear()
    cache.reset_stats()


class TestLRUEviction:
    def test_evicts_least_recently_used_under_byte_budget(self):
        plan = _resident(TransposePlan(24, 36))
        budget = int(plan.scratch_bytes * 2.5)  # room for two plans, not three
        cache = PlanCache(max_bytes=budget)
        for mm in (24, 25, 26):
            _resident_plan(mm, 36, cache)
        stats = cache.stats()
        assert stats["misses"] == 3
        assert stats["evictions"] >= 1
        assert stats["current_bytes"] <= budget
        # 24x36 was the least recently used -> gone; 26x36 must be resident.
        assert _key(24, 36) not in cache
        assert _key(26, 36) in cache

    def test_hit_refreshes_recency(self):
        plan = _resident(TransposePlan(24, 36))
        cache = PlanCache(max_bytes=int(plan.scratch_bytes * 2.5))
        _resident_plan(24, 36, cache)
        _resident_plan(25, 36, cache)
        plan_cache.get_single_plan(24, 36, "C", "c2r", "float64", cache=cache)  # hit
        _resident_plan(26, 36, cache)
        # The hit moved 24x36 to the MRU end, so 25x36 was evicted instead.
        assert _key(24, 36) in cache
        assert _key(25, 36) not in cache

    def test_oversize_plan_is_returned_but_never_retained(self):
        cache = PlanCache(max_bytes=64)
        plan = _resident_plan(32, 48, cache)
        assert plan.m == 32
        assert len(cache) == 0
        assert cache.stats()["oversize_rejects"] == 1

    def test_entry_grown_past_budget_is_dropped(self):
        """A plan inserted at ~0 bytes whose maps alone exceed the budget is
        dropped when they appear; the rest of the cache is untouched."""
        small = _resident(TransposePlan(12, 18)).scratch_bytes
        big = _resident(TransposePlan(64, 96)).scratch_bytes
        budget = 3 * small
        assert big > budget
        cache = PlanCache(max_bytes=budget)
        _resident_plan(12, 18, cache)
        _resident_plan(13, 18, cache)
        plan = plan_cache.get_single_plan(64, 96, "C", "c2r", "float64", cache=cache)
        assert _key(64, 96) in cache and len(cache) == 3
        buf = np.arange(64 * 96, dtype=np.float64)
        expected = buf.reshape(64, 96).T.ravel()
        plan.execute(buf, backend="numpy")
        np.testing.assert_array_equal(buf, expected)
        stats = cache.stats()
        assert _key(64, 96) not in cache
        assert _key(12, 18) in cache and _key(13, 18) in cache
        assert stats["oversize_rejects"] == 1
        assert stats["evictions"] == 0
        assert stats["current_bytes"] <= stats["max_bytes"]
        assert stats["current_bytes"] == sum(nb for _, nb in cache._plans.values())
        # The dropped plan keeps working, and never charges the cache again.
        plan.execute(buf, backend="numpy")
        assert cache.stats()["current_bytes"] == stats["current_bytes"]

    def test_stale_plan_never_charges_a_replacement_entry(self):
        cache = PlanCache()
        old = plan_cache.get_single_plan(24, 36, "C", "c2r", "float64", cache=cache)
        cache.clear()
        new = plan_cache.get_single_plan(24, 36, "C", "c2r", "float64", cache=cache)
        assert new is not old
        _resident(old)  # built after its entry was dropped: charges nothing
        assert cache.stats()["current_bytes"] == 0
        _resident(new)
        assert cache.stats()["current_bytes"] == new.scratch_bytes > 0

    def test_shrinking_budget_evicts_immediately(self):
        cache = PlanCache()
        _resident_plan(24, 36, cache)
        _resident_plan(25, 36, cache)
        cache.configure(max_bytes=0)
        assert len(cache) == 0
        assert cache.stats()["current_bytes"] == 0

    def test_disabled_cache_builds_but_does_not_retain(self):
        cache = PlanCache(enabled=False)
        p1 = plan_cache.get_single_plan(24, 36, "C", "c2r", "float64", cache=cache)
        p2 = plan_cache.get_single_plan(24, 36, "C", "c2r", "float64", cache=cache)
        assert p1 is not p2
        assert len(cache) == 0
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0


class TestKeying:
    def test_auto_resolves_to_heuristic_algorithm(self):
        cache = PlanCache()
        p_auto = plan_cache.get_single_plan(40, 24, "C", "auto", "float64", cache=cache)
        p_expl = plan_cache.get_single_plan(40, 24, "C", "c2r", "float64", cache=cache)
        assert p_auto is p_expl  # m > n -> c2r; auto and explicit share the entry
        assert cache.stats()["hits"] == 1

    def test_distinct_orders_and_dtypes_get_distinct_entries(self):
        cache = PlanCache()
        seen = set()
        for order in ("C", "F"):
            for dtype in ("float64", "float32"):
                plan = plan_cache.get_single_plan(
                    12, 18, order, "auto", dtype, cache=cache
                )
                seen.add(id(plan))
        assert len(cache) == 4
        assert len(seen) == 4

    def test_one_entry_per_shape_for_every_batch_count(self):
        # transpose_inplace and batched calls at any k share one plan
        m, n = 8, 12
        for k in (1, 2, 3, 8):
            batched_transpose_inplace(np.zeros(k * m * n), m, n)
            transpose_inplace(np.zeros(m * n), m, n)
        cache = plan_cache.get_plan_cache()
        assert len(cache) == 1
        assert cache.stats()["misses"] == 1
        assert plan_cache.get_batched_plan(
            m, n, "C", "auto", "float64"
        ) is plan_cache.get_single_plan(m, n, "C", "auto", "float64")


class TestDifferential:
    """Cached and uncached paths must produce bit-identical buffers."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "m,n", [(1, 1), (1, 17), (13, 1), (12, 18), (18, 12), (31, 37), (48, 48)]
    )
    def test_cached_matches_uncached(self, m, n, order):
        base = np.arange(m * n, dtype=np.float64)
        cached = base.copy()
        uncached = base.copy()
        transpose_inplace(cached, m, n, order)
        transpose_inplace(uncached, m, n, order, use_plan_cache=False)
        np.testing.assert_array_equal(cached, uncached)
        # And once more through the now-warm cache.
        warm = base.copy()
        transpose_inplace(warm, m, n, order)
        np.testing.assert_array_equal(warm, uncached)

    def test_cached_matches_strict_kernel(self):
        m, n = 21, 35
        base = np.arange(m * n, dtype=np.int64)
        cached = base.copy()
        strict = base.copy()
        transpose_inplace(cached, m, n)
        transpose_inplace(strict, m, n, variant="gather", aux="strict",
                          use_plan_cache=False)
        np.testing.assert_array_equal(cached, strict)

    def test_batched_cached_matches_uncached(self):
        k, m, n = 5, 9, 15
        base = np.arange(k * m * n, dtype=np.float64)
        cached = base.copy()
        uncached = base.copy()
        batched_transpose_inplace(cached, m, n)
        batched_transpose_inplace(uncached, m, n, use_plan_cache=False)
        np.testing.assert_array_equal(cached, uncached)
        expected = base.reshape(k, m, n).transpose(0, 2, 1).reshape(-1)
        np.testing.assert_array_equal(cached, expected)

    def test_use_plan_cache_rejected_for_noncached_configs(self):
        buf = np.arange(12.0)
        with pytest.raises(ValueError):
            transpose_inplace(buf, 3, 4, aux="strict", use_plan_cache=True)

    def test_noncontiguous_buffer_rejected_on_cached_path(self):
        buf = np.arange(48.0)[::2]
        with pytest.raises(ValueError, match="contiguous"):
            transpose_inplace(buf, 4, 6)


class TestConcurrency:
    def test_concurrent_mixed_shapes_through_global_cache(self):
        shapes = [(12, 18), (18, 12), (7, 29), (16, 16)]
        expected = {
            (m, n): np.arange(m * n, dtype=np.float64).reshape(m, n).T.copy().ravel()
            for m, n in shapes
        }
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def worker(tid: int) -> None:
            try:
                start.wait()
                for i in range(12):
                    m, n = shapes[(tid + i) % len(shapes)]
                    buf = np.arange(m * n, dtype=np.float64)
                    transpose_inplace(buf, m, n)
                    np.testing.assert_array_equal(buf, expected[(m, n)])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = plan_cache.stats()
        # Every lookup is accounted for: 8 threads x 12 calls, each exactly
        # one hit or one miss.
        assert stats["hits"] + stats["misses"] == 8 * 12
        assert stats["hits"] > 0
        assert len(plan_cache.get_plan_cache()) == len(shapes)

    def test_cold_key_race_builds_one_shared_plan(self):
        cache = PlanCache()
        plans: list[object] = []
        lock = threading.Lock()
        start = threading.Barrier(6)

        def worker() -> None:
            start.wait()
            plan = plan_cache.get_single_plan(
                30, 42, "C", "auto", "float64", cache=cache
            )
            with lock:
                plans.append(plan)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All callers ended up sharing the single resident plan.
        resident = plan_cache.get_single_plan(30, 42, "C", "auto", "float64", cache=cache)
        assert all(p is resident for p in plans)
        assert len(cache) == 1

    def test_concurrent_eviction_pressure_stays_consistent(self):
        plan = _resident(TransposePlan(24, 36))
        cache = PlanCache(max_bytes=int(plan.scratch_bytes * 3.5))
        start = threading.Barrier(4)
        errors: list[Exception] = []

        def worker(tid: int) -> None:
            try:
                start.wait()
                for i in range(20):
                    mm = 24 + ((tid * 7 + i) % 10)
                    _resident_plan(mm, 36, cache)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["current_bytes"] <= stats["max_bytes"]
        assert stats["evictions"] > 0
        # current_bytes must equal the sum of resident plan footprints.
        resident = sum(nb for _, nb in cache._plans.values())
        assert stats["current_bytes"] == resident

    @pytest.mark.parametrize("kind", ["single", "batched"])
    def test_concurrent_first_executes_build_and_charge_maps_once(
        self, kind, monkeypatch
    ):
        cache = PlanCache()
        m, n, k = 48, 36, 4
        if kind == "single":
            plan = plan_cache.get_single_plan(m, n, "C", "c2r", "float64", cache=cache)
            size = m * n
        else:
            plan = plan_cache.get_batched_plan(
                m, n, "C", "c2r", "float64", cache=cache
            )
            size = k * m * n
        other = _resident_plan(24, 36, cache)
        builds: list[object] = []
        real_build = plan._build_maps

        def counting_build(dec):
            builds.append(dec)
            sleep(0.05)  # hold the plan lock while the other threads arrive
            return real_build(dec)

        monkeypatch.setattr(plan, "_build_maps", counting_build)
        execute = plan.execute if kind == "single" else plan.execute_batch
        base = np.arange(size, dtype=np.float64)
        expected = base.copy()
        if kind == "single":
            TransposePlan(m, n, "C", "c2r").execute(expected, backend="numpy")
        else:
            batched_transpose_inplace(expected, m, n, use_plan_cache=False)
        start = threading.Barrier(8)
        errors: list[Exception] = []

        def worker() -> None:
            try:
                start.wait()
                buf = base.copy()
                execute(buf, backend="numpy")
                np.testing.assert_array_equal(buf, expected)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(builds) == 1
        stats = cache.stats()
        assert plan.scratch_bytes > 0
        assert stats["current_bytes"] == plan.scratch_bytes + other.scratch_bytes
        assert stats["current_bytes"] == sum(nb for _, nb in cache._plans.values())


class TestAmortization:
    def test_repeated_shapes_hit_cache_and_run_faster(self):
        """The acceptance check: on >= 3 repeated shapes, a warm cache serves
        every call without building a plan or its maps, and the best cached
        call beats the best call that plans each time."""
        shapes = [(96, 144), (144, 96), (120, 120), (80, 200)]
        reps = 12
        cache = plan_cache.get_plan_cache()

        def timed(call, proto: np.ndarray) -> float:
            buf = proto.copy()
            t0 = perf_counter()
            call(buf)
            return perf_counter() - t0

        for m, n in shapes:
            # warm: the miss builds the plan, its first execute the maps
            transpose_inplace(np.arange(m * n, dtype=np.float64), m, n)
        before = cache.stats()
        uncached_t = cached_t = 0.0
        for m, n in shapes:
            proto = np.arange(m * n, dtype=np.float64)
            # Interleaved best-of-N per call: both sides see the same
            # machine load, and the minimum drops scheduler noise.
            uncached, cached = [], []
            for _ in range(reps):
                uncached.append(timed(
                    lambda buf: transpose_inplace(buf, m, n, use_plan_cache=False),
                    proto,
                ))
                cached.append(timed(lambda buf: transpose_inplace(buf, m, n), proto))
            uncached_t += min(uncached)
            cached_t += min(cached)
        after = cache.stats()

        assert after["hits"] - before["hits"] == len(shapes) * reps
        # The mechanism: the cached phase plans nothing and builds no maps.
        assert after["misses"] == before["misses"]
        assert after["build_seconds"] == before["build_seconds"]
        assert after["current_bytes"] == before["current_bytes"]
        # Planning costs about one pass over the data (Section 4), so cached
        # execution should win clearly; 0.9 leaves margin for timer noise.
        assert cached_t < uncached_t * 0.9, (
            f"cached {cached_t:.4f}s not faster than uncached {uncached_t:.4f}s"
        )
