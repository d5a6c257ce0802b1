"""Concurrency robustness: plans are safe to share across threads (their
identity is fixed at construction and their gather maps are built once,
under the plan's lock, by whichever thread first needs them); executors are
reusable."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core import BatchedTransposePlan, TransposePlan
from repro.parallel import ParallelExecutor, ParallelTranspose


@pytest.fixture(autouse=True)
def _shadow_memory_sanitizer():
    """With ``REPRO_SANITIZE=1`` the concurrency suite runs under the
    shadow-memory sanitizer; concurrent plan executions serialize on the
    sanitizer's execution lock (TSAN-style), so thread-safety of the plan
    objects is still exercised while each pass gets exact write accounting."""
    if os.environ.get("REPRO_SANITIZE", "0") in ("0", ""):
        yield
        return
    from repro.analysis import racecheck

    racecheck.enable()
    yield
    racecheck.disable()


class TestPlanThreadSafety:
    def test_one_plan_many_threads(self):
        m, n = 96, 132
        plan = TransposePlan(m, n)
        A = np.arange(m * n, dtype=np.float64)
        expected = A.reshape(m, n).T.copy().ravel()
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            try:
                for _ in range(5):
                    buf = A.copy()
                    plan.execute(buf)
                    np.testing.assert_array_equal(buf, expected)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_batched_plan_shared(self):
        plan = BatchedTransposePlan(24, 36)
        base = np.arange(4 * 24 * 36, dtype=np.float64)
        results = []

        def worker() -> None:
            buf = base.copy()
            plan.execute(buf)
            results.append(buf)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for r in results[1:]:
            np.testing.assert_array_equal(r, results[0])


class TestExecutorReuse:
    def test_sequential_reuse_of_pool(self):
        with ParallelExecutor(3) as ex:
            for total in (10, 100, 7):
                seen = np.zeros(total, dtype=np.int64)
                lock = threading.Lock()

                def body(ch: slice) -> None:
                    with lock:
                        seen[ch] += 1

                ex.parallel_for(total, body)
                assert (seen == 1).all()

    def test_transposer_reuse_across_shapes(self):
        with ParallelTranspose(2) as pt:
            for m, n in [(12, 18), (31, 7), (40, 40)]:
                A = np.arange(m * n, dtype=np.float64)
                buf = A.copy()
                pt.transpose_inplace(buf, m, n)
                np.testing.assert_array_equal(
                    buf.reshape(n, m), A.reshape(m, n).T
                )
