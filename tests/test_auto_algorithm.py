"""``algorithm="auto"`` resolves to C2R on every CPU path.

Each public entry point is run twice on the same buffer: once with
``"auto"`` and once asking for C2R explicitly.  The bytes must match each
other and the out-of-place transpose, and where the path keeps a plan in
the process-wide cache, the entry it used must be the ``"c2r"`` one.
Shapes cover ``m < n``, ``m > n`` and ``m == n`` (the paper's GPU rule
would pick R2C for the first and last), at sizes above the native floor so
the compiled kernels run when a toolchain is present.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.core.batched import batched_transpose_inplace
from repro.core.transpose import transpose_inplace
from repro.parallel import ParallelTranspose
from repro.runtime import metrics, plan_cache
from repro.stream import transpose_file_inplace

SHAPES = [(96, 200), (200, 96), (128, 128)]
ORDERS = ["C", "F"]
DTYPE = np.dtype(np.float32)


@pytest.fixture(autouse=True)
def _clean_state():
    plan_cache.clear()
    metrics.reset()
    yield
    plan_cache.clear()
    metrics.reset()


def _proto(m: int, n: int, k: int = 1) -> np.ndarray:
    return np.arange(k * m * n).astype(DTYPE)


def _expected(buf: np.ndarray, m: int, n: int, order: str) -> np.ndarray:
    A = buf.reshape(m, n, order=order)
    return np.ascontiguousarray(A.T.ravel(order=order))


def _view(m: int, n: int, order: str) -> tuple[int, int]:
    """The row-major view C2R runs on (Theorem 7)."""
    return (m, n) if order == "C" else (n, m)


def _cached_algorithms() -> set[str]:
    return {key.algorithm for key in plan_cache.get_plan_cache()._plans}


def _parallel_calls() -> dict:
    counters = metrics.registry.snapshot()["counters"]
    return {
        alg: counters.get(f"parallel.{alg}.calls", 0) for alg in ("c2r", "r2c")
    }


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m,n", SHAPES)
class TestAutoIsC2R:
    def test_single(self, m, n, order):
        proto = _proto(m, n)
        auto = transpose_inplace(proto.copy(), m, n, order)
        explicit = transpose_inplace(proto.copy(), m, n, order, algorithm="c2r")
        assert auto.tobytes() == explicit.tobytes()
        np.testing.assert_array_equal(auto, _expected(proto, m, n, order))
        key = plan_cache.PlanKey(m, n, order, "c2r", str(DTYPE))
        assert key in plan_cache.get_plan_cache()
        assert _cached_algorithms() == {"c2r"}

    def test_batched(self, m, n, order):
        k = 3
        proto = _proto(m, n, k)
        auto = batched_transpose_inplace(proto.copy(), m, n, order)
        explicit = batched_transpose_inplace(
            proto.copy(), m, n, order, algorithm="c2r"
        )
        assert auto.tobytes() == explicit.tobytes()
        tiles = proto.reshape(k, m * n)
        for got, tile in zip(auto.reshape(k, m * n), tiles):
            np.testing.assert_array_equal(got, _expected(tile, m, n, order))
        key = plan_cache.PlanKey(m, n, order, "c2r", str(DTYPE))
        assert key in plan_cache.get_plan_cache()
        assert _cached_algorithms() == {"c2r"}

    def test_threads(self, m, n, order):
        proto = _proto(m, n)
        vm, vn = _view(m, n, order)
        with ParallelTranspose(2) as pt:
            auto = pt.transpose_inplace(proto.copy(), m, n, order)
            explicit = pt.c2r(proto.copy(), vm, vn)
        assert auto.tobytes() == explicit.tobytes()
        np.testing.assert_array_equal(auto, _expected(proto, m, n, order))
        assert _parallel_calls() == {"c2r": 2, "r2c": 0}
        if native.available():
            # the native chunks resolve their kernel through the c2r plan
            key = plan_cache.PlanKey(vm, vn, "C", "c2r", str(DTYPE))
            assert key in plan_cache.get_plan_cache()
        assert _cached_algorithms() <= {"c2r"}

    def test_streamed(self, tmp_path, m, n, order):
        proto = _proto(m, n)
        auto_path, explicit_path = tmp_path / "auto.bin", tmp_path / "c2r.bin"
        proto.tofile(auto_path)
        proto.tofile(explicit_path)
        # a window below the matrix size so the run is genuinely banded
        window = proto.nbytes // 3
        stats = transpose_file_inplace(
            auto_path, m, n, DTYPE, order, window_bytes=window
        )
        explicit = transpose_file_inplace(
            explicit_path, m, n, DTYPE, order, algorithm="c2r",
            window_bytes=window,
        )
        assert stats["algorithm"] == explicit["algorithm"] == "c2r"
        assert stats["bands"] > stats["passes"]
        assert auto_path.read_bytes() == explicit_path.read_bytes()
        got = np.fromfile(auto_path, dtype=DTYPE)
        np.testing.assert_array_equal(got, _expected(proto, m, n, order))
