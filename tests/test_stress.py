"""Stress tests: larger shapes across the whole stack.

Property tests keep shapes small for exhaustive checks; these runs push
realistic sizes through every layer once, catching anything that only
manifests at scale (index overflows, scratch sizing, view aliasing).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.aos import aos_to_soa_flat, soa_to_aos_flat
from repro.core import (
    BatchedTransposePlan,
    TransposePlan,
    transpose_inplace,
)
from repro.core.tensor import swap_first_axes_inplace
from repro.parallel import ParallelTranspose, parallel_transpose_inplace
from repro.simd.cpu import deinterleave
from repro.stream import transpose_file_inplace


@pytest.fixture(autouse=True)
def _shadow_memory_sanitizer():
    """With ``REPRO_SANITIZE=1`` the whole stress suite runs under the
    shadow-memory sanitizer: every plan/parallel pass is checked for
    double writes, read-after-clobber and missed coverage (CI runs both
    configurations; locally the flag is opt-in because it adds a full
    bookkeeping pass per real pass)."""
    if os.environ.get("REPRO_SANITIZE", "0") in ("0", ""):
        yield
        return
    from repro.analysis import racecheck

    racecheck.enable()
    yield
    racecheck.disable()


class TestScale:
    def test_multi_megabyte_transpose(self):
        m, n = 1999, 2503  # ~40 MB float64, coprime
        A = np.arange(m * n, dtype=np.float64)
        transpose_inplace(A, m, n)
        # spot-check the permutation instead of materializing the oracle
        V = A.reshape(n, m)
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j = int(rng.integers(m)), int(rng.integers(n))
            assert V[j, i] == i * n + j
        transpose_inplace(A, n, m, algorithm="r2c")  # and back through R2C
        np.testing.assert_array_equal(A, np.arange(m * n, dtype=np.float64))

    def test_shared_factor_large(self):
        m, n = 1800, 2400  # gcd 600 -> full 3-pass path
        A = np.arange(m * n, dtype=np.float32)
        transpose_inplace(A, m, n)
        V = A.reshape(n, m)
        rng = np.random.default_rng(1)
        for _ in range(200):
            i, j = int(rng.integers(m)), int(rng.integers(n))
            assert V[j, i] == np.float32(i * n + j)
        transpose_inplace(A, n, m, algorithm="r2c")  # and back through R2C
        np.testing.assert_array_equal(A, np.arange(m * n, dtype=np.float32))

    def test_plan_reuse_many_buffers(self):
        m, n = 640, 512
        plan = TransposePlan(m, n)
        rng = np.random.default_rng(2)
        for _ in range(5):
            A = rng.standard_normal(m * n)
            expected_first = A.reshape(m, n)[:, 0].copy()
            plan.execute(A)
            np.testing.assert_array_equal(A.reshape(n, m)[0], expected_first)

    def test_parallel_large(self):
        m, n = 1024, 1536
        A = np.arange(m * n, dtype=np.float64)
        parallel_transpose_inplace(A, m, n, n_threads=4)
        V = A.reshape(n, m)
        assert V[5, 7] == 7 * n + 5
        with ParallelTranspose(4) as pt:
            pt.r2c(A, m, n)  # inverts the C2R transpose above
        np.testing.assert_array_equal(A, np.arange(m * n, dtype=np.float64))

    def test_streamed_file_large(self, tmp_path):
        m, n = 600, 800  # gcd 200, 3.8 MB through a 256 KiB window
        A = np.arange(m * n, dtype=np.float64)
        path = tmp_path / "m.bin"
        A.tofile(path)
        stats = transpose_file_inplace(
            path, m, n, np.float64, window_bytes=256 * 1024, n_threads=2
        )
        assert stats["bands"] > stats["passes"]
        V = np.fromfile(path, np.float64).reshape(n, m)
        assert V[5, 7] == 7 * n + 5
        transpose_file_inplace(  # and back through R2C
            path, n, m, np.float64, algorithm="r2c",
            window_bytes=256 * 1024, n_threads=2,
        )
        np.testing.assert_array_equal(np.fromfile(path, np.float64), A)

    def test_aos_soa_million_structs(self):
        N, S = 1_000_000, 6
        buf = np.arange(N * S, dtype=np.float64)
        soa = aos_to_soa_flat(buf, N, S)
        np.testing.assert_array_equal(soa[2, :5], np.arange(5) * S + 2)
        back = soa_to_aos_flat(buf, N, S)
        np.testing.assert_array_equal(back[:2, :], [[0, 1, 2, 3, 4, 5],
                                                    [6, 7, 8, 9, 10, 11]])

    def test_batched_stack(self):
        k, m, n = 128, 96, 112
        plan = BatchedTransposePlan(m, n)
        stack = np.arange(k * m * n, dtype=np.float32)
        plan.execute(stack)
        first = stack[: m * n].reshape(n, m)
        assert first[3, 5] == np.float32(5 * n + 3)
        BatchedTransposePlan(n, m, "C", "r2c").execute(stack)  # and back
        np.testing.assert_array_equal(
            stack, np.arange(k * m * n, dtype=np.float32)
        )

    def test_tensor_axis_swap_large(self):
        t = np.arange(256 * 192 * 8, dtype=np.float32).reshape(256, 192, 8)
        out = swap_first_axes_inplace(t)
        assert out[10, 20, 3] == np.float32((20 * 192 + 10) * 8 + 3)

    def test_wide_simd_deinterleave_large(self):
        m, count = 16, 2**16
        buf = np.arange(count * m, dtype=np.float32)
        soa = deinterleave(buf, m)
        np.testing.assert_array_equal(soa[7, :4], np.arange(4) * m + 7)

    def test_int_overflow_regime(self):
        """Index products near 2**31 stay exact (int64 index math)."""
        m, n = 46_337, 101  # m*n ~ 4.7M but i*n products large
        A = np.arange(m * n, dtype=np.int32)
        transpose_inplace(A, m, n)
        V = A.reshape(n, m)
        assert V[100, 46_336] == np.int32(46_336 * n + 100)
