"""Tests for batched in-place transposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchedTransposePlan, batched_transpose_inplace
from repro.core.batched import validate_batch_member

from ..conftest import dim_pairs

batch_sizes = st.integers(1, 6)
orders = st.sampled_from(["C", "F"])
algorithms = st.sampled_from(["auto", "c2r", "r2c"])


class TestBatched:
    @given(dim_pairs, batch_sizes, orders, algorithms)
    @settings(max_examples=60, deadline=None)
    def test_every_matrix_transposed(self, mn, k, order, algorithm):
        m, n = mn
        rng = np.random.default_rng(k)
        mats = [rng.standard_normal((m, n)) for _ in range(k)]
        buf = np.concatenate([A.ravel(order=order) for A in mats])
        batched_transpose_inplace(buf, m, n, order, algorithm=algorithm)
        for b, A in enumerate(mats):
            got = buf[b * m * n : (b + 1) * m * n]
            np.testing.assert_array_equal(got, A.T.ravel(order=order))

    @given(dim_pairs, batch_sizes)
    @settings(max_examples=30, deadline=None)
    def test_matches_unbatched(self, mn, k):
        from repro.core import transpose_inplace

        m, n = mn
        base = np.arange(k * m * n, dtype=np.float64)
        for algorithm in ("auto", "r2c"):
            batched = base.copy()
            batched_transpose_inplace(batched, m, n, algorithm=algorithm)
            loop = base.copy()
            for b in range(k):
                transpose_inplace(
                    loop[b * m * n : (b + 1) * m * n], m, n, algorithm=algorithm
                )
            np.testing.assert_array_equal(batched, loop)

    def test_accepts_2d_and_3d_views(self):
        m, n, k = 6, 4, 3
        base = np.arange(k * m * n, dtype=np.int64)
        flat = base.copy()
        two = base.copy().reshape(k, m * n)
        three = base.copy().reshape(k, m, n)
        plan = BatchedTransposePlan(m, n)
        plan.execute(flat)
        plan.execute(two)
        plan.execute(three)
        np.testing.assert_array_equal(flat, two.ravel())
        np.testing.assert_array_equal(flat, three.ravel())

    def test_plan_reusable_across_batches(self):
        plan = BatchedTransposePlan(5, 7)
        for k in (1, 4):
            buf = np.arange(k * 35, dtype=np.int64)
            plan.execute(buf)
            for b in range(k):
                np.testing.assert_array_equal(
                    buf[b * 35 : (b + 1) * 35].reshape(7, 5),
                    (np.arange(b * 35, (b + 1) * 35).reshape(5, 7)).T,
                )

    def test_numpy_maps_are_int32(self):
        # one int32 map per pass: at most 1.5x the two int32 gather maps a
        # single-matrix plan held when the batched plan kept int64 maps
        m, n = 256, 384  # gcd 128: the rotation pass runs too
        plan = BatchedTransposePlan(m, n)
        plan.execute(np.zeros(2 * m * n, dtype=np.uint8), backend="numpy")
        assert all(idx.dtype == np.int32 for _, idx in plan._steps)
        assert 0 < plan.scratch_bytes <= 1.5 * 2 * 4 * m * n

    def test_validates_inputs(self):
        plan = BatchedTransposePlan(3, 4)
        with pytest.raises(ValueError):
            plan.execute(np.zeros(13))  # not a multiple of 12
        with pytest.raises(ValueError):
            plan.execute(np.zeros((2, 11)))
        with pytest.raises(ValueError):
            plan.execute(np.zeros((2, 3, 5)))
        with pytest.raises(ValueError):
            BatchedTransposePlan(3, 4, order="Z")
        with pytest.raises(ValueError):
            BatchedTransposePlan(3, 4, algorithm="psychic")

    def test_repr(self):
        assert "BatchedTransposePlan" in repr(BatchedTransposePlan(3, 4))

    def test_rejects_read_only_buffer(self):
        buf = np.arange(12, dtype=np.float64)
        buf.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            BatchedTransposePlan(3, 4).execute(buf)


class TestValidateBatchMember:
    """The admission checks the serving batcher runs per coalesced member."""

    def test_accepts_flat_2d_and_stacked_layouts(self):
        validate_batch_member(np.zeros(12), 3, 4)
        validate_batch_member(np.zeros((3, 4)), 3, 4)
        validate_batch_member(np.zeros(24), 3, 4, count=2)
        validate_batch_member(np.zeros((2, 12)), 3, 4, count=2)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="count"):
            validate_batch_member(np.zeros(12), 3, 4, count=0)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="3-D"):
            validate_batch_member(np.zeros((1, 3, 4)), 3, 4)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="elements"):
            validate_batch_member(np.zeros(11), 3, 4)
        with pytest.raises(ValueError, match="elements"):
            validate_batch_member(np.zeros(12), 3, 4, count=2)

    def test_rejects_mismatched_2d_shape(self):
        # Right element count, wrong axes split.
        with pytest.raises(ValueError, match="shape"):
            validate_batch_member(np.zeros((4, 3)), 3, 4)

    def test_rejects_strided_view(self):
        base = np.zeros(24)
        with pytest.raises(ValueError, match="contiguous"):
            validate_batch_member(base[::2], 3, 4)

    def test_rejects_read_only_unless_waived(self):
        buf = np.zeros(12)
        buf.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            validate_batch_member(buf, 3, 4)
        # The serving path stages a copy, so it waives writeability.
        validate_batch_member(buf, 3, 4, require_writeable=False)

    def test_rejects_foreign_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            validate_batch_member(
                np.zeros(12, dtype=np.float32), 3, 4, np.float64
            )
        validate_batch_member(np.zeros(12, dtype=np.float32), 3, 4, np.float32)
