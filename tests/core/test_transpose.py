"""End-to-end tests for the C2R/R2C kernels and the public API."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchedTransposePlan,
    TransposePlan,
    WorkCounter,
    c2r_transpose,
    choose_algorithm,
    r2c_transpose,
    transpose,
    transpose_inplace,
)

from ..conftest import dim_pairs, element_dtypes

variants = st.sampled_from(["gather", "scatter", "restricted"])
aux_modes = st.sampled_from(["strict", "blocked"])
orders = st.sampled_from(["C", "F"])
algorithms = st.sampled_from(["auto", "c2r", "r2c"])


class TestC2R:
    @given(dim_pairs, variants, aux_modes)
    def test_transposes_rowmajor(self, mn, variant, aux):
        """Theorem 1: C2R == transposition for row-major arrays."""
        m, n = mn
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        buf = A.ravel().copy()
        c2r_transpose(buf, m, n, variant=variant, aux=aux)
        np.testing.assert_array_equal(buf.reshape(n, m), A.T)

    @given(dim_pairs, variants)
    def test_strict_equals_blocked(self, mn, variant):
        m, n = mn
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        s = A.ravel().copy()
        b = A.ravel().copy()
        c2r_transpose(s, m, n, variant=variant, aux="strict")
        c2r_transpose(b, m, n, variant=variant, aux="blocked")
        np.testing.assert_array_equal(s, b)

    @given(dim_pairs, variants)
    def test_theorem6_work_bound(self, mn, variant):
        """Theorem 6: Algorithm 1 reads and writes each element at most 6
        times (3 passes x 1 read + 1 write).  The restricted variant splits
        the column shuffle into two passes, so its bound is 8 accesses."""
        m, n = mn
        buf = np.arange(m * n, dtype=np.int64)
        cnt = WorkCounter()
        c2r_transpose(buf, m, n, variant=variant, aux="strict", counter=cnt)
        passes = 4 if variant == "restricted" else 3
        assert cnt.reads <= passes * m * n
        assert cnt.writes <= passes * m * n
        assert cnt.total <= 2 * passes * m * n

    @given(dim_pairs)
    def test_coprime_skips_rotation_work(self, mn):
        """When gcd(m, n) == 1 the pre-rotation pass vanishes: at most two
        passes of work are performed."""
        m, n = mn
        if np.gcd(m, n) != 1:
            return
        buf = np.arange(m * n, dtype=np.int64)
        cnt = WorkCounter()
        c2r_transpose(buf, m, n, variant="gather", aux="strict", counter=cnt)
        assert cnt.total <= 4 * m * n

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            c2r_transpose(np.zeros(6), 2, 3, variant="bogus")

    def test_bad_aux_rejected(self):
        with pytest.raises(ValueError):
            c2r_transpose(np.zeros(6), 2, 3, aux="bogus")

    def test_counter_requires_strict(self):
        with pytest.raises(ValueError):
            c2r_transpose(np.zeros(6), 2, 3, aux="blocked", counter=WorkCounter())

    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ValueError):
            c2r_transpose(np.zeros(5), 2, 3)


class TestR2C:
    @given(dim_pairs, variants, aux_modes)
    def test_inverts_c2r(self, mn, variant, aux):
        m, n = mn
        A = np.arange(m * n, dtype=np.int64)
        buf = A.copy()
        c2r_transpose(buf, m, n)
        r2c_transpose(buf, m, n, variant=variant, aux=aux)
        np.testing.assert_array_equal(buf, A)

    @given(dim_pairs, variants, aux_modes)
    def test_c2r_inverts_r2c(self, mn, variant, aux):
        m, n = mn
        A = np.arange(m * n, dtype=np.int64)
        buf = A.copy()
        r2c_transpose(buf, m, n, variant=variant, aux=aux)
        c2r_transpose(buf, m, n)
        np.testing.assert_array_equal(buf, A)

    @given(dim_pairs, aux_modes)
    def test_transposes_colmajor(self, mn, aux):
        """Theorem 1: R2C == transposition for column-major arrays."""
        m, n = mn
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        buf = A.ravel(order="F").copy()
        r2c_transpose(buf, m, n, aux=aux)
        np.testing.assert_array_equal(buf, A.T.ravel(order="F"))

    @given(dim_pairs, variants)
    def test_strict_equals_blocked(self, mn, variant):
        m, n = mn
        A = np.arange(m * n, dtype=np.int64)
        s, b = A.copy(), A.copy()
        r2c_transpose(s, m, n, variant=variant, aux="strict")
        r2c_transpose(b, m, n, variant=variant, aux="blocked")
        np.testing.assert_array_equal(s, b)

    @given(dim_pairs)
    def test_theorem6_work_bound(self, mn):
        m, n = mn
        buf = np.arange(m * n, dtype=np.int64)
        cnt = WorkCounter()
        r2c_transpose(buf, m, n, aux="strict", counter=cnt)
        assert cnt.total <= 6 * m * n


class TestTheorem2:
    @given(dim_pairs, aux_modes)
    def test_r2c_with_swapped_dims_transposes_rowmajor(self, mn, aux):
        m, n = mn
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        buf = A.ravel().copy()
        # Swap dimensions, then R2C: transposes a row-major array.
        r2c_transpose(buf, n, m, aux=aux)
        np.testing.assert_array_equal(buf.reshape(n, m), A.T)

    @given(dim_pairs, aux_modes)
    def test_c2r_with_swapped_dims_transposes_colmajor(self, mn, aux):
        m, n = mn
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        buf = A.ravel(order="F").copy()
        c2r_transpose(buf, n, m, aux=aux)
        np.testing.assert_array_equal(buf, A.T.ravel(order="F"))


class TestPublicAPI:
    @given(dim_pairs, orders, algorithms, element_dtypes)
    @settings(max_examples=60)
    def test_transpose_inplace_all_paths(self, mn, order, algorithm, dtype):
        m, n = mn
        A = np.arange(m * n, dtype=dtype).reshape(m, n)
        buf = A.ravel(order=order).copy()
        out = transpose_inplace(buf, m, n, order, algorithm=algorithm)
        assert out is buf
        np.testing.assert_array_equal(buf, A.T.ravel(order=order))

    @given(dim_pairs, orders)
    def test_cpu_resolver_is_c2r(self, mn, order):
        """``auto`` is C2R on every shape (the paper's m > n rule is the
        GPU model's, ``repro.gpusim.cost.paper_heuristic``)."""
        m, n = mn
        assert choose_algorithm(m, n) == "c2r"
        assert TransposePlan(m, n, order).algorithm == "c2r"

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError):
            transpose_inplace(np.zeros(6), 2, 3, algorithm="quantum")

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            transpose_inplace(np.zeros(6), 2, 3, "Z")

    @given(dim_pairs)
    def test_transpose_view_shares_memory(self, mn):
        m, n = mn
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        expected = A.copy().T
        B = transpose(A)
        assert B.shape == (n, m)
        assert np.shares_memory(A, B)
        np.testing.assert_array_equal(B, expected)

    @given(dim_pairs)
    def test_transpose_fortran_arrays(self, mn):
        m, n = mn
        A = np.asfortranarray(np.arange(m * n, dtype=np.float64).reshape(m, n))
        expected = A.copy().T
        B = transpose(A)
        np.testing.assert_array_equal(B, expected)

    def test_transpose_rejects_non2d(self):
        with pytest.raises(ValueError):
            transpose(np.zeros(6))

    def test_transpose_rejects_noncontiguous(self):
        A = np.zeros((8, 8))[::2, ::2]
        with pytest.raises(ValueError):
            transpose(A)

    def test_double_transpose_is_identity(self):
        A = np.random.default_rng(0).standard_normal((7, 12))
        orig = A.copy()
        B = transpose(A)
        C = transpose(B)
        np.testing.assert_array_equal(C, orig)


class TestPlan:
    @given(dim_pairs, orders, algorithms)
    @settings(max_examples=60)
    def test_plan_matches_direct_call(self, mn, order, algorithm):
        m, n = mn
        plan = TransposePlan(m, n, order, algorithm)
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        via_plan = A.ravel(order=order).copy()
        direct = A.ravel(order=order).copy()
        plan.execute(via_plan)
        transpose_inplace(direct, m, n, order, algorithm=algorithm)
        np.testing.assert_array_equal(via_plan, direct)

    def test_plan_reusable(self):
        plan = TransposePlan(6, 4)
        rng = np.random.default_rng(1)
        for _ in range(3):
            A = rng.standard_normal((6, 4))
            buf = A.ravel().copy()
            plan.execute(buf)
            np.testing.assert_array_equal(buf.reshape(4, 6), A.T)

    def test_plan_validates_buffer(self):
        with pytest.raises(ValueError):
            TransposePlan(2, 3).execute(np.zeros(7))

    def test_plan_repr_and_footprint(self):
        plan = TransposePlan(8, 6, "C", "c2r")
        assert "c2r" in repr(plan)
        # The gather maps are built by the first numpy execute, not before.
        assert plan.scratch_bytes == 0
        plan.execute(np.arange(48, dtype=np.float64), backend="numpy")
        assert plan.scratch_bytes > 0

    def test_plan_rejects_bad_args(self):
        with pytest.raises(ValueError):
            TransposePlan(2, 3, order="X")
        with pytest.raises(ValueError):
            TransposePlan(2, 3, algorithm="warp")


class TestPlanPickle:
    """Plans pickle by identity, not by payload."""

    @pytest.mark.parametrize("cls", [TransposePlan, BatchedTransposePlan])
    def test_reduce_ships_identity_not_maps(self, cls):
        plan = cls(48, 36, "C", "auto")
        blob = pickle.dumps(plan)
        # The O(mn) gather maps would be tens of kilobytes; the identity
        # tuple pickles in well under one.
        assert len(blob) < 512

    def test_unpickled_plan_behaves_identically(self):
        m, n = 24, 18
        plan = TransposePlan(m, n, "C", "auto")
        clone = pickle.loads(pickle.dumps(plan))
        a = np.arange(m * n, dtype=np.float64)
        b = a.copy()
        plan.execute(a)
        clone.execute(b)
        np.testing.assert_array_equal(a, b)

    def test_unpickled_batched_plan_behaves_identically(self):
        m, n = 12, 20
        plan = BatchedTransposePlan(m, n, "C", "auto")
        clone = pickle.loads(pickle.dumps(plan))
        a = np.arange(3 * m * n, dtype=np.float64).reshape(3, m * n)
        b = a.copy()
        plan.execute(a)
        clone.execute(b)
        np.testing.assert_array_equal(a, b)
