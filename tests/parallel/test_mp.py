"""Tests for the multiprocess shared-memory backend (repro.parallel.mp)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import transpose_inplace
from repro.core.batched import BatchedTransposePlan
from repro.core.plan import TransposePlan
from repro.parallel import ParallelTranspose, PassExecutionError
from repro.parallel.mp import MpExecutor, _pass_chunk_task
from repro.parallel.shm import SharedArray, owned_segments

from ..conftest import dim_pairs

#: the dtype lattice the serving layer actually sees (narrow image tiles
#: through double precision)
DTYPES = [np.uint8, np.int32, np.float32, np.float64]

SHAPES = [(7, 13), (12, 12), (24, 18), (1, 17), (48, 36)]


@pytest.fixture(scope="module")
def mp_pt():
    """One persistent mp transposer: the process pool is far too expensive
    to spin up per test case."""
    with ParallelTranspose(2, backend="mp") as pt:
        yield pt


def _reference(m: int, n: int, order: str, dtype) -> tuple[np.ndarray, np.ndarray]:
    A = np.arange(m * n, dtype=dtype).reshape(m, n)
    buf = np.ascontiguousarray(A.ravel(order=order))
    ref = np.ascontiguousarray(A.T.ravel(order=order))
    return buf, ref


def _explicit_r2c(pt, buf: np.ndarray, m: int, n: int, order: str) -> None:
    """Transpose through R2C, which ``"auto"`` never picks (it is C2R): R2C
    runs on the dimension-swapped view (Theorem 2)."""
    vm, vn = (m, n) if order == "C" else (n, m)
    pt.r2c(buf, vn, vm)


class TestMpDifferential:
    """backend="mp" must be byte-identical to the sequential kernel."""

    @given(dim_pairs)
    @settings(max_examples=15, deadline=None)
    def test_matches_sequential(self, mp_pt, mn):
        m, n = mn
        buf, ref = _reference(m, n, "C", np.float64)
        r2c_buf = buf.copy()
        mp_pt.transpose_inplace(buf, m, n)
        np.testing.assert_array_equal(buf, ref)
        _explicit_r2c(mp_pt, r2c_buf, m, n, "C")
        np.testing.assert_array_equal(r2c_buf, ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_dtype_order_lattice_byte_identical(self, mp_pt, shape, order, dtype):
        m, n = shape
        buf, ref = _reference(m, n, order, dtype)
        r2c_buf = buf.copy()
        mp_pt.transpose_inplace(buf, m, n, order)
        assert buf.tobytes() == ref.tobytes()
        _explicit_r2c(mp_pt, r2c_buf, m, n, order)
        assert r2c_buf.tobytes() == ref.tobytes()

    def test_c2r_matches_sequential_kernel(self, mp_pt):
        m, n = 24, 18  # gcd > 1: exercises the rotation passes too
        A = np.arange(m * n, dtype=np.float64)
        got = A.copy()
        mp_pt.c2r(got, m, n)
        ref = A.copy()
        transpose_inplace(ref, m, n, algorithm="c2r")
        np.testing.assert_array_equal(got, ref)

    def test_r2c_inverts_c2r(self, mp_pt):
        m, n = 15, 10
        A = np.arange(m * n, dtype=np.float64)
        buf = A.copy()
        mp_pt.c2r(buf, m, n)
        mp_pt.r2c(buf, m, n)
        np.testing.assert_array_equal(buf, A)

    def test_no_segments_leaked(self, mp_pt):
        buf, ref = _reference(31, 22, "C", np.float64)
        mp_pt.transpose_inplace(buf, 31, 22)
        np.testing.assert_array_equal(buf, ref)
        assert owned_segments() == []

    def test_buffer_validated(self, mp_pt):
        with pytest.raises(ValueError):
            mp_pt.c2r(np.zeros(5), 2, 3)
        with pytest.raises(ValueError):
            mp_pt.r2c(np.zeros(12)[::2], 2, 3)  # non-contiguous view
        with pytest.raises(ValueError):
            mp_pt.transpose_inplace(np.zeros(6), 2, 3, "Z")
        assert owned_segments() == []


class TestMpExecutorFailure:
    def test_chunk_failure_raises_pass_execution_error(self, mp_pt):
        """A task failing in a worker surfaces as PassExecutionError with
        the pass name and chunk, exactly like the thread executor."""
        ex: MpExecutor = mp_pt._mp.executor
        seg = SharedArray((4, 6), np.float64)
        try:
            tasks = [
                (slice(0, 2), (seg.name, 4, 6, seg.dtype.str, "bogus", 0, 2, True)),
                (slice(2, 4), (seg.name, 4, 6, seg.dtype.str, "bogus", 2, 4, True)),
            ]
            with pytest.raises(PassExecutionError) as ei:
                ex.run_chunks("bogus", _pass_chunk_task, tasks)
        finally:
            seg.destroy()
        err = ei.value
        assert err.pass_name == "bogus"
        assert isinstance(err.__cause__, ValueError)
        assert "bogus" in str(err)
        assert owned_segments() == []

    def test_failed_transpose_destroys_segment(self, mp_pt, monkeypatch):
        """A pass failure mid-schedule must still unlink the staging
        segment (the finally path) and leave the input buffer as it was."""
        mp = mp_pt._mp

        def boom(seg, dec, name, total):
            raise PassExecutionError(name, slice(0, 1), ValueError("boom"))

        monkeypatch.setattr(mp, "_run_pass", boom)
        buf = np.arange(6.0)
        snapshot = buf.copy()
        with pytest.raises(PassExecutionError):
            mp.c2r(buf, 2, 3)
        np.testing.assert_array_equal(buf, snapshot)
        assert owned_segments() == []


class TestPlanPickle:
    """Plans cross the process boundary by identity, not by payload."""

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
