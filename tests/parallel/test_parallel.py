"""Tests for the parallel CPU transposition."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import transpose_inplace
from repro.parallel import (
    ParallelExecutor,
    ParallelTranspose,
    PassExecutionError,
    balanced_chunks,
    parallel_transpose_inplace,
)

from ..conftest import dim_pairs

thread_counts = st.sampled_from([1, 2, 3, 4, 8])

#: the dtype lattice the serving layer actually sees (narrow image tiles
#: through double precision)
DTYPES = [np.uint8, np.int32, np.float32, np.float64]

SHAPES = [(7, 13), (12, 12), (24, 18), (1, 17), (48, 36)]


class TestBalancedChunks:
    @given(st.integers(0, 1000), st.integers(1, 64))
    def test_cover_exactly_once(self, total, parts):
        chunks = balanced_chunks(total, parts)
        seen = []
        for ch in chunks:
            seen.extend(range(ch.start, ch.stop))
        assert seen == list(range(total))

    @given(st.integers(1, 1000), st.integers(1, 64))
    def test_sizes_differ_by_at_most_one(self, total, parts):
        chunks = balanced_chunks(total, parts)
        sizes = [ch.stop - ch.start for ch in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert all(s > 0 for s in sizes)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            balanced_chunks(-1, 2)
        with pytest.raises(ValueError):
            balanced_chunks(5, 0)

    def test_more_parts_than_items(self):
        assert len(balanced_chunks(3, 10)) == 3


class TestExecutor:
    def test_sequential_shortcut(self):
        ex = ParallelExecutor(1)
        out = []
        ex.parallel_for(10, lambda ch: out.extend(range(ch.start, ch.stop)))
        assert out == list(range(10))

    def test_parallel_covers_all(self):
        with ParallelExecutor(4) as ex:
            hits = np.zeros(1000, dtype=np.int64)
            lock = threading.Lock()

            def body(ch: slice) -> None:
                with lock:
                    hits[ch] += 1

            ex.parallel_for(1000, body)
            assert (hits == 1).all()

    def test_worker_exception_propagates(self):
        with ParallelExecutor(2) as ex:
            def body(ch: slice) -> None:
                raise RuntimeError("boom")

            with pytest.raises(RuntimeError, match="boom"):
                ex.parallel_for(10, body)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_chunk_failure_identifies_pass_and_chunk(self):
        """A failing chunk raises PassExecutionError carrying the pass name
        and the exact chunk slice, chained to the original exception."""
        with ParallelExecutor(2) as ex:
            def body(ch: slice) -> None:
                if ch.start == 0:
                    raise ValueError("boom")

            with pytest.raises(PassExecutionError) as ei:
                ex.parallel_for(10, body, name="row_shuffle")
        err = ei.value
        assert err.pass_name == "row_shuffle"
        assert (err.chunk.start, err.chunk.stop) == (0, 5)
        assert isinstance(err.__cause__, ValueError)
        assert "row_shuffle" in str(err) and "[0:5)" in str(err)

    def test_chunk_failure_sequential_path(self):
        ex = ParallelExecutor(1)

        def body(ch: slice) -> None:
            raise ValueError("boom")

        with pytest.raises(PassExecutionError) as ei:
            ex.parallel_for(4, body, name="column_shuffle")
        assert ei.value.pass_name == "column_shuffle"
        assert isinstance(ei.value.__cause__, ValueError)

    def test_chunk_failure_waits_for_in_flight(self):
        """parallel_for must not raise while another chunk is still running:
        the caller tears down shared state right after, so the barrier has
        to cover in-flight chunks even on the failure path."""
        release = threading.Event()
        slow_done = threading.Event()

        def body(ch: slice) -> None:
            if ch.start == 0:
                # the slow chunk: blocks until the timer releases it
                release.wait(timeout=10)
                slow_done.set()
            else:
                raise ValueError("boom")

        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with ParallelExecutor(2) as ex:
                with pytest.raises(PassExecutionError) as ei:
                    ex.parallel_for(10, body, name="p")
        finally:
            timer.cancel()
        # the raise happened only after the blocked chunk finished
        assert slow_done.is_set()
        assert ei.value.chunk.start == 5


class TestTransposeAbortsOnPassFailure:
    def test_failed_pass_stops_the_schedule(self, monkeypatch):
        """If row_shuffle fails, column_shuffle must never run: executing
        later passes over a half-permuted buffer would corrupt it further
        and mask the original error."""
        from repro.core import equations as eq_mod
        from repro.parallel import cpu

        # the plain //, % index maps: chunk_kernel(name, dec, None)
        plain = cpu.chunk_kernel
        monkeypatch.setattr(
            cpu, "chunk_kernel", lambda name, dec, red: plain(name, dec, None)
        )
        calls = []
        orig_sprime = eq_mod.sprime_v

        def boom(dec, i, j):
            raise ValueError("boom")

        def spy_sprime(dec, i, j):
            calls.append("column_shuffle")
            return orig_sprime(dec, i, j)

        monkeypatch.setattr(eq_mod, "dprime_inverse_v", boom)
        monkeypatch.setattr(eq_mod, "sprime_v", spy_sprime)
        m, n = 7, 13  # coprime: no pre-rotation, row_shuffle runs first
        buf = np.arange(m * n, dtype=np.float64)
        snapshot = buf.copy()
        with ParallelTranspose(2) as pt:
            with pytest.raises(PassExecutionError) as ei:
                pt.c2r(buf, m, n)
        assert ei.value.pass_name == "row_shuffle"
        assert calls == []  # column_shuffle never started
        # the index map raised before any write: buffer is untouched
        np.testing.assert_array_equal(buf, snapshot)


class TestParallelTranspose:
    @given(dim_pairs, thread_counts)
    @settings(max_examples=40, deadline=None)
    def test_c2r_matches_sequential_kernel(self, mn, threads):
        m, n = mn
        A = np.arange(m * n, dtype=np.float64)
        got = A.copy()
        with ParallelTranspose(threads) as pt:
            pt.c2r(got, m, n)
        ref = A.copy()
        transpose_inplace(ref, m, n, algorithm="c2r")
        np.testing.assert_array_equal(got, ref)

    @given(dim_pairs, thread_counts)
    @settings(max_examples=40, deadline=None)
    def test_r2c_inverts_c2r(self, mn, threads):
        m, n = mn
        A = np.arange(m * n, dtype=np.float64)
        buf = A.copy()
        with ParallelTranspose(threads) as pt:
            pt.c2r(buf, m, n)
            pt.r2c(buf, m, n)
        np.testing.assert_array_equal(buf, A)

    @given(dim_pairs, thread_counts, st.sampled_from(["C", "F"]))
    @settings(max_examples=40, deadline=None)
    def test_transpose_inplace_end_to_end(self, mn, threads, order):
        m, n = mn
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        buf = A.ravel(order=order).copy()
        parallel_transpose_inplace(buf, m, n, order, n_threads=threads)
        np.testing.assert_array_equal(buf, A.T.ravel(order=order))
        # explicit R2C ("auto" is C2R) runs on the swapped view (Theorem 2)
        vm, vn = (m, n) if order == "C" else (n, m)
        buf = A.ravel(order=order).copy()
        with ParallelTranspose(threads) as pt:
            pt.r2c(buf, vn, vm)
        np.testing.assert_array_equal(buf, A.T.ravel(order=order))

    @given(dim_pairs)
    @settings(max_examples=30, deadline=None)
    def test_strength_reduction_toggle_identical(self, mn):
        """The strength-reduced maps the engine runs and the plain //, %
        maps (``chunk_kernel(name, dec, None)``) permute identically."""
        from repro.analysis.racecheck import PASS_AXES, pass_order
        from repro.core.indexing import Decomposition
        from repro.parallel.cpu import chunk_kernel

        m, n = mn
        A = np.arange(m * n, dtype=np.float64)
        with_sr = A.copy()
        without_sr = A.copy()
        with ParallelTranspose(2) as pt:
            pt.c2r(with_sr, m, n)
        dec = Decomposition.of(m, n)
        V = without_sr.reshape(m, n)
        for name in pass_order("c2r", dec.c):
            total = getattr(dec, PASS_AXES[name][1])
            chunk_kernel(name, dec, None)(V, slice(0, total))
        np.testing.assert_array_equal(with_sr, without_sr)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_lattice_byte_identical(self, shape, order, dtype):
        m, n = shape
        A = np.arange(m * n, dtype=dtype).reshape(m, n)
        buf = np.ascontiguousarray(A.ravel(order=order))
        ref = np.ascontiguousarray(A.T.ravel(order=order))
        r2c_buf = buf.copy()
        vm, vn = (m, n) if order == "C" else (n, m)
        with ParallelTranspose(2) as pt:
            pt.transpose_inplace(buf, m, n, order)
            pt.r2c(r2c_buf, vn, vm)  # explicit R2C on the swapped view
        assert buf.tobytes() == ref.tobytes()
        assert r2c_buf.tobytes() == ref.tobytes()

    def test_buffer_validated(self):
        with ParallelTranspose(1) as pt:
            with pytest.raises(ValueError):
                pt.c2r(np.zeros(5), 2, 3)
            with pytest.raises(ValueError):
                pt.r2c(np.zeros(5), 2, 3)
            with pytest.raises(ValueError):
                pt.r2c(np.zeros(12)[::2], 2, 3)  # non-contiguous view
            with pytest.raises(ValueError):
                pt.transpose_inplace(np.zeros(6), 2, 3, "Z")

    def test_medium_matrix_many_threads(self):
        rng = np.random.default_rng(7)
        m, n = 173, 240
        A = rng.standard_normal((m, n))
        buf = A.ravel().copy()
        parallel_transpose_inplace(buf, m, n, n_threads=8)
        np.testing.assert_array_equal(buf, A.T.ravel())
        buf = A.ravel().copy()
        with ParallelTranspose(8) as pt:
            pt.r2c(buf, n, m)
        np.testing.assert_array_equal(buf, A.T.ravel())
