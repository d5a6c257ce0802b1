"""BandedExecutor: byte-exact banded transposes across shapes, orders
and algorithms, schedule-proof gating, and failure semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stream import (
    BandedExecutor,
    BandedScheduleError,
    transpose_file_inplace,
)
from repro.parallel import engine

#: a window small enough to force many bands on every test shape
TINY_WINDOW = 64 * 1024


def _write(tmp_path, A: np.ndarray, order: str = "C"):
    path = tmp_path / "m.bin"
    A.ravel(order=order).tofile(path)
    return path


def _read(path, n, m, dtype, order):
    flat = np.fromfile(path, dtype=dtype)
    return flat.reshape(n, m) if order == "C" else flat.reshape(n, m, order="F")


class TestBandedTranspose:
    @pytest.mark.parametrize("m,n", [
        (8, 8), (12, 18), (18, 12), (31, 17), (40, 25), (96, 64), (17, 1),
    ])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_shapes_and_orders(self, tmp_path, m, n, order):
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        for algorithm in ("c2r", "r2c"):
            path = _write(tmp_path, A, order)
            stats = transpose_file_inplace(
                path, m, n, np.int64, order,
                algorithm=algorithm, window_bytes=TINY_WINDOW,
            )
            np.testing.assert_array_equal(
                _read(path, n, m, np.int64, order), A.T
            )
            assert stats["m"] == m and stats["n"] == n
            assert stats["algorithm"] == algorithm
            assert stats["bands"] >= 1 and stats["passes"] >= 2

    @pytest.mark.parametrize("algorithm", ["auto", "c2r", "r2c"])
    def test_algorithms(self, tmp_path, algorithm):
        A = np.arange(48 * 36, dtype=np.float64).reshape(48, 36)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, 48, 36, np.float64,
            algorithm=algorithm, window_bytes=TINY_WINDOW,
        )
        np.testing.assert_array_equal(_read(path, 36, 48, np.float64, "C"), A.T)
        assert stats["algorithm"] == ("c2r" if algorithm == "auto" else algorithm)

    def test_many_bands_forced(self, tmp_path):
        # 4 KiB window over a 72 KiB file: every pass must band.
        m, n = 96, 96
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, m, n, np.int64, window_bytes=4096
        )
        assert stats["bands"] > stats["passes"]
        np.testing.assert_array_equal(_read(path, n, m, np.int64, "C"), A.T)

    def test_threaded_chunks_within_bands(self, tmp_path):
        m, n = 60, 84
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = _write(tmp_path, A)
        with BandedExecutor(3, window_bytes=TINY_WINDOW) as ex:
            stats = ex.transpose_file(path, m, n, np.float64)
        assert stats["threads"] == 3
        np.testing.assert_array_equal(_read(path, n, m, np.float64, "C"), A.T)

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    @pytest.mark.parametrize("m,n,dtype,window", [
        (36, 60, np.int64, 4096),  # numpy chunks, rotate pass (gcd 12)
        (300, 500, np.float32, TINY_WINDOW),  # native-sized (gcd 100)
    ])
    def test_threaded_io_blocks_byte_identical(
        self, tmp_path, n_threads, order, algorithm, m, n, dtype, window
    ):
        """Row bands in place, the reused column buffer and column copies
        split over the workers in page-sized blocks: byte for byte what
        numpy's transpose gives."""
        A = np.random.default_rng(m + n).integers(0, 1 << 30, (m, n)).astype(dtype)
        path = _write(tmp_path, A, order)
        stats = transpose_file_inplace(
            path, m, n, dtype, order, algorithm=algorithm,
            window_bytes=window, io_block_bytes=4096, n_threads=n_threads,
        )
        assert stats["bands"] > stats["passes"]
        want = np.ascontiguousarray(np.transpose(A)).ravel(order=order)
        assert np.fromfile(path, dtype=dtype).tobytes() == want.tobytes()

    def test_executor_reuse_across_files(self, tmp_path):
        with BandedExecutor(2, window_bytes=TINY_WINDOW) as ex:
            for i, (m, n) in enumerate([(12, 18), (25, 40)]):
                A = np.arange(m * n, dtype=np.int32).reshape(m, n)
                path = tmp_path / f"f{i}.bin"
                A.tofile(path)
                ex.transpose_file(path, m, n, np.int32)
                np.testing.assert_array_equal(
                    _read(path, n, m, np.int32, "C"), A.T
                )

    def test_round_trip_restores_file(self, tmp_path):
        A = np.random.default_rng(7).standard_normal((37, 53))
        path = _write(tmp_path, A)
        transpose_file_inplace(path, 37, 53, np.float64, window_bytes=4096)
        transpose_file_inplace(path, 53, 37, np.float64, window_bytes=4096)
        np.testing.assert_array_equal(np.fromfile(path, np.float64), A.ravel())

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_native_sized_bands(self, tmp_path, algorithm):
        """Shapes above the native min-elems floor: the banded path runs
        the compiled row kernels against a shifted band base (regression:
        the r2c kernel was once built for the transposed shape, writing
        out of bounds)."""
        m, n = 300, 500  # 150k elements > REPRO_NATIVE_MIN_ELEMS default
        A = np.arange(m * n, dtype=np.float32).reshape(m, n)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, m, n, np.float32,
            algorithm=algorithm, window_bytes=TINY_WINDOW,
        )
        assert stats["bands"] > stats["passes"]
        np.testing.assert_array_equal(
            _read(path, n, m, np.float32, "C"), A.T
        )


def _native_compiler() -> bool:
    from repro import native

    return native.available()


def _sanitized() -> bool:
    """The shadow-memory sanitizer forces numpy bands (no kernel runs)."""
    from repro.analysis import racecheck

    return racecheck.sanitizer.enabled


#: one window per band count asked of every column-facing pass:
#: 1, 2 and at least 5 bands (a column band of the lattice shape is
#: m * itemsize bytes per column)
_LATTICE_BANDS = (1, 2, 5)


@pytest.mark.skipif(not _native_compiler(), reason="no C toolchain")
class TestStreamedLattice:
    """``transpose_file_inplace`` against ``np.transpose`` byte for byte,
    over both algorithms, ``c = 1`` and ``c > 1``, narrow and wide column
    groups, every item width, both storage orders, one to many bands and
    one or two threads.  The shapes sit above the native size floor, so
    every column and rotation band runs through the band copies."""

    #: (m, n): coprime (c = 1); c = 24 with narrow groups (a = 5, b = 7:
    #: a group row is under a cache line at every width but 16); c = 2
    #: with wide groups (a = 64, b = 65) on both algorithms' views
    SHAPES = [(127, 129), (120, 168), (128, 130)]

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("itemsize", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_lattice_byte_identical(self, tmp_path, monkeypatch, m, n,
                                    itemsize, order, n_threads):
        from repro.core.indexing import Decomposition
        from repro.native.kernel import NativeKernel

        monkeypatch.setenv("REPRO_NATIVE_MIN_ELEMS", "1")
        copies: list[str] = []
        real = NativeKernel.run_pass_banded

        def counted(self, idx, phase, *args):
            copies.append(phase)
            return real(self, idx, phase, *args)

        monkeypatch.setattr(NativeKernel, "run_pass_banded", counted)
        dtype = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64,
                 16: np.complex128}[itemsize]
        A = np.random.default_rng(m * itemsize).integers(
            0, 256, (m, n * itemsize), dtype=np.uint8
        ).view(dtype)
        want = np.ascontiguousarray(np.transpose(A)).ravel(order=order).tobytes()
        for algorithm in ("c2r", "r2c"):
            vm, vn = (m, n) if order == "C" else (n, m)
            M, N = (vm, vn) if algorithm == "c2r" else (vn, vm)
            dec = Decomposition.of(M, N)
            for k in _LATTICE_BANDS:
                del copies[:]
                # a column band of `per` columns fits the window exactly
                per = -(-N // k)
                window = per * M * itemsize
                path = _write(tmp_path, A, order)
                stats = transpose_file_inplace(
                    path, m, n, dtype, order, algorithm=algorithm,
                    window_bytes=window, io_block_bytes=4096,
                    n_threads=n_threads,
                )
                assert np.fromfile(path, dtype=np.uint8).tobytes() == want, (
                    algorithm, k, dec,
                )
                assert stats["bands"] >= stats["passes"]
                # every column and rotation band ran its two copies
                if not _sanitized():
                    assert {"load", "store"} <= set(copies), (algorithm, k)


class TestValidationAndFailure:
    def test_bad_order_rejected(self, tmp_path):
        path = _write(tmp_path, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            transpose_file_inplace(path, 2, 3, np.float64, "Z")

    def test_bad_algorithm_rejected(self, tmp_path):
        path = _write(tmp_path, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            transpose_file_inplace(path, 2, 3, np.float64, algorithm="qr")

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        np.zeros(7).tofile(path)
        with pytest.raises(ValueError, match="bytes"):
            transpose_file_inplace(path, 3, 4, np.float64)

    def test_unproven_schedule_refuses_to_run(self, tmp_path, monkeypatch):
        """If the banded race proof fails, the executor must not touch the
        file."""
        from repro.analysis import racecheck

        class FailingReport:
            ok = False
            failures = [("pass", "band0", "band1")]

        m, n = 23, 29  # fresh shape: not in the module-level proof memo
        monkeypatch.setattr(
            racecheck, "check_banded_schedule",
            lambda *a, **k: FailingReport(),
        )
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = _write(tmp_path, A)
        with pytest.raises(BandedScheduleError):
            transpose_file_inplace(path, m, n, np.float64, window_bytes=4096)
        np.testing.assert_array_equal(
            np.fromfile(path, np.float64).reshape(m, n), A
        )

    def test_pass_failure_propagates_after_flush(self, tmp_path, monkeypatch):
        """A mid-run failure surfaces the original error (flush-or-raise:
        the window flush on the unwind path must not mask it)."""
        m, n = 16, 24
        path = _write(tmp_path, np.arange(m * n, dtype=np.float64).reshape(m, n))

        def boom(*a, **k):
            raise RuntimeError("injected pass failure")

        monkeypatch.setattr(engine, "_run_band", boom)
        with BandedExecutor(1, window_bytes=4096) as ex:
            with pytest.raises(RuntimeError, match="injected pass failure"):
                ex.transpose_file(path, m, n, np.float64)

    def test_proof_memo_covers_repeat_runs(self, tmp_path):
        before = len(engine._PROVEN)
        for _ in range(2):
            A = np.arange(12 * 18, dtype=np.int64).reshape(12, 18)
            path = _write(tmp_path, A)
            transpose_file_inplace(path, 12, 18, np.int64, window_bytes=4096)
        # second run re-proves nothing: every (shape, bands, algorithm)
        # key was already in the memo
        assert len(engine._PROVEN) > 0
        assert len(engine._PROVEN) >= before


class TestStats:
    def test_stats_shape(self, tmp_path):
        A = np.arange(20 * 30, dtype=np.float32).reshape(20, 30)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, 20, 30, np.float32, window_bytes=TINY_WINDOW
        )
        for key in ("m", "n", "order", "algorithm", "passes", "bands",
                    "window_bytes", "threads", "bytes_read",
                    "bytes_written", "seconds"):
            assert key in stats, key
        assert stats["bytes_read"] >= A.nbytes * stats["passes"]
        assert stats["bytes_written"] >= A.nbytes * stats["passes"]
