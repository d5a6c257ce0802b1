"""ResidentWindow: byte parsing, band load/store round trips, row bands in
place, the one column buffer, threaded column copies, accounting, and the
flush/close lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.executor import ParallelExecutor
from repro.stream.window import (
    DEFAULT_WINDOW_BYTES,
    WINDOW_ENV,
    ResidentWindow,
    default_window_bytes,
    parse_bytes,
)


def _write(tmp_path, A: np.ndarray):
    path = tmp_path / "w.bin"
    A.tofile(path)
    return path


class TestParseBytes:
    @pytest.mark.parametrize("text,want", [
        ("64", 64),
        ("64k", 64 * 1024),
        ("2m", 2 * 1024 ** 2),
        ("1g", 1024 ** 3),
        ("8M", 8 * 1024 ** 2),
        (4096, 4096),
    ])
    def test_accepted_forms(self, text, want):
        assert parse_bytes(text) == want

    @pytest.mark.parametrize("text", ["", "x", "12q", "-4", 0, -1])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_bytes(text)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV, "8m")
        assert default_window_bytes() == 8 * 1024 ** 2
        monkeypatch.delenv(WINDOW_ENV)
        assert default_window_bytes() == DEFAULT_WINDOW_BYTES


class TestResidentWindow:
    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        np.zeros(10, dtype=np.float64).tofile(path)
        with pytest.raises(ValueError, match="bytes"):
            ResidentWindow(path, 4, 4, np.float64)

    def test_row_band_round_trip(self, tmp_path):
        A = np.arange(20 * 12, dtype=np.int64).reshape(20, 12)
        path = _write(tmp_path, A)
        with ResidentWindow(path, 20, 12, np.int64, window_bytes=4096) as w:
            band = w.load_rows(5, 9)
            np.testing.assert_array_equal(band, A[5:9])
            w.store_rows(5, 9, band[::-1].copy())
        got = np.fromfile(path, dtype=np.int64).reshape(20, 12)
        np.testing.assert_array_equal(got[5:9], A[5:9][::-1])
        np.testing.assert_array_equal(got[:5], A[:5])
        np.testing.assert_array_equal(got[9:], A[9:])

    def test_row_band_is_the_mapping_in_place(self, tmp_path):
        A = np.arange(20 * 12, dtype=np.int64).reshape(20, 12)
        path = _write(tmp_path, A)
        with ResidentWindow(path, 20, 12, np.int64, window_bytes=4096) as w:
            band = w.load_rows(5, 9)
            assert np.shares_memory(band, w.view)
            band[:] = band[::-1].copy()  # permute in the mapped pages
            w.store_rows(5, 9, band)
            assert w.bytes_read == w.bytes_written == 4 * 12 * 8
            assert w.loads == w.stores == 1
        got = np.fromfile(path, dtype=np.int64).reshape(20, 12)
        np.testing.assert_array_equal(got[5:9], A[5:9][::-1])
        np.testing.assert_array_equal(got[:5], A[:5])
        np.testing.assert_array_equal(got[9:], A[9:])

    def test_col_bands_reuse_one_buffer(self, tmp_path):
        A = np.arange(32 * 24, dtype=np.float64).reshape(32, 24)
        path = _write(tmp_path, A)
        with ResidentWindow(path, 32, 24, np.float64, window_bytes=2048) as w:
            first = w.load_cols(0, 8)
            np.testing.assert_array_equal(first, A[:, 0:8])
            second = w.load_cols(16, 22)
            np.testing.assert_array_equal(second, A[:, 16:22])
            assert second.ctypes.data == first.ctypes.data
            assert not np.shares_memory(second, w.view)

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_threaded_col_copies(self, tmp_path, n_threads):
        A = np.arange(64 * 48, dtype=np.float32).reshape(64, 48)
        path = _write(tmp_path, A)
        with ParallelExecutor(n_threads) as ex:
            with ResidentWindow(
                path, 64, 48, np.float32, window_bytes=8192,
                io_block_bytes=4096, executor=ex,
            ) as w:
                band = w.load_cols(10, 20)
                np.testing.assert_array_equal(band, A[:, 10:20])
                w.store_cols(10, 20, -band)
        got = np.fromfile(path, dtype=np.float32).reshape(64, 48)
        np.testing.assert_array_equal(got[:, 10:20], -A[:, 10:20])
        np.testing.assert_array_equal(got[:, :10], A[:, :10])
        np.testing.assert_array_equal(got[:, 20:], A[:, 20:])

    def test_col_band_round_trip_with_tiny_io_block(self, tmp_path):
        # A sub-row io block forces many strided sub-copies; the floor
        # keeps it at one page, exercising the block loop.
        A = np.arange(64 * 48, dtype=np.float32).reshape(64, 48)
        path = _write(tmp_path, A)
        w = ResidentWindow(
            path, 64, 48, np.float32, window_bytes=8192, io_block_bytes=4096
        )
        band = w.load_cols(10, 20)
        np.testing.assert_array_equal(band, A[:, 10:20])
        w.store_cols(10, 20, band * 0 - 1)
        w.close()
        got = np.fromfile(path, dtype=np.float32).reshape(64, 48)
        assert (got[:, 10:20] == -1).all()
        np.testing.assert_array_equal(got[:, :10], A[:, :10])
        np.testing.assert_array_equal(got[:, 20:], A[:, 20:])

    def test_byte_accounting(self, tmp_path):
        A = np.zeros((16, 16), dtype=np.float64)
        path = _write(tmp_path, A)
        with ResidentWindow(path, 16, 16, np.float64) as w:
            band = w.load_rows(0, 8)
            w.store_rows(0, 8, band)
            w.load_cols(0, 4)
            assert w.bytes_read == 8 * 16 * 8 + 16 * 4 * 8
            assert w.bytes_written == 8 * 16 * 8
            assert w.loads == 2 and w.stores == 1

    def test_close_is_idempotent(self, tmp_path):
        path = _write(tmp_path, np.zeros((4, 4)))
        w = ResidentWindow(path, 4, 4, np.float64)
        w.close()
        w.close()
        assert w.view is None

    def test_exit_on_exception_does_not_mask(self, tmp_path):
        path = _write(tmp_path, np.zeros((4, 4)))
        with pytest.raises(RuntimeError, match="boom"):
            with ResidentWindow(path, 4, 4, np.float64):
                raise RuntimeError("boom")
