"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestInfo:
    def test_info_output(self, capsys):
        assert main(["info", "12", "18"]) == 0
        out = capsys.readouterr().out
        assert "c = gcd = 6" in out
        assert "CPU algorithm (auto): C2R" in out
        assert "paper heuristic algorithm (K20c model): R2C" in out  # 12 < 18
        assert "GB/s" in out

    def test_info_coprime(self, capsys):
        main(["info", "7", "9"])
        out = capsys.readouterr().out
        assert "pre-rotation pass needed: False" in out
        assert "4 accesses/element" in out

    def test_info_skips_cycles_over_limit(self, capsys):
        main(["info", "5000", "7000", "--cycle-limit", "100"])
        out = capsys.readouterr().out
        assert "cycle following:" not in out


class TestTransposeCommand:
    def test_transpose_file(self, tmp_path, capsys):
        A = np.arange(6 * 9, dtype=np.float64).reshape(6, 9)
        path = tmp_path / "a.bin"
        A.tofile(path)
        assert main(["transpose", str(path), "6", "9"]) == 0
        got = np.fromfile(path, dtype=np.float64)
        np.testing.assert_array_equal(got, A.T.ravel())
        assert "transposed" in capsys.readouterr().out

    def test_transpose_dtype_flag(self, tmp_path):
        A = np.arange(4 * 5, dtype=np.int32).reshape(4, 5)
        path = tmp_path / "a.bin"
        A.tofile(path)
        main(["transpose", str(path), "4", "5", "--dtype", "int32"])
        np.testing.assert_array_equal(
            np.fromfile(path, dtype=np.int32), A.T.ravel()
        )


class TestTransposeFileCommand:
    def test_round_trip_restores_original(self, tmp_path, capsys):
        A = np.arange(12 * 7, dtype=np.float64).reshape(12, 7)
        path = tmp_path / "a.bin"
        A.tofile(path)
        assert main(["transpose-file", str(path), "12", "7"]) == 0
        np.testing.assert_array_equal(
            np.fromfile(path, dtype=np.float64), A.T.ravel()
        )
        # Transposing the (7, 12) result brings the file back exactly.
        assert main(["transpose-file", str(path), "7", "12"]) == 0
        np.testing.assert_array_equal(
            np.fromfile(path, dtype=np.float64), A.ravel()
        )
        assert capsys.readouterr().out.count("transposed") == 2

    def test_dtype_and_algorithm_flags(self, tmp_path):
        A = np.arange(6 * 10, dtype=np.int16).reshape(6, 10)
        path = tmp_path / "a.bin"
        A.tofile(path)
        assert main(["transpose-file", str(path), "6", "10",
                     "--dtype", "int16", "--algorithm", "c2r"]) == 0
        np.testing.assert_array_equal(
            np.fromfile(path, dtype=np.int16), A.T.ravel()
        )

    def test_size_mismatch_is_friendly(self, tmp_path, capsys):
        path = tmp_path / "short.bin"
        np.zeros(5).tofile(path)
        assert main(["transpose-file", str(path), "3", "4"]) == 1
        assert "error" in capsys.readouterr().out

    def test_streamed_by_default_reports_bands(self, tmp_path, capsys):
        A = np.arange(64 * 48, dtype=np.float64).reshape(64, 48)
        path = tmp_path / "a.bin"
        A.tofile(path)
        assert main(["transpose-file", str(path), "64", "48",
                     "--window-bytes", "8k"]) == 0
        out = capsys.readouterr().out
        assert "band(s)" in out and "window" in out
        np.testing.assert_array_equal(
            np.fromfile(path, dtype=np.float64), A.T.ravel()
        )

    def test_no_stream_matches_streamed_result(self, tmp_path, capsys):
        A = np.arange(20 * 30, dtype=np.float64).reshape(20, 30)
        path = tmp_path / "a.bin"
        A.tofile(path)
        assert main(["transpose-file", str(path), "20", "30",
                     "--no-stream"]) == 0
        assert "band(s)" not in capsys.readouterr().out
        np.testing.assert_array_equal(
            np.fromfile(path, dtype=np.float64), A.T.ravel()
        )

    def test_threads_route_through_banded_executor(self, tmp_path, capsys):
        A = np.arange(40 * 56, dtype=np.float64).reshape(40, 56)
        path = tmp_path / "a.bin"
        A.tofile(path)
        assert main(["transpose-file", str(path), "40", "56",
                     "--threads", "2", "--window-bytes", "16k"]) == 0
        assert "2 threads worker(s)" in capsys.readouterr().out
        np.testing.assert_array_equal(
            np.fromfile(path, dtype=np.float64), A.T.ravel()
        )

    def test_bad_window_bytes_is_friendly(self, tmp_path, capsys):
        path = tmp_path / "a.bin"
        np.zeros(12).tofile(path)
        assert main(["transpose-file", str(path), "3", "4",
                     "--window-bytes", "12q"]) == 1
        assert "error" in capsys.readouterr().out


class TestServeAndLoadtestCommands:
    def test_serve_max_seconds_drains_clean(self, capsys):
        assert main(["serve", "--port", "0", "--workers", "1",
                     "--max-seconds", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "repro-serve listening" in out
        assert "dropped=0" in out
        assert "drained=True" in out

    def test_loadtest_inproc_smoke(self, capsys):
        assert main(["loadtest", "--inproc", "--workers", "1",
                     "--rate", "200", "--duration", "0.4",
                     "--shapes", "16x12", "--dtype", "float64",
                     "--tiles", "2", "--connections", "4",
                     "--no-reference"]) == 0
        out = capsys.readouterr().out
        assert "achieved" in out
        assert "dropped=0" in out
        assert out.rstrip().endswith("ok")

    def test_loadtest_requires_a_target(self, capsys):
        assert main(["loadtest"]) == 1
        assert "--url or --inproc" in capsys.readouterr().out

    def test_loadtest_rejects_bad_shape_mix(self, capsys):
        assert main(["loadtest", "--inproc", "--shapes", "8y6"]) == 1
        assert "error" in capsys.readouterr().out


class TestBenchAndSelftest:
    def test_bench(self, capsys):
        assert main(["bench", "64", "96", "--repeats", "1"]) == 0
        assert "GB/s" in capsys.readouterr().out

    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--count", "6"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") >= 8

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestConvertCommand:
    def test_aos_to_soa_file(self, tmp_path, capsys):
        import numpy as np

        N, S = 48, 5
        A = np.arange(N * S, dtype=np.float64)
        path = tmp_path / "aos.bin"
        A.tofile(path)
        assert main(["convert", str(path), str(N), str(S), "--to", "soa"]) == 0
        got = np.fromfile(path, dtype=np.float64).reshape(S, N)
        for k in range(S):
            np.testing.assert_array_equal(got[k], np.arange(N) * S + k)

    def test_roundtrip_via_cli(self, tmp_path):
        import numpy as np

        N, S = 64, 3
        A = np.arange(N * S, dtype=np.float32)
        path = tmp_path / "aos.bin"
        A.tofile(path)
        main(["convert", str(path), str(N), str(S), "--to", "soa",
              "--dtype", "float32"])
        main(["convert", str(path), str(N), str(S), "--to", "aos",
              "--dtype", "float32"])
        np.testing.assert_array_equal(np.fromfile(path, dtype=np.float32), A)

    def test_asta_roundtrip(self, tmp_path):
        import numpy as np

        N, S = 96, 4
        A = np.arange(N * S, dtype=np.float64)
        path = tmp_path / "aos.bin"
        A.tofile(path)
        main(["convert", str(path), str(N), str(S), "--to", "asta"])
        main(["convert", str(path), str(N), str(S), "--to", "unasta"])
        np.testing.assert_array_equal(np.fromfile(path, dtype=np.float64), A)

    def test_size_mismatch_fails(self, tmp_path, capsys):
        import numpy as np

        path = tmp_path / "bad.bin"
        np.zeros(10).tofile(path)
        assert main(["convert", str(path), "4", "4"]) == 1
        assert "error" in capsys.readouterr().out


class TestLandscapeCommand:
    def test_landscape_output(self, capsys):
        assert main(["landscape", "--cells", "3", "--lo", "2000",
                     "--hi", "9000"]) == 0
        out = capsys.readouterr().out
        assert "C2R modeled throughput" in out
        assert out.count("m=") == 3

    def test_r2c_flag(self, capsys):
        main(["landscape", "--algorithm", "r2c", "--cells", "2"])
        assert "R2C" in capsys.readouterr().out


class TestCliErrorPaths:
    def test_transpose_size_mismatch_is_friendly(self, tmp_path, capsys):
        import numpy as np

        path = tmp_path / "short.bin"
        np.zeros(5).tofile(path)
        assert main(["transpose", str(path), "3", "4"]) == 1
        assert "error" in capsys.readouterr().out

    def test_convert_bad_tile_is_friendly(self, tmp_path, capsys):
        import numpy as np

        path = tmp_path / "aos.bin"
        np.zeros(30).tofile(path)  # 10 structs x 3, tile 32 does not divide
        assert main(["convert", str(path), "10", "3", "--to", "asta"]) == 1
        assert "error" in capsys.readouterr().out
