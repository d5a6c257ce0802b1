"""The pass engine: the schedule it runs is the one the race proof checked,
a failed proof touches nothing, and every executor names its passes the
same way."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import racecheck
from repro.core import batched_transpose_inplace, transpose_inplace
from repro.parallel import ParallelTranspose, engine
from repro.runtime import metrics
from repro.stream import BandedScheduleError, transpose_file_inplace


@pytest.fixture
def fresh_proofs(monkeypatch):
    """An empty proof memo, so every schedule goes through the proof."""
    monkeypatch.setattr(engine, "_PROVEN", {})


def _spy(monkeypatch):
    """Record the schedules the proof returns and the ones the engine runs."""
    proved, ran = [], []
    check, run = racecheck.check_banded_schedule, engine.run

    def spy_check(*args, **kwargs):
        report = check(*args, **kwargs)
        proved.append(report.schedule)
        return report

    def spy_run(schedule, *args, **kwargs):
        ran.append(schedule)
        return run(schedule, *args, **kwargs)

    monkeypatch.setattr(racecheck, "check_banded_schedule", spy_check)
    monkeypatch.setattr(engine, "run", spy_run)
    return proved, ran


class TestProofCoversTheRunningSchedule:
    @pytest.mark.parametrize("native", ["auto", "off"])
    def test_parallel_transpose_runs_the_proven_object(
        self, monkeypatch, fresh_proofs, native
    ):
        proved, ran = _spy(monkeypatch)
        m, n = 48, 36
        A = np.arange(m * n, dtype=np.float64)
        buf = A.copy()
        with ParallelTranspose(2, native=native) as pt:
            pt.c2r(buf, m, n)
            pt.c2r(A.copy(), m, n)  # second call: memo hit, no new proof
        np.testing.assert_array_equal(buf, A.reshape(m, n).T.ravel())
        assert len(proved) == 1
        assert ran == [proved[0], proved[0]]
        assert ran[0] is proved[0]
        assert ran[0].n_threads == 2
        assert all(len(p.bands) == 1 for p in ran[0].passes)

    def test_stream_runs_the_proven_object(self, tmp_path, monkeypatch, fresh_proofs):
        proved, ran = _spy(monkeypatch)
        m, n = 40, 25
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        path = tmp_path / "m.bin"
        A.tofile(path)
        stats = transpose_file_inplace(
            path, m, n, np.int64, window_bytes=2048, n_threads=2
        )
        np.testing.assert_array_equal(np.fromfile(path, np.int64).reshape(n, m), A.T)
        assert len(proved) == 1 and len(ran) == 1
        assert ran[0] is proved[0]
        assert stats["bands"] == sum(len(p.bands) for p in ran[0].passes)
        assert stats["bands"] > stats["passes"]

    def test_stream_band_copies_drive_the_proven_rows(
        self, tmp_path, monkeypatch, fresh_proofs
    ):
        """Each column or rotation band's copies split the mapped rows as
        the proven schedule's copy footprints say."""
        from repro import native
        from repro.stream.window import ResidentWindow

        if not native.available():
            pytest.skip("no C toolchain")
        monkeypatch.setenv("REPRO_NATIVE_MIN_ELEMS", "1")
        proved, _ = _spy(monkeypatch)
        shares = []
        real = ResidentWindow._row_blocks

        def spy(self, band_cols, copy, rows=None):
            if rows is not None:
                shares.append(tuple(rows))
            return real(self, band_cols, copy, rows)

        monkeypatch.setattr(ResidentWindow, "_row_blocks", spy)
        m, n = 40, 24  # gcd 8: a rotation pass runs
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = tmp_path / "m.bin"
        A.tofile(path)
        transpose_file_inplace(path, m, n, np.float64, window_bytes=2048, n_threads=2)
        np.testing.assert_array_equal(np.fromfile(path, np.float64).reshape(n, m), A.T)
        want = [
            tuple(f.rows for f in copies if f.phase == phase)
            for p in proved[0].passes
            for copies in p.copies
            for phase in ("load", "store")
        ]
        assert len(want) > 4
        assert shares == want

    def test_plan_memoises_its_one_chunk_schedule(self, monkeypatch, fresh_proofs):
        from repro.core.plan import TransposePlan

        proved, _ = _spy(monkeypatch)
        plan = TransposePlan(48, 36)
        for _ in range(3):
            plan.execute(np.arange(48 * 36, dtype=np.float64), backend="numpy")
        assert len(proved) == 1
        assert plan.schedule is proved[0]
        assert plan.schedule.n_threads == 1
        assert all(len(p.bands) == 1 for p in plan.schedule.passes)


class TestFailedProof:
    class _Failing:
        ok = False
        failures = ["pass: overlap"]

    def test_in_ram_call_raises_before_the_buffer_changes(
        self, monkeypatch, fresh_proofs
    ):
        monkeypatch.setattr(
            racecheck, "check_banded_schedule", lambda *a, **k: self._Failing()
        )
        m, n = 12, 18
        buf = np.arange(m * n, dtype=np.float64)
        snapshot = buf.copy()
        with ParallelTranspose(2) as pt:
            with pytest.raises(BandedScheduleError, match="race proof"):
                pt.c2r(buf, m, n)
        np.testing.assert_array_equal(buf, snapshot)

    def test_executor_must_match_the_proven_thread_count(self):
        schedule = engine.proven_schedule(12, 18, 1, 2, "c2r")
        buf = np.arange(12 * 18, dtype=np.float64)
        with pytest.raises(ValueError, match="proven for 2 threads"):
            engine.run(schedule, engine.InRam(buf, 12, 18), scope="parallel")


class TestPassNames:
    def test_every_executor_times_passes_by_pass_order(self):
        metrics.enable()
        metrics.reset()
        m, n = 48, 36  # gcd 12: the rotation pass runs too
        buf = np.arange(m * n, dtype=np.float64)
        transpose_inplace(buf, m, n, backend="numpy")
        batched_transpose_inplace(np.arange(2 * m * n, dtype=np.float64), m, n)
        with ParallelTranspose(2) as pt:
            pt.c2r(np.arange(m * n, dtype=np.float64), m, n)
        timers = metrics.snapshot()["timers"]
        for scope in ("plan", "parallel"):
            for name in racecheck.pass_order("c2r", 12):
                assert f"{scope}.pass.{name}" in timers, (scope, name, sorted(timers))
        assert not any(".pass.gather" in k or k.startswith("batched.") for k in timers)
