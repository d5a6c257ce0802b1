"""Static race proof and the shadow-memory sanitizer."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.racecheck import (
    Rect,
    Sanitizer,
    SanitizerError,
    axis_rect,
    banded_footprints,
    check_banded_schedule,
    check_partition,
    check_schedule,
    pass_order,
    schedule_footprints,
)
from repro.core.plan import TransposePlan
from repro.parallel.cpu import ParallelTranspose
from repro.stream import transpose_file_inplace


class TestRect:
    def test_area_and_intersection(self):
        a = Rect(0, 4, 0, 6)
        b = Rect(4, 8, 0, 6)
        assert a.area == 24
        assert not a.intersects(b), "half-open rectangles sharing an edge are disjoint"
        assert a.intersects(Rect(3, 5, 2, 3))

    def test_containment(self):
        outer = Rect(0, 10, 0, 10)
        assert outer.contains(Rect(2, 5, 3, 7))
        assert not Rect(2, 5, 3, 7).contains(outer)


class TestStaticProof:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize(
        "m,n", [(1, 1), (4, 6), (12, 18), (13, 17), (64, 48)]
    )
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_schedules_are_race_free(self, m, n, threads, algorithm):
        report = check_schedule(m, n, threads, algorithm)
        assert report.ok, report.failures

    def test_pass_structure_matches_transposer(self):
        # Shared-factor shape: rotation + shuffle + shuffle for c2r.
        names = [p.name for p in schedule_footprints(12, 18, 4, "c2r")]
        assert names == ["pre_rotate", "row_shuffle", "column_shuffle"]
        names = [p.name for p in schedule_footprints(12, 18, 4, "r2c")]
        assert names == ["inverse_column_shuffle", "row_shuffle_r2c", "post_rotate"]
        # Coprime shape: no rotation pass.
        names = [p.name for p in schedule_footprints(5, 7, 4, "c2r")]
        assert names == ["row_shuffle", "column_shuffle"]

    def test_detects_a_constructed_overlap(self):
        # The proof must reject overlapping rectangles, not rubber-stamp them.
        a = Rect(0, 3, 0, 6)
        b = Rect(2, 5, 0, 6)
        assert a.intersects(b)

    @given(
        total=st.integers(0, 5000),
        parts=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_proof_accepts_balanced_chunks(self, total, parts):
        ok, detail = check_partition(total, parts)
        assert ok, detail


class TestBandedScheduleProof:
    @pytest.mark.parametrize("bands", [1, 2, 3, 7])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize(
        "m,n", [(1, 1), (4, 6), (12, 18), (13, 17), (64, 48)]
    )
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_banded_schedules_are_race_free(self, m, n, bands, threads, algorithm):
        report = check_banded_schedule(m, n, bands, threads, algorithm)
        assert report.ok, report.failures
        assert report.as_dict()["n_bands"] == bands

    def test_one_band_degenerates_to_thread_schedule(self):
        th = schedule_footprints(12, 18, 4, "r2c")
        banded = banded_footprints(12, 18, 1, 4, "r2c")
        for a, b in zip(th, banded):
            assert a.name == b.name
            assert [c.writes for c in a.chunks] == [c.writes for c in b.chunks]

    def test_band_labels_carry_provenance(self):
        passes = banded_footprints(12, 18, 2, 2, "c2r")
        labels = [c.label for c in passes[1].chunks]
        assert all(label.startswith("band") for label in labels)
        assert any(label.startswith("band1/") for label in labels)

    def test_banded_proof_rejects_overlapping_bands(self):
        # Hand-build a pass whose second band re-covers the first band's
        # rows: the cross-band disjointness check must fail.
        from repro.analysis.racecheck import (
            ChunkFootprint,
            PassFootprints,
            _prove_rects,
        )

        m, n = 8, 6
        overlapping = PassFootprints(
            name="row_shuffle",
            total=m,
            chunks=(
                ChunkFootprint("band0/rows[0:4]", Rect(0, 4, 0, n), Rect(0, 4, 0, n)),
                ChunkFootprint("band1/rows[2:8]", Rect(2, 8, 0, n), Rect(2, 8, 0, n)),
            ),
        )
        failures = _prove_rects(overlapping, m, n)
        assert any("overlap" in f for f in failures)


class TestBandCopyProof:
    """The two-phase, two-memory copy schedule of the streamed column and
    rotation bands: the proof accepts the schedule the engine runs and
    rejects copies that touch the wrong memory or columns."""

    @staticmethod
    def _tamper(schedule, phase, **change):
        """``schedule`` with the first ``phase`` footprint of the first
        column-facing pass's second band changed."""
        import dataclasses

        i, p = next(
            (i, p) for i, p in enumerate(schedule.passes) if p.copies
        )
        band = list(p.copies[1])
        k = next(k for k, f in enumerate(band) if f.phase == phase)
        band[k] = dataclasses.replace(band[k], **change)
        copies = p.copies[:1] + (tuple(band),) + p.copies[2:]
        passes = list(schedule.passes)
        passes[i] = dataclasses.replace(p, copies=copies)
        return dataclasses.replace(schedule, passes=tuple(passes)), band[k]

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_copies_are_two_phase_and_tile_the_rows(self, algorithm):
        sched = check_banded_schedule(12, 18, 3, 2, algorithm).schedule
        for p in sched.passes:
            if p.axis == "rows":
                assert p.copies == ()
                continue
            assert len(p.copies) == len(p.bands)
            for band, copies in zip(p.bands, p.copies):
                r = axis_rect(p.axis, 12, 18, p.total, band.start, band.stop)
                cols = (r.c0, r.c1)
                for f in copies:
                    mapped, other = (
                        (f.reads, f.writes) if f.phase == "load" else (f.writes, f.reads)
                    )
                    assert mapped[0] == "map" and other[0] == "band"
                    assert (mapped[1].c0, mapped[1].c1) == cols
                    assert (mapped[1].r0, mapped[1].r1) == (f.rows.start, f.rows.stop)
                for phase in ("load", "store"):
                    rows = [f.rows for f in copies if f.phase == phase]
                    assert [(r.start, r.stop) for r in rows] == [(0, 6), (6, 12)]

    def test_proof_rejects_a_store_writing_outside_its_band(self):
        from repro.analysis.racecheck import prove_schedule

        sched = check_banded_schedule(12, 18, 3, 2, "c2r").schedule
        assert prove_schedule(sched, 3) == []
        _, foot = self._tamper(sched, "store")
        mem, rect = foot.writes
        wide = Rect(rect.r0, rect.r1, rect.c0, rect.c1 + 1)
        bad, _ = self._tamper(sched, "store", writes=(mem, wide))
        failures = prove_schedule(bad, 3)
        assert failures and all("writes map" in f for f in failures), failures

    def test_proof_rejects_a_load_that_writes_the_mapping(self):
        from repro.analysis.racecheck import prove_schedule

        sched = check_banded_schedule(12, 18, 3, 2, "r2c").schedule
        _, foot = self._tamper(sched, "load")
        bad, _ = self._tamper(sched, "load", writes=("map", foot.reads[1]))
        failures = prove_schedule(bad, 3)
        assert any("writes map" in f and "outside the band buffer" in f
                   for f in failures), failures

    def test_proof_rejects_overlapping_worker_rows(self):
        from repro.analysis.racecheck import prove_schedule

        sched = check_banded_schedule(12, 18, 3, 2, "c2r").schedule
        bad, _ = self._tamper(sched, "load", rows=slice(0, 7))
        assert any("load rows" in f for f in prove_schedule(bad, 3))

    def test_proof_rejects_an_unknown_row_map(self):
        from repro.analysis.racecheck import prove_schedule

        sched = check_banded_schedule(12, 18, 3, 2, "c2r").schedule
        bad, _ = self._tamper(sched, "store", row_map="transpose")
        assert any("unknown row map" in f for f in prove_schedule(bad, 3))


class TestSanitizerViolations:
    def _san(self):
        return Sanitizer(enabled=True)

    def test_double_write_raises_with_provenance(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("p", 8):
                san.record(writes=np.array([0, 1]), where="chunk-a")
                san.record(writes=np.array([1, 2]), where="chunk-b")
        assert exc.value.kind == "double write"
        assert exc.value.pass_name == "p"
        assert exc.value.where == "chunk-b"
        assert 1 in exc.value.indices

    def test_read_after_clobber_raises(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("p", 8):
                san.record(writes=np.array([3]))
                san.record(reads=np.array([3]), where="late gather")
        assert exc.value.kind == "read-after-clobber"

    def test_read_before_write_is_legal_gather_order(self):
        san = self._san()
        with san.pass_scope("p", 4):
            san.record(reads=np.arange(4), writes=np.arange(4))
        assert san.passes_checked == 1

    def test_missed_write_raises_for_full_coverage_pass(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("p", 4):
                san.record(writes=np.array([0, 1, 2]))
        assert exc.value.kind == "missed write"
        assert 3 in exc.value.indices

    def test_partial_coverage_pass_allows_skips(self):
        san = self._san()
        with san.pass_scope("rotate", 4, full_coverage=False):
            san.record(writes=np.array([0, 1]))
        assert san.passes_checked == 1

    def test_out_of_bounds_raises(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("p", 4, full_coverage=False):
                san.record(writes=np.array([4]))
        assert exc.value.kind == "out-of-bounds write"

    def test_nested_pass_raises_instead_of_deadlocking(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("outer", 4, full_coverage=False):
                with san.pass_scope("inner", 4):
                    pass
        assert exc.value.kind == "nested pass"

    def test_record_outside_scope_is_inert(self):
        san = self._san()
        san.record(writes=np.array([0]))  # no scope: must not raise

    def test_failed_pass_releases_the_scope(self):
        san = self._san()
        with pytest.raises(SanitizerError):
            with san.pass_scope("p", 2):
                san.record(writes=np.array([0, 0]))
        # A clean follow-up pass must work: the shadow was torn down.
        with san.pass_scope("p2", 2):
            san.record(writes=np.array([0, 1]))


class TestExecutionHooks:
    """The real executors run clean under the sanitizer, and a corrupted
    plan is caught — the end-to-end contract of the tentpole."""

    @pytest.fixture(autouse=True)
    def _enabled(self):
        from repro.analysis import racecheck

        was = racecheck.sanitizer.enabled
        racecheck.enable()
        yield
        racecheck.sanitizer.enabled = was

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_plan_execute_runs_clean(self, order, algorithm):
        m, n = 12, 18
        plan = TransposePlan(m, n, order, algorithm)
        buf = np.arange(m * n, dtype=np.int64)
        expected = buf.reshape((m, n), order=order).T.ravel(order=order).copy()
        plan.execute(buf)
        assert np.array_equal(buf, expected)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_parallel_transpose_runs_clean(self, threads):
        with ParallelTranspose(threads) as pt:
            for m, n in [(12, 18), (7, 5), (16, 16), (1, 9)]:
                buf = np.arange(m * n, dtype=np.int64)
                expected = buf.reshape(m, n).T.ravel().copy()
                pt.transpose_inplace(buf, m, n)
                assert np.array_equal(buf, expected)
                # "auto" is C2R; the R2C schedule runs on the swapped view
                buf = np.arange(m * n, dtype=np.int64)
                pt.r2c(buf, n, m)
                assert np.array_equal(buf, expected)

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_parallel_and_stream_scope_every_pass(self, tmp_path, algorithm):
        """Both executors of the proved pass tables run every pass inside a
        sanitizer scope — in RAM and band by band over a file."""
        from repro.analysis.racecheck import sanitizer

        m, n = 48, 36  # gcd 12: the rotation pass runs too
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        passes = len(pass_order(algorithm, 12))
        assert passes == 3

        before = sanitizer.stats()["passes_checked"]
        buf = A.ravel().copy()
        with ParallelTranspose(2) as pt:
            if algorithm == "c2r":
                pt.c2r(buf, m, n)
            else:
                pt.r2c(buf, n, m)
        np.testing.assert_array_equal(buf.reshape(n, m), A.T)
        assert sanitizer.stats()["passes_checked"] - before == passes

        path = tmp_path / "m.bin"
        A.tofile(path)
        before = sanitizer.stats()["passes_checked"]
        stats = transpose_file_inplace(
            path, m, n, np.int64, algorithm=algorithm,
            window_bytes=2048, n_threads=2,
        )
        assert stats["bands"] > stats["passes"]
        np.testing.assert_array_equal(
            np.fromfile(path, np.int64).reshape(n, m), A.T
        )
        assert sanitizer.stats()["passes_checked"] - before == passes

    def test_corrupted_plan_payload_is_caught(self):
        # Gather bijectivity is proven statically by the verifier; what the
        # sanitizer owns at runtime is that the maps which actually run stay
        # inside the buffer.  Corrupt the rotation map so one element reads
        # a row past the matrix.
        m, n = 12, 18  # gcd 6 > 1, so the plan starts with rotate_groups
        plan = TransposePlan(m, n, "C", "c2r")
        kind, payload = plan._steps[0]
        assert kind == "rotate_groups"
        bad = payload.copy()
        bad[-1] = m * n + n - 1  # the last column, one row past the end
        plan._steps[0] = (kind, bad)
        with pytest.raises(SanitizerError) as exc:
            plan.execute(np.arange(m * n, dtype=np.int64))
        assert exc.value.kind == "out-of-bounds read"
        assert exc.value.pass_name == "plan.pre_rotate"

    def test_concurrent_plan_executions_serialize_not_crash(self):
        m, n = 24, 36
        plan = TransposePlan(m, n)
        base = np.arange(m * n, dtype=np.float64)
        expected = base.reshape(m, n).T.ravel().copy()
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(3):
                    buf = base.copy()
                    plan.execute(buf)
                    np.testing.assert_array_equal(buf, expected)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_stats_accumulate(self):
        from repro.analysis.racecheck import sanitizer

        before = sanitizer.stats()["passes_checked"]
        TransposePlan(6, 9).execute(np.arange(54, dtype=np.float64))
        after = sanitizer.stats()["passes_checked"]
        assert after > before
