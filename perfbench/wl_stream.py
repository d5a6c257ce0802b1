"""The ``stream`` workload: ``transpose_file_inplace`` round trips on a
192 MiB float32 file through a 48 MiB resident window with ``nproc``
threads.

One operation is one file job.  After every job the file is compared,
block by block, with a reference file: the seeded original or numpy's
transpose of it, both written once before timing.  No copy of the matrix
is held in memory, so the peak RSS is the program's window, bands and
kernels plus one compare block.
"""

from __future__ import annotations

import contextlib
import os
import shutil
from time import perf_counter

import numpy as np

import layers
import ledger
from common import (eq37_bytes, log, matrix, mean, median, nproc, peak_rss_mib, ratio,
                    transposed_rows)
from ops import Tally, run_interleaved, run_rounds

#: 6144x8192 float32 = 192 MiB, gcd 2048 (the rotate pass runs).  Far
#: beyond a core's L2 but inside the host's page cache, so the run
#: measures band load/store, msync and banded kernels, not a disk.
M, N, DTYPE = 6144, 8192, np.dtype("float32")

#: a quarter of the file: every pass runs in several bands
WINDOW = 48 << 20

#: elements per block when the benchmark writes or checks the file
BLOCK_ELEMS = 1 << 20

#: cold set-ups per run, median reported as setup_s
COLD_SETUPS = 9


def _write_refs(work, seed: int) -> tuple:
    """The seeded original and numpy's transpose of it (``A[:, j0:j1].T``
    block by block), each written once to a reference file."""
    orig, trans = work.path / "original.bin", work.path / "transposed.bin"
    rows = max(1, BLOCK_ELEMS // N)
    with open(orig, "wb") as fh:
        for r0 in range(0, M, rows):
            matrix(seed, M, N, DTYPE, r0, min(M, r0 + rows)).tofile(fh)
    rows = max(1, BLOCK_ELEMS // M)
    with open(trans, "wb") as fh:
        for j0 in range(0, N, rows):
            transposed_rows(seed, M, N, DTYPE, j0, min(N, j0 + rows)).tofile(fh)
    return orig, trans


def _same(a, b) -> bool:
    """Two files hold the same bytes (compared a block at a time)."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x = np.fromfile(fa, dtype=np.uint8, count=BLOCK_ELEMS * 4)
            y = np.fromfile(fb, dtype=np.uint8, count=BLOCK_ELEMS * 4)
            if not np.array_equal(x, y):
                return False
            if x.size == 0:
                return True


def _cold_compile(work) -> float:
    """What a first job pays once: both directions' kernels compiled into
    an empty artifact directory."""
    d = work.fresh("native")
    return (layers.cold_compile_s(M, N, DTYPE.itemsize, d)
            + layers.cold_compile_s(N, M, DTYPE.itemsize, d))


class FileCase:
    def __init__(self, work, seed: int):
        self.original, self.transposed = _write_refs(work, seed)
        self.path = work.path / "matrix.bin"
        shutil.copyfile(self.original, self.path)
        self.nbytes = eq37_bytes(M, N, DTYPE.itemsize)
        self.stats: list[dict] = []

    def round_trip(self, tally: Tally, rec: ledger.Recorder) -> None:
        from repro.stream import transpose_file_inplace

        for a, b, want in ((M, N, self.transposed), (N, M, self.original)):
            try:
                with rec.op("op.transpose_file"):
                    t0 = perf_counter()
                    st = transpose_file_inplace(self.path, a, b, DTYPE, window_bytes=WINDOW,
                                                n_threads=nproc())
                    dt = perf_counter() - t0
                ok = _same(self.path, want)
            except Exception as exc:  # one failed operation, keep going
                log(f"  {a}x{b} file job: {type(exc).__name__}: {exc}")
                dt, ok = 0.0, False
            tally.record(f"{a}x{b}", dt, self.nbytes, ok)
            if not ok:
                shutil.copyfile(self.original, self.path)
                return
            self.stats.append(st)


def run(workload: str, seed: int, seconds: float, trace: bool, work) -> dict:
    case = FileCase(work, seed)
    rec = ledger.Recorder()
    if trace:
        ledger.install(rec)
    os.environ["REPRO_NATIVE_DIR"] = str(work.fresh("native"))
    total = Tally()
    case.round_trip(total, rec)  # warm-up: kernels, page cache

    def one_round(t):
        case.round_trip(t, rec)

    if not trace:
        # cold set-ups on both sides of the timed phase, so that their
        # median samples the host over the whole run without a compile
        # running between the timed jobs
        setups = [_cold_compile(work) for _ in range(COLD_SETUPS // 2)]
        tally = run_rounds(seconds, one_round)
        setups += [_cold_compile(work) for _ in range(COLD_SETUPS - len(setups))]
        total.add(tally)
        log(f"  cold set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}")
        log(f"  {tally.ops} timed file jobs, "
            f"{case.stats[-1]['bands'] if case.stats else '?'} bands each; median ms by kind: "
            + ", ".join(f"{k} {median(t) * 1e3:.1f}" for k, t in sorted(tally.times.items())))
        metrics = {"setup_s": (median(setups), "s"), **tally.e2e(),
                   "peak_rss_mb": (peak_rss_mib(), "MiB")}
        return {"tally": total, "correct": True, "metrics": metrics}
    return _traced(case, one_round, seconds, work, rec, total)


def _traced(case, one_round, seconds, work, rec, total) -> dict:
    from repro.stream import naive_transpose_copy

    case.stats.clear()
    before = layers.cache_counters()
    tallies = run_interleaved(seconds, one_round, {"base": contextlib.nullcontext,
                                                   "spans": rec.recording})
    after = layers.cache_counters()
    for t in tallies.values():
        total.add(t)
    ops = sum(t.attempted for t in tallies.values())
    base = tallies["base"].p50_ms()
    jobs = len(ledger.by_name(rec.spans, "op.transpose_file"))
    loads = ledger.by_name(rec.spans, "stream.band_load")
    stores = ledger.by_name(rec.spans, "stream.band_store")
    flushes = ledger.by_name(rec.spans, "stream.flush")
    builds = ledger.by_name(rec.spans, "core.plan_build")
    for name, s in sorted(ledger.self_time_table(rec.spans).items()):
        log(f"  ledger self time {name:>22}: {s * 1e3:10.2f} ms")

    # the two-file baseline on the same input: the median of three copies
    dst, naive_times, naive_ok = work.path / "naive.bin", [], True
    for _ in range(3):
        dt = naive_transpose_copy(case.original, dst, M, N, DTYPE)["seconds"]
        ok = _same(dst, case.transposed)
        total.record("naive", dt, case.nbytes, ok)
        naive_ok &= ok
        naive_times.append(dt)
        os.unlink(dst)
    naive = median(naive_times)

    m = {
        "core.plan_build_s": (sum(s.duration for s in builds), "s"),
        "core.plan_map_mb": (sum(s.attrs["scratch_bytes"] for s in builds) / 2**20, "MiB"),
        **layers.cache_metrics(before, after, ops),
        "stream.band_load_ms": (mean(s.duration for s in loads) * 1e3, "ms"),
        "stream.band_store_ms": (mean(s.duration for s in stores) * 1e3, "ms"),
        "stream.flush_s": (ratio(sum(s.duration for s in flushes), jobs), "s"),
        "stream.exec_s": (median(s["seconds"] for s in case.stats), "s"),
        "stream.bands": (median(s["bands"] for s in case.stats), "count"),
        "stream.naive_ratio": (naive / (base / 1e3), "ratio"),
        "ledger.unattributed_frac": (ledger.unattributed_frac(rec.spans), "ratio"),
        "trace.overhead_frac": ((tallies["spans"].p50_ms() - base) / base, "ratio"),
    }
    log(f"  naive two-file copy {naive:.3f} s vs file job {base / 1e3:.3f} s "
        "(geometric mean of the two directions' medians)")
    m.update(layers.pass_metrics(layers.roofline(f"{M}x{N} f32", M, N, DTYPE, budget_s=1.0)))
    m["native.compile_s"] = (layers.cold_compile_s(
        M, N, DTYPE.itemsize, work.fresh("native")), "s")
    return {"tally": total, "correct": naive_ok, "metrics": m, "recorder": rec}
