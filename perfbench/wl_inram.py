"""In-RAM workloads: ``inram-small`` (cache-resident, single-threaded
public calls) and ``inram-large`` (DRAM-resident round trips through
``ParallelTranspose``).

One operation is one public call.  Every round transposes each case
``m x n`` -> ``n x m``, checks the result against numpy's transpose of the
original, transposes back and checks the round-trip identity.
"""

from __future__ import annotations

import contextlib
import os
from time import perf_counter

import numpy as np

import layers
import ledger
from common import eq37_bytes, log, matrix, median, nproc, peak_rss_mib
from ops import Tally, run_interleaved, run_rounds

#: (label, m, n, dtype, tiles).  256x384 uint8 in x4 tiles is the serving
#: default (batched_transpose_inplace); the others go through
#: transpose_inplace.  256x384 and 300x500 have gcd > 1, so their plans run
#: the rotate pass; 251x384 is coprime and runs two passes only.  Each fits
#: one core's 2 MiB L2 (the largest, 251x384 float64, is 0.77 MB).
SMALL = [
    ("256x384 u8 x4", 256, 384, "uint8", 4),
    ("300x500 f32", 300, 500, "float32", 1),
    ("251x384 f64", 251, 384, "float64", 1),
]

#: 4096x6000 float32 (98 MB, gcd 16).  One direction's plan holds 196 MB
#: of int32 maps and fits the default 256 MiB plan-cache budget; both
#: directions together do not, so a round trip evicts on every call.
LARGE = [("4096x6000 f32", 4096, 6000, "float32", 1)]

#: cold set-ups per run, median reported as setup_s
COLD_SETUPS = {"inram-small": 3, "inram-large": 3}

#: elements generated or compared at once: bounds the benchmark's own
#: temporaries (uint64 hash words, bool compare arrays) to a few MiB, so
#: the peak RSS is set by the program, not by the input generator
CHECK_BLOCK = 1 << 20


class Case:
    """One shape, its seeded original, and the buffer transposed in place."""

    def __init__(self, seed: int, label: str, m: int, n: int, dtype: str, tiles: int):
        self.label, self.m, self.n, self.tiles = label, m, n, tiles
        self.dtype = np.dtype(dtype)
        rows = tiles * m
        self.A = np.empty((rows, n), dtype=self.dtype)
        step = max(1, CHECK_BLOCK // n)
        for r0 in range(0, rows, step):
            r1 = min(rows, r0 + step)
            self.A[r0:r1] = matrix(seed, rows, n, self.dtype, r0, r1)
        self.A = self.A.reshape(-1)
        self.buf = self.A.copy()
        self.nbytes = eq37_bytes(m, n, self.dtype.itemsize, tiles)

    def is_transpose(self) -> bool:
        """``buf`` holds ``A.reshape(m, n).T`` (per tile), compared in row
        blocks against a transposed view of the original."""
        k, m, n = self.tiles, self.m, self.n
        out = self.buf.reshape(k, n, m)
        src = self.A.reshape(k, m, n)
        step = max(1, CHECK_BLOCK // max(1, k * m))
        for j0 in range(0, n, step):
            j1 = min(n, j0 + step)
            if not np.array_equal(out[:, j0:j1], src[:, :, j0:j1].transpose(0, 2, 1)):
                return False
        return True

    def is_original(self) -> bool:
        return all(np.array_equal(self.buf[i:i + CHECK_BLOCK], self.A[i:i + CHECK_BLOCK])
                   for i in range(0, self.A.size, CHECK_BLOCK))

    def round_trip(self, call, tally: Tally, rec: ledger.Recorder) -> None:
        """Two operations: ``m x n`` -> ``n x m``, then back."""
        for a, b, check in ((self.m, self.n, self.is_transpose),
                            (self.n, self.m, self.is_original)):
            try:
                with rec.op("op.transpose", shape=self.label):
                    t0 = perf_counter()
                    call(self, a, b)
                    dt = perf_counter() - t0
                ok = check()
            except Exception as exc:  # one failed operation, keep going
                log(f"  {self.label} {a}x{b}: {type(exc).__name__}: {exc}")
                dt, ok = 0.0, False
            tally.record(f"{self.label} {a}x{b}", dt, self.nbytes, ok)
            if not ok:
                np.copyto(self.buf, self.A)
                return


def _small_call(case: Case, m: int, n: int) -> None:
    import repro
    from repro.core.batched import batched_transpose_inplace

    if case.tiles == 1:
        repro.transpose_inplace(case.buf, m, n)
    else:
        batched_transpose_inplace(case.buf, m, n)


def _cold_setup(cases, call, native_dir, rec, tally: Tally) -> float:
    """Empty plan cache, empty artifact directory, then the first round
    trip of every case: plan builds, compiles and the first execution."""
    from repro.runtime import plan_cache

    plan_cache.clear()
    os.environ["REPRO_NATIVE_DIR"] = str(native_dir)
    t0 = perf_counter()
    for case in cases:
        case.round_trip(call, tally, rec)
    return perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, work) -> dict:
    large = workload == "inram-large"
    cases = [Case(seed, *spec) for spec in (LARGE if large else SMALL)]
    rec = ledger.Recorder()
    if trace:
        ledger.install(rec)
    pt = None
    if large:
        from repro.parallel import ParallelTranspose

        pt = ParallelTranspose(nproc())

        def call(case, m, n):
            pt.transpose_inplace(case.buf, m, n)
    else:
        call = _small_call

    total = Tally()
    try:
        # the traced mode runs its one cold set-up under the spans instead
        setups = [_cold_setup(cases, call, work.fresh("native"), rec, total)
                  for _ in range(0 if trace else COLD_SETUPS[workload])]
        log(f"  cold set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}")

        def one_round(t):
            for c in cases:
                c.round_trip(call, t, rec)

        if not large:  # the large cold set-ups already leave the steady state
            total.add(run_rounds(0.5, one_round))

        if not trace:
            tally = run_rounds(seconds, one_round)
            total.add(tally)
            metrics = {"setup_s": (median(setups), "s"), **tally.e2e(),
                       "peak_rss_mb": (peak_rss_mib(), "MiB")}
            log(f"  {tally.ops} timed operations")
            return {"tally": total, "correct": True, "metrics": metrics}
        return _traced(workload, cases, call, one_round, seconds, work, rec, total)
    finally:
        if pt is not None:
            pt.close()


def _traced(workload, cases, call, one_round, seconds, work, rec, total) -> dict:
    large = workload == "inram-large"
    # plan construction as a cold set-up pays it, seen through the spans
    with rec.recording():
        _cold_setup(cases, call, work.fresh("native"), rec, total)
    builds = ledger.by_name(rec.spans, "core.plan_build")
    plan_build_s = sum(s.duration for s in builds)
    plan_map_mb = sum(s.attrs["scratch_bytes"] for s in builds) / 2**20
    rec.spans.clear()

    modes = {"base": contextlib.nullcontext, "spans": rec.recording}
    if not large:
        modes["repro"] = ledger.repro_tracing
    before = layers.cache_counters()
    tallies = run_interleaved(seconds, one_round, modes)
    after = layers.cache_counters()
    for t in tallies.values():
        total.add(t)
    base = tallies["base"].p50_ms()
    m = {
        "core.plan_build_s": (plan_build_s, "s"),
        "core.plan_map_mb": (plan_map_mb, "MiB"),
        **layers.cache_metrics(before, after, sum(t.attempted for t in tallies.values())),
        "ledger.unattributed_frac": (ledger.unattributed_frac(rec.spans), "ratio"),
        "trace.overhead_frac": ((tallies["spans"].p50_ms() - base) / base, "ratio"),
    }
    if not large:
        m["trace.repro_trace_overhead_frac"] = ((tallies["repro"].p50_ms() - base) / base,
                                                "ratio")
    for name, s in sorted(ledger.self_time_table(rec.spans).items()):
        log(f"  ledger self time {name:>22}: {s * 1e3:10.2f} ms")

    rows = [layers.roofline(c.label, c.m, c.n, c.dtype,
                            budget_s=0.3 if not large else 1.0) for c in cases]
    m.update(layers.pass_metrics(rows[0]))
    main = cases[0]
    m["native.compile_s"] = (layers.cold_compile_s(
        main.m, main.n, main.dtype.itemsize, work.fresh("native")), "s")
    m["parallel.speedup"] = (layers.parallel_speedup(
        main.m, main.n, main.dtype, repeats=3 if large else 50), "ratio")
    return {"tally": total, "correct": True, "metrics": m, "recorder": rec}
