"""CI benchmark smoke: a fixed shape set through the instrumented runtime.

Runs a small, fast (~seconds) workload on every CI push and gates on two
properties that guard the repo's constant factors:

1. **Amortization works.**  Repeated same-shape ``transpose_inplace`` calls
   through the process-wide plan cache must not be slower than per-call
   planning (cache hits must be > 0 and the cached median must beat the
   uncached median within a small tolerance).
2. **No perf regressions.**  The cached per-element time (best-of-N, the
   stable estimator for bandwidth-bound kernels; the median rides along in
   the report), *normalized by a same-size memcpy on the same machine*,
   must stay within ``--threshold``
   (default 25%) of the committed baseline
   (``benchmarks/results/BENCH_ci_baseline.json``) in **geometric mean
   across the shape set**, with a 2x-threshold per-shape catch-all for
   single-shape cliffs.  Normalizing by memcpy makes the gate portable
   across CI runner generations: absolute nanoseconds vary wildly between
   machines, the ratio to achievable bandwidth far less (the same trick the
   paper uses when reporting achieved fraction of peak); gating the mean
   keeps scheduler noise on one shape from failing the build.

3. **The native backend is fast.**  When a C compiler is present, each
   shape is also measured through ``backend="native"`` (the compiled
   per-plan kernels of :mod:`repro.native`) two ways.  End-to-end: with
   ``P`` passes each moving ``2 * nbytes`` against a memcpy ceiling of
   ``2 * nbytes / memcpy_s``, the whole-transpose fraction reduces to
   ``P * memcpy_s / native_s`` per shape, and the composite across the
   set is time-weighted (``sum(P_i * memcpy_s_i) / sum(native_s_i)``) —
   recorded in the report and trajectory as the trend metric.  Per-pass:
   the same best-pass memcpy fraction ``repro profile --backend native``
   prints (the shuffle passes are pure permuted-memcpy loops; their
   fraction is the honest bandwidth headline, matching the profiler).
   ``--native-floor`` (default 0.5) fails the build when the best-pass
   fraction of any **DRAM-resident** shape (>= 2 MB buffer) dips below
   it — the kernels must stay memory-bound, not index-bound.  Smaller
   shapes are recorded but not gated: their same-size memcpy ceiling is
   cache-resident bandwidth, which no scatter pass can match and which
   says nothing about the kernels.  On machines without a
   toolchain the native series is recorded as unavailable and the floor
   is skipped (the fallback path is gated separately by CI's no-compiler
   leg).  The native normalized times also participate in the baseline
   regression gate when the baseline carries them.

If the baseline file is missing the regression gate is skipped gracefully
(first-run behavior); ``--update-baseline`` refreshes it.  The measured
snapshot is always written to ``BENCH_ci.json`` for the CI artifact upload,
and every run appends one point to the committed benchmark **trajectory**
(``benchmarks/results/BENCH_ci_trajectory.json``): composite memcpy
fraction and per-backend ns/elem per shape — a
machine-readable history of how the repo's constant factors move over time.

Usage::

    python benchmarks/bench_ci_smoke.py                    # measure + gate
    python benchmarks/bench_ci_smoke.py --update-baseline  # refresh baseline
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.transpose import transpose_inplace  # noqa: E402
from repro.runtime import metrics, plan_cache  # noqa: E402

SHAPES = [(256, 384), (384, 256), (512, 512), (500, 1000)]
REPEATS = 9
#: buffers at or above this are DRAM-resident on any CI runner; only those
#: shapes are gated by ``--native-floor`` (see module docstring, point 3)
DRAM_RESIDENT_BYTES = 2 * 1024 * 1024
DEFAULT_OUT = "BENCH_ci.json"
_RESULTS = Path(__file__).resolve().parent / "results"
BASELINE = _RESULTS / "BENCH_ci_baseline.json"
TRAJECTORY = _RESULTS / "BENCH_ci_trajectory.json"


def _timed_samples(fn, repeats: int) -> list[float]:
    fn()  # warm-up: page in buffers, JIT nothing, prime caches
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return samples


def _native_available() -> bool:
    from repro import native

    # Both halves matter: REPRO_NATIVE=0 must skip the native series (an
    # explicit backend="native" would silently fall back to numpy and the
    # "native" numbers would be interpreter numbers wearing the wrong label).
    return native.enabled() and native.available()


def measure_shape(m: int, n: int, repeats: int = REPEATS) -> dict:
    """Cached vs uncached vs native vs memcpy for one shape (float64).

    The cached/uncached series force ``backend="numpy"`` so their numbers
    stay comparable with pre-native baselines; the native series is its own
    set of fields (``None`` when no toolchain is available).
    """
    elems = m * n
    proto = np.arange(elems, dtype=np.float64)
    buf = proto.copy()  # persistent working buffer: pages stay faulted in

    # Best-of for every estimator used by the gate: the machine's achievable
    # time is the *minimum*, everything above it is scheduler noise — medians
    # of millisecond-scale samples still swing 2x on busy CI runners.
    # Medians ride along in the report for eyeballing variance.
    memcpy_s = min(_timed_samples(lambda: np.copyto(buf, proto), 3 * repeats))

    def sample(fn):
        np.copyto(buf, proto)  # reset costs exactly one memcpy (warm pages)
        fn()

    # Uncached: planning (index-map construction) on every call.
    uncached_samples = _timed_samples(
        lambda: sample(lambda: transpose_inplace(
            buf, m, n, use_plan_cache=False, backend="numpy"
        )),
        repeats,
    )

    # Cached: one warm-up miss builds the plan, then every call hits.
    cache = plan_cache.get_plan_cache()
    hits_before = cache.stats()["hits"]
    transpose_inplace(proto.copy(), m, n, backend="numpy")
    cached_samples = _timed_samples(
        lambda: sample(
            lambda: transpose_inplace(buf, m, n, backend="numpy")
        ),
        repeats,
    )
    hits = cache.stats()["hits"] - hits_before

    # Each sample resets the buffer with one warm-page memcpy; subtract it
    # so the ratio reflects the transpose alone.  (A fresh ``.copy()`` per
    # sample would charge allocation + page faults to the transpose, which
    # on small shapes drowns the kernel being measured.)
    uncached_s = max(min(uncached_samples) - memcpy_s, 1e-9)
    cached_s = max(min(cached_samples) - memcpy_s, 1e-9)
    cached_median_s = max(statistics.median(cached_samples) - memcpy_s, 1e-9)
    out = {
        "m": m,
        "n": n,
        "elements": elems,
        "cache_hits": hits,
        "memcpy_ns_per_elem": memcpy_s / elems * 1e9,
        "uncached_ns_per_elem": uncached_s / elems * 1e9,
        "cached_ns_per_elem": cached_s / elems * 1e9,
        "cached_median_ns_per_elem": cached_median_s / elems * 1e9,
        "normalized": cached_s / max(memcpy_s, 1e-12),
        "native_ns_per_elem": None,
        "native_normalized": None,
        "native_passes": None,
        "memcpy_fraction": None,
        "best_pass_memcpy_fraction": None,
        "fraction_gated": elems * proto.itemsize >= DRAM_RESIDENT_BYTES,
        "native_memcpy_s": memcpy_s,
        "native_s": None,
    }
    if not _native_available():
        return out

    # Native: same cached plan, compiled kernel execution.  The warm-up call
    # also pays the one-time compile, keeping it out of the samples.
    transpose_inplace(proto.copy(), m, n, backend="native")
    native_samples = _timed_samples(
        lambda: sample(
            lambda: transpose_inplace(buf, m, n, backend="native")
        ),
        repeats,
    )
    native_s = max(min(native_samples) - memcpy_s, 1e-9)
    plan = plan_cache.get_single_plan(m, n, "C", "auto", proto.dtype)
    passes = 3 if plan.dec.c > 1 else 2  # the pre-rotation vanishes when gcd is 1

    # Best-pass fraction, measured exactly the way `repro profile` does
    # (traced per-pass bandwidth over a same-size memcpy ceiling).
    from repro.trace.profile import profile_shape

    prof = profile_shape(m, n, repeats=min(repeats, 5), backend="native")
    best_frac = max((p.memcpy_frac for p in prof.passes), default=0.0)

    out.update(
        native_ns_per_elem=native_s / elems * 1e9,
        native_normalized=native_s / max(memcpy_s, 1e-12),
        native_passes=passes,
        # P passes each move 2*nbytes against a 2*nbytes/memcpy_s ceiling,
        # so the achieved-fraction algebra collapses to P * memcpy_s / t.
        memcpy_fraction=passes * memcpy_s / native_s,
        best_pass_memcpy_fraction=best_frac,
        native_s=native_s,
    )
    return out


def composite_memcpy_fraction(results: list[dict]) -> float | None:
    """Time-weighted composite fraction across the shape set.

    ``sum(P_i * memcpy_s_i) / sum(native_s_i)``: each shape contributes in
    proportion to the time the kernels actually spend on it, so a slow
    large shape cannot hide behind a fast small one.  ``None`` when no
    shape has a native measurement.
    """
    num = den = 0.0
    for r in results:
        if r.get("native_s") is None:
            continue
        num += r["native_passes"] * r["native_memcpy_s"]
        den += r["native_s"]
    return num / den if den > 0 else None


def run(repeats: int) -> dict:
    metrics.reset()
    plan_cache.clear()
    plan_cache.get_plan_cache().reset_stats()
    results = [measure_shape(m, n, repeats) for m, n in SHAPES]
    report = {
        "schema": 2,
        "repeats": repeats,
        "native_available": _native_available(),
        "results": results,
        "composite_memcpy_fraction": composite_memcpy_fraction(results),
        "plan_cache": plan_cache.stats(),
        "metrics": metrics.registry.snapshot(),
    }
    return report


def gate(
    report: dict,
    baseline: dict | None,
    threshold: float,
    native_floor: float | None = None,
) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    failures = []
    for r in report["results"]:
        label = f"{r['m']}x{r['n']}"
        if r["cache_hits"] <= 0:
            failures.append(f"{label}: no plan-cache hits recorded")
        if r["cached_ns_per_elem"] > r["uncached_ns_per_elem"] * 1.10:
            failures.append(
                f"{label}: cached path ({r['cached_ns_per_elem']:.2f} ns/elem) "
                f"slower than per-call planning "
                f"({r['uncached_ns_per_elem']:.2f} ns/elem)"
            )

    # Native memcpy-fraction floor: the compiled kernels must stay
    # memory-bound.  Gated on the best-pass fraction of DRAM-resident
    # shapes (see module docstring); skipped (with a note, not a failure)
    # when no toolchain is present — the fallback path is exercised by
    # CI's no-compiler leg.
    if native_floor is not None:
        if not report.get("native_available"):
            print("native memcpy-fraction floor skipped: no toolchain")
        else:
            composite = report.get("composite_memcpy_fraction")
            if composite is not None:
                print(
                    f"native composite memcpy fraction: {composite:.3f} "
                    f"(trend metric, not gated)"
                )
            for r in report["results"]:
                frac = r.get("best_pass_memcpy_fraction")
                if frac is None:
                    continue
                label = f"{r['m']}x{r['n']}"
                gated = r.get("fraction_gated", False)
                print(
                    f"{label}: best-pass memcpy fraction {frac:.3f} "
                    f"(floor {native_floor:.2f})"
                    + ("" if gated else "  [not gated: cache-resident]")
                )
                if gated and frac < native_floor:
                    failures.append(
                        f"{label}: best-pass memcpy fraction {frac:.3f} "
                        f"below floor {native_floor:.2f}"
                    )

    if baseline is None:
        return failures
    base_by_shape = {(b["m"], b["n"]): b for b in baseline.get("results", [])}
    ratios = []
    native_ratios = []
    for r in report["results"]:
        b = base_by_shape.get((r["m"], r["n"]))
        if b is None:
            continue
        ratio = r["normalized"] / max(b["normalized"], 1e-12)
        ratios.append(ratio)
        # Per-shape catch-all at double the aggregate threshold: loose enough
        # for single-shape scheduler noise, tight enough to flag a cliff.
        if ratio > 1.0 + 2 * threshold:
            failures.append(
                f"{r['m']}x{r['n']}: normalized per-element time "
                f"{r['normalized']:.3f} exceeds baseline "
                f"{b['normalized']:.3f} by more than {2 * threshold:.0%}"
            )
        # Native regression rides the same gate once both sides measured it.
        if (
            r.get("native_normalized") is not None
            and b.get("native_normalized") is not None
        ):
            nratio = r["native_normalized"] / max(b["native_normalized"], 1e-12)
            native_ratios.append(nratio)
            if nratio > 1.0 + 2 * threshold:
                failures.append(
                    f"{r['m']}x{r['n']}: native normalized time "
                    f"{r['native_normalized']:.3f} exceeds baseline "
                    f"{b['native_normalized']:.3f} by more than "
                    f"{2 * threshold:.0%}"
                )
    if ratios:
        geomean = statistics.geometric_mean(ratios)
        print(f"normalized-vs-baseline geometric mean: {geomean:.3f}")
        if geomean > 1.0 + threshold:
            failures.append(
                f"geometric-mean normalized time regressed {geomean - 1.0:.0%} "
                f"against baseline (threshold {threshold:.0%})"
            )
    if native_ratios:
        ngeomean = statistics.geometric_mean(native_ratios)
        print(f"native normalized-vs-baseline geometric mean: {ngeomean:.3f}")
        if ngeomean > 1.0 + threshold:
            failures.append(
                f"geometric-mean native normalized time regressed "
                f"{ngeomean - 1.0:.0%} against baseline "
                f"(threshold {threshold:.0%})"
            )
    return failures


def append_trajectory(report: dict, path: Path) -> dict:
    """Append one measurement point to the committed benchmark trajectory.

    The trajectory is a JSON list, one entry per recorded run: composite
    memcpy fraction and per-backend ns/elem per shape.
    CI uploads it as an artifact; maintainers commit points from reference
    machines so the history stays comparable.
    """
    import datetime
    import os

    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": os.environ.get("GITHUB_SHA"),
        "native_available": report["native_available"],
        "composite_memcpy_fraction": report["composite_memcpy_fraction"],
        "shapes": {
            f"{r['m']}x{r['n']}": {
                "cached_ns_per_elem": r["cached_ns_per_elem"],
                "native_ns_per_elem": r["native_ns_per_elem"],
                "memcpy_ns_per_elem": r["memcpy_ns_per_elem"],
                "memcpy_fraction": r["memcpy_fraction"],
                "best_pass_memcpy_fraction": r["best_pass_memcpy_fraction"],
            }
            for r in report["results"]
        },
    }
    history = []
    if path.exists():
        history = json.loads(path.read_text())
        if not isinstance(history, list):
            raise SystemExit(f"trajectory file {path} is not a JSON list")
    history.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUT)
    parser.add_argument("--baseline", default=str(BASELINE))
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--native-floor", type=float, default=0.5,
                        help="fail unless the native best-pass memcpy "
                        "fraction of every DRAM-resident shape >= this "
                        "value (skipped without a toolchain); <= 0 "
                        "disables the floor")
    parser.add_argument("--trajectory", default=str(TRAJECTORY),
                        help="benchmark trajectory file to append to")
    parser.add_argument("--no-trajectory", action="store_true",
                        help="skip the trajectory append (scratch runs)")
    args = parser.parse_args(argv)

    report = run(args.repeats)
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for r in report["results"]:
        native = (
            f"native {r['native_ns_per_elem']:6.2f} "
            f"(frac {r['memcpy_fraction']:.3f})"
            if r["native_ns_per_elem"] is not None
            else "native      --"
        )
        print(
            f"{r['m']:>5} x {r['n']:<5} cached {r['cached_ns_per_elem']:7.2f} "
            f"ns/elem  uncached {r['uncached_ns_per_elem']:7.2f}  "
            f"memcpy {r['memcpy_ns_per_elem']:6.2f}  {native}  "
            f"normalized {r['normalized']:6.3f}  hits {r['cache_hits']}"
        )
    print(f"wrote {args.output}")
    if not args.no_trajectory:
        append_trajectory(report, Path(args.trajectory))
        print(f"trajectory appended: {args.trajectory}")

    if args.update_baseline:
        Path(args.baseline).parent.mkdir(parents=True, exist_ok=True)
        Path(args.baseline).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline_path = Path(args.baseline)
    baseline = None
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
    else:
        print(f"no baseline at {baseline_path}; regression gate skipped")

    native_floor = args.native_floor if args.native_floor > 0 else None
    failures = gate(report, baseline, args.threshold, native_floor)
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}")
        return 1
    print("benchmark smoke gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
