"""The transposer's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload inram-small --seed 1 --seconds 10 --trace 0

Prints a ``RUN`` record (commit, source digest, host fingerprint) and, as
the last line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  Progress, the roofline rows and the ledger's self-time table go
to standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, WorkDir, cpu_times, log, run_record, steal_share  # noqa: E402

WORKLOADS = ("inram-small", "inram-large", "serve", "stream")

END_TO_END = {
    "setup_s": "s",
    "throughput_gb_s": "GB/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}

#: every per-layer metric; a layer a workload does not run reads 0 there
PER_LAYER = {
    "core.plan_build_s": "s",
    "core.plan_map_mb": "MiB",
    "runtime.plan_cache.hit_rate": "ratio",
    "runtime.plan_cache.evictions_per_op": "count",
    "runtime.plan_cache.build_s_per_op": "s",
    "native.compile_s": "s",
    "native.compiles_per_op": "count",
    "native.pass_ns_per_elem.rotate": "ns/elem",
    "native.pass_ns_per_elem.gather_cols": "ns/elem",
    "native.pass_ns_per_elem.gather_rows": "ns/elem",
    "native.memcpy_gb_s": "GB/s",
    "native.memcpy_frac": "ratio",
    "parallel.speedup": "ratio",
    "serve.queue_wait_ms_p50": "ms",
    "serve.execute_ms_p50": "ms",
    "serve.tiles_per_group": "count",
    "serve.http_ms_p50": "ms",
    "serve.gen_late_ms_p90": "ms",
    "stream.band_load_ms": "ms",
    "stream.band_store_ms": "ms",
    "stream.flush_s": "s",
    "stream.exec_s": "s",
    "stream.bands": "count",
    "stream.naive_ratio": "ratio",
    "ledger.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.repro_trace_overhead_frac": "ratio",
}


def _clean_env() -> None:
    """Run the program in its default configuration whatever the caller's
    environment says: these switches would change what is measured."""
    for var in ("REPRO_TRACE", "REPRO_EVENTS", "REPRO_SANITIZE", "REPRO_NATIVE",
                "REPRO_NATIVE_MIN_ELEMS", "REPRO_NATIVE_TOOLCHAIN", "REPRO_METRICS",
                "REPRO_PLAN_CACHE", "REPRO_PLAN_CACHE_BYTES", "REPRO_STREAM_WINDOW",
                "REPRO_STREAM_IO_BLOCK", "REPRO_NATIVE_DIR"):
        os.environ.pop(var, None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"error: no program sources under {ROOT / 'src'}")
        return 2
    _clean_env()
    # the program's import path, and the children that inherit it
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    print("RUN " + json.dumps(run_record(args.workload, args.seed, args.seconds,
                                         bool(args.trace))), flush=True)

    if args.workload.startswith("inram"):
        import wl_inram as mod
    elif args.workload == "serve":
        import wl_serve as mod
    else:
        import wl_stream as mod

    with WorkDir() as work:
        # compiled kernels stay in the checkout; cold set-ups use fresh ones
        os.environ["REPRO_NATIVE_DIR"] = str(work.fresh("native"))
        cpu0 = cpu_times()
        res = mod.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        log(f"  host steal during the run: {steal_share(cpu0, cpu_times()):.3f}")
        rec = res.get("recorder")
        if rec is not None:
            out = ROOT / ".perfbench_traces"
            out.mkdir(exist_ok=True)
            path = out / f"{args.workload}-seed{args.seed}.jsonl"
            rec.dump(path)
            log(f"  {len(rec.spans)} spans written to {path.relative_to(ROOT)}")

    metrics = res["metrics"]
    expected = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        idle = sorted(set(PER_LAYER) - set(metrics))
        if idle:
            log(f"  layers not run by {args.workload} (reported as 0): {', '.join(idle)}")
        for name in idle:
            metrics[name] = (0.0, PER_LAYER[name])
    missing = set(expected) - set(metrics)
    if missing:
        raise RuntimeError(f"workload did not measure {sorted(missing)}")
    tally = res["tally"]
    correct = bool(res["correct"])
    for name in expected:
        value, unit = metrics[name]
        log(f"  {name:>40} = {value:.6g} {unit}")
        # NaN: no sample (every operation of some kind failed); an
        # end-to-end figure is never 0 on a run that did its work
        if not math.isfinite(value) or (not args.trace and value <= 0):
            log(f"  {name} not measured: the run is not correct")
            metrics[name] = (0.0, unit)
            correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name][0]), "unit": expected[name]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
