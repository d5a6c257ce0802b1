"""Per-layer measurements made beside a workload in the traced mode:
native pass cost against the memcpy ceiling (the roofline row), a cold
compile, and the parallel speed-up."""

from __future__ import annotations

import os
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from common import eq37_bytes, log, median, memcpy_gb_s, nproc

#: plan-step kind -> per-layer metric suffix
PASS_LABEL = {"rotate_groups": "rotate", "gather_cols": "gather_cols",
              "gather_rows": "gather_rows"}

#: a pass at or above this share of the memcpy ceiling is bandwidth-bound
BANDWIDTH_BOUND_FRAC = 0.5


def kernel_for(m: int, n: int, itemsize: int):
    """The compiled kernel of the C-order plan for ``m x n``, folded the
    way :class:`repro.core.plan.TransposePlan` folds it, without the plan.

    Codegen reads only the decomposition and the direction; a real
    ``TransposePlan`` would also build its O(mn) maps, which is the cost
    this measurement keeps apart."""
    from repro import native
    from repro.core.indexing import Decomposition
    from repro.core.transpose import choose_algorithm

    alg = choose_algorithm(m, n)
    dec = Decomposition.of(m, n) if alg == "c2r" else Decomposition.of(n, m)
    return native.kernel_for_plan(SimpleNamespace(dec=dec, algorithm=alg), itemsize)


def cold_compile_s(m: int, n: int, itemsize: int, native_dir) -> float:
    """One cold ``native.kernel_for_plan`` in an empty artifact directory."""
    old = os.environ.get("REPRO_NATIVE_DIR")
    os.environ["REPRO_NATIVE_DIR"] = str(native_dir)
    try:
        t0 = perf_counter()
        kernel = kernel_for(m, n, itemsize)
        dt = perf_counter() - t0
    finally:
        if old is None:
            del os.environ["REPRO_NATIVE_DIR"]
        else:
            os.environ["REPRO_NATIVE_DIR"] = old
    if kernel is None:
        raise RuntimeError(f"no native kernel for {m}x{n} itemsize {itemsize}")
    return dt


def roofline(label: str, m: int, n: int, dtype, budget_s: float = 0.3) -> dict:
    """Per-pass ``NativeKernel.run_pass`` time on a resident ``m x n``
    buffer against the ``np.copyto`` ceiling measured on the same bytes.

    Bytes are Eq. 37's computed ``2 m n sizeof(T)`` per pass; cache misses
    are not counted, so the row is labelled *computed*."""
    dtype = np.dtype(dtype)
    kernel = kernel_for(m, n, dtype.itemsize)
    if kernel is None:
        raise RuntimeError(f"no native kernel for {label}")
    buf = np.ones(m * n, dtype=dtype)  # a permutation's cost ignores the values
    addr = buf.ctypes.data
    nbytes = eq37_bytes(m, n, dtype.itemsize)
    ceiling = memcpy_gb_s(m * n * dtype.itemsize)
    rows = {}
    for idx, p in enumerate(kernel.passes):
        kernel.run_pass(idx, addr, 0, p.extent)
        times = []
        t_end = perf_counter() + budget_s
        while perf_counter() < t_end or len(times) < 3:
            t0 = perf_counter()
            kernel.run_pass(idx, addr, 0, p.extent)
            times.append(perf_counter() - t0)
        t = median(times)
        gbs = nbytes / t / 1e9
        frac = gbs / ceiling
        rows[PASS_LABEL[p.kind]] = {
            "ns_per_elem": t / (m * n) * 1e9,
            "computed_bytes": nbytes,
            "gb_s": gbs,
            "memcpy_frac": frac,
            "verdict": "bandwidth-bound" if frac >= BANDWIDTH_BOUND_FRAC
            else "compute-bound",
        }
    best = max(r["gb_s"] for r in rows.values())
    for name, r in rows.items():
        log(f"  roofline {label:>16} {name:>11}: computed {r['computed_bytes']} B, "
            f"{r['gb_s']:.2f} GB/s, {r['memcpy_frac']:.3f} of memcpy "
            f"{ceiling:.2f} GB/s, {r['ns_per_elem']:.3f} ns/elem -> {r['verdict']}")
    return {"label": label, "passes": rows, "memcpy_gb_s": ceiling,
            "memcpy_frac": best / ceiling}


def pass_metrics(main: dict) -> dict:
    """Per-layer native metrics from the roofline of the workload's main
    shape; a pass the shape does not run (no rotate when gcd = 1) is 0."""
    out = {}
    for label in ("rotate", "gather_cols", "gather_rows"):
        row = main["passes"].get(label)
        out[f"native.pass_ns_per_elem.{label}"] = (
            row["ns_per_elem"] if row else 0.0, "ns/elem")
    out["native.memcpy_gb_s"] = (main["memcpy_gb_s"], "GB/s")
    out["native.memcpy_frac"] = (main["memcpy_frac"], "ratio")
    return out


def parallel_speedup(m: int, n: int, dtype, repeats: int) -> float:
    """1-thread over ``nproc``-thread ``ParallelTranspose`` time, same
    direction, so both run on the one cached plan."""
    from repro.parallel import ParallelTranspose

    buf = np.ones(m * n, dtype=dtype)
    times = {}
    for threads in (1, nproc()):
        with ParallelTranspose(threads) as pt:
            pt.transpose_inplace(buf, m, n)  # plan + kernel, untimed
            ts = []
            for _ in range(repeats):
                t0 = perf_counter()
                pt.transpose_inplace(buf, m, n)
                ts.append(perf_counter() - t0)
        times[threads] = median(ts)
    log(f"  ParallelTranspose {m}x{n}, same direction, cached plan: "
        + ", ".join(f"{k} thread(s) {v * 1e3:.2f} ms" for k, v in times.items()))
    return times[1] / times[nproc()]


def cache_counters() -> dict:
    """Plan-cache statistics and the native compile counter, for deltas."""
    from repro.runtime import metrics, plan_cache

    s = plan_cache.stats()
    c = metrics.registry.snapshot().get("counters", {})
    return {"hits": s["hits"], "misses": s["misses"], "evictions": s["evictions"],
            "build_s": s["build_seconds"], "compiles": c.get("native.compile", 0)}


def cache_metrics(before: dict, after: dict, ops: int) -> dict:
    """Plan-cache and compile metrics from two :func:`cache_counters`."""
    d = {k: after[k] - before[k] for k in before}
    lookups = d["hits"] + d["misses"]
    log(f"  per op: plan-cache misses {d['misses'] / ops:.2f}, evictions "
        f"{d['evictions'] / ops:.2f}, native compiles {d['compiles'] / ops:.2f}; "
        f"{lookups} lookups, hit rate {d['hits'] / lookups if lookups else 0:.3f}")
    return {
        "runtime.plan_cache.hit_rate": (d["hits"] / lookups if lookups else 0.0, "ratio"),
        "runtime.plan_cache.evictions_per_op": (d["evictions"] / ops, "count"),
        "runtime.plan_cache.build_s_per_op": (d["build_s"] / ops, "s"),
        "native.compiles_per_op": (d["compiles"] / ops, "count"),
    }
