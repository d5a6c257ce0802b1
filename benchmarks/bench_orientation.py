"""C2R versus R2C on the CPU's compiled kernels: the evidence behind
``choose_algorithm``.

A row-major ``m x n`` transpose runs either C2R on the ``(m, n)``
decomposition or R2C on the ``(n, m)`` one; Theorem 2 makes the two the
same buffer permutation, so the choice is purely a speed question.  The
paper's Section 5.2 rule (C2R when ``m > n``, else R2C) answers it for the
K20c, where it decides whether a row fits on chip; the GPU model keeps it
as ``repro.gpusim.cost.paper_heuristic``.  The CPU resolver
``repro.core.transpose.choose_algorithm`` picks C2R for every shape, and
this table is why.

For every shape the script compiles both native kernels and times each of
their passes single-threaded (``NativeKernel.run_pass`` over the full
extent) in ns per element, beside the ``np.copyto`` ceiling on the same
bytes.  The passes of both kernels and the copy run in interleaved rounds,
and each figure is a median over the rounds.  Each row marks the side each rule picks and
the side that measured faster.  Row pitches that are a multiple of 4 KiB
are starred: there every row of a column walk maps to the same cache sets.

This is timing, not a gate: nothing here fails on a slow host.

Usage::

    python benchmarks/bench_orientation.py               # full table
    python benchmarks/bench_orientation.py --budget 0.1  # quicker, noisier
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import native  # noqa: E402
from repro.core.indexing import Decomposition  # noqa: E402
from repro.core.transpose import choose_algorithm  # noqa: E402
from repro.gpusim.cost import paper_heuristic  # noqa: E402

RESULT = Path(__file__).parent / "results" / "orientation.txt"

#: (where the shape comes from, m, n, dtype); m x n is row-major
SHAPES = [
    ("inram-small", 256, 384, "uint8"),
    ("inram-small", 300, 500, "float32"),
    ("inram-small", 251, 384, "float64"),
    ("inram-large", 4096, 6000, "float32"),
    ("stream", 6144, 8192, "float32"),
    ("", 4096, 6000, "uint8"),
    ("", 6000, 8192, "uint8"),
    ("", 6000, 4096, "float32"),
    ("", 2048, 3000, "float64"),
    ("", 3000, 2048, "float64"),
    ("", 1024, 1536, "float32"),
    ("", 1536, 1024, "float32"),
    ("", 512, 4096, "float32"),
    ("", 4096, 512, "float32"),
    ("", 1000, 3000, "float64"),
    ("", 777, 2049, "float32"),
    ("", 1500, 9000, "float32"),
    ("", 2500, 4000, "uint16"),
    ("", 2000, 2001, "float64"),
    ("", 3000, 3000, "float32"),
    ("", 1024, 1024, "float64"),
    ("", 100, 10000, "float64"),
    ("", 10000, 100, "float64"),
]

#: one column per pass role; C2R runs rotate first, R2C last
ROLES = {
    "pre_rotate": "rotate", "post_rotate": "rotate",
    "row_shuffle": "row", "row_shuffle_r2c": "row",
    "column_shuffle": "col", "inverse_column_shuffle": "col",
}

#: the memcpy ceiling is measured on at most this many bytes: above the
#: last-level cache its rate no longer depends on the size
MEMCPY_CAP = 64 << 20

DTYPE_TAG = {"uint8": "u8", "uint16": "u16", "float32": "f32", "float64": "f64"}


def measure(m: int, n: int, dtype: str, budget_s: float,
            min_rounds: int = 5) -> dict:
    """Per-role ns/elem of both kernels, plus the memcpy ceiling.

    Every round runs each pass of both kernels once, then the copy, so
    host load drifts over both sides alike; each figure is the median
    over at least ``min_rounds`` rounds and about ``budget_s`` seconds
    per pass, after one untimed warm-up round."""
    dt = np.dtype(dtype)
    buf = np.ones(m * n, dtype=dt)  # a permutation's cost ignores the values
    addr, elems = buf.ctypes.data, buf.size
    runs = {}  # (side, role) -> zero-argument callable
    for side, dec in (("c2r", Decomposition.of(m, n)), ("r2c", Decomposition.of(n, m))):
        kernel = native.kernel_for_plan(
            SimpleNamespace(dec=dec, algorithm=side), dt.itemsize
        )
        if kernel is None:
            raise RuntimeError(f"no native kernel for {side} {dec.m}x{dec.n}")
        for idx, p in enumerate(kernel.passes):
            runs[side, ROLES[p.parallel_name]] = (
                lambda k=kernel, i=idx, e=p.extent: k.run_pass(i, addr, 0, e)
            )
    size = min(buf.nbytes, MEMCPY_CAP)
    src = np.ones(size, dtype=np.uint8)
    dst = np.empty_like(src)
    runs["memcpy"] = lambda: np.copyto(dst, src)

    times = {key: [] for key in runs}
    t_end = perf_counter() + budget_s * len(runs)
    rounds = -1  # the first round is the warm-up
    while rounds < min_rounds or perf_counter() < t_end:
        for key, fn in runs.items():
            t0 = perf_counter()
            fn()
            if rounds >= 0:
                times[key].append(perf_counter() - t0)
        rounds += 1
    out = {"memcpy": median(times.pop("memcpy")) / size * dt.itemsize * 1e9}
    for side in ("c2r", "r2c"):
        row = {"rotate": 0.0}
        for (s, role), ts in times.items():
            if s == side:
                row[role] = median(ts) / elems * 1e9
        row["total"] = sum(row.values())
        out[side] = row
    return out


def _pitch(elems: int, itemsize: int) -> str:
    nbytes = elems * itemsize
    return f"{nbytes}{'*' if nbytes % 4096 == 0 else ''}"


def _host() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=float, default=0.5,
                    help="seconds of rounds per timed pass (default 0.5)")
    ap.add_argument("--out", type=Path, default=RESULT)
    args = ap.parse_args(argv)
    if not native.available():
        print(f"no native toolchain: {native.unavailable_reason()}", file=sys.stderr)
        return 2

    head = (
        f"{'shape':<18}{'from':<12}{'pitch B c2r/r2c':>17}{'memcpy':>8} | "
        f"{'C2R on (m,n): rot':>17}{'row':>6}{'col':>6}{'total':>7} | "
        f"{'R2C on (n,m): rot':>17}{'row':>6}{'col':>6}{'total':>7} | "
        f"{'paper':>5}{'cpu':>5}{'fast':>5}{'r2c/c2r':>8}"
    )
    lines = [
        "C2R vs R2C on the compiled CPU kernels: single-threaded native",
        "per-pass ns/elem (median of interleaved rounds), memcpy = np.copyto",
        f"ns/elem on the same bytes (capped at {MEMCPY_CAP >> 20} MiB).",
        "paper = the Section 5.2 rule (C2R if m > n else R2C, the GPU model);",
        "cpu = choose_algorithm (C2R); fast = the side that measured faster.",
        "* marks a row pitch that is a multiple of 4 KiB.",
        f"host: {_host()}",
        "",
        head,
        "-" * len(head),
    ]
    print("\n".join(lines), flush=True)
    ratios_lt, picks = [], {"paper": 0, "cpu": 0}
    for where, m, n, dtype in SHAPES:
        r = measure(m, n, dtype, args.budget)
        c, q = r["c2r"], r["r2c"]
        fast = "c2r" if c["total"] <= q["total"] else "r2c"
        paper, cpu = paper_heuristic(m, n), choose_algorithm(m, n)
        picks["paper"] += paper == fast
        picks["cpu"] += cpu == fast
        ratio = q["total"] / c["total"]
        if m < n:
            ratios_lt.append(ratio)
        itemsize = np.dtype(dtype).itemsize
        pitches = f"{_pitch(n, itemsize)}/{_pitch(m, itemsize)}"
        row = (
            f"{f'{m}x{n} {DTYPE_TAG[dtype]}':<18}{where:<12}{pitches:>17}"
            f"{r['memcpy']:>8.2f} | "
            f"{c['rotate']:>17.2f}{c['row']:>6.2f}{c['col']:>6.2f}{c['total']:>7.2f} | "
            f"{q['rotate']:>17.2f}{q['row']:>6.2f}{q['col']:>6.2f}{q['total']:>7.2f} | "
            f"{paper:>5}{cpu:>5}{fast:>5}{ratio:>8.2f}"
        )
        lines.append(row)
        print(row, flush=True)
    geo = math.exp(sum(math.log(x) for x in ratios_lt) / len(ratios_lt))
    tail = [
        "",
        f"faster side picked: paper rule {picks['paper']}/{len(SHAPES)}, "
        f"cpu rule {picks['cpu']}/{len(SHAPES)}",
        f"m < n shapes: C2R faster on {sum(x > 1 for x in ratios_lt)}/"
        f"{len(ratios_lt)}, R2C/C2R total time geomean {geo:.2f}",
    ]
    lines += tail
    print("\n".join(tail))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
