"""The native kernels' compile flags against ``-O3``: the evidence behind
``repro.native.kernel._OPT_FLAGS``.

For every shape of ``bench_orientation.py`` the script generates the C2R
kernel on ``(m, n)`` and the R2C kernel on ``(n, m)``, compiles each
translation unit twice with the ``cc`` toolchain, once at ``-O3`` and once
at the shipped flags, and times every pass of both builds single-threaded
(``NativeKernel.run_pass`` over the full extent) in ns per element.  The
two builds of a pass run back to back in every round, the one that goes
first alternating per round, so host load drifts over both alike; each
figure is a median over the rounds.  The table ends with the largest
ratios of the shipped flags to ``-O3``, and the ``gcc`` time of each
build.

This is timing, not a gate: nothing here fails on a slow host.

Usage::

    python benchmarks/bench_cflags.py               # full table
    python benchmarks/bench_cflags.py --budget 0.1  # quicker, noisier
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_orientation import DTYPE_TAG, ROLES, SHAPES, _host  # noqa: E402

from repro.core.indexing import Decomposition  # noqa: E402
from repro.native import kernel as K  # noqa: E402
from repro.native.codegen import generate_source  # noqa: E402

RESULT = Path(__file__).parent / "results" / "cflags.txt"

BASELINE = ("-O3",)
SIDES = ("c2r", "r2c")


def _build(spec, flags, cc: str, workdir: str):
    """Compile ``spec`` at ``flags``; the kernel and the compile's seconds."""
    tag = "-".join(f.strip("-").replace("=", "_") for f in flags)
    out = os.path.join(workdir, f"{abs(hash(spec.source))}_{tag}.so")
    t0 = perf_counter()
    K._compile_cc_at(spec.source, out, cc, flags)
    return K.NativeKernel(spec, out), perf_counter() - t0


def measure(m: int, n: int, dtype: str, budget_s: float, cc: str,
            workdir: str, min_rounds: int = 5) -> dict:
    """Per (side, role): ns/elem at -O3 and at the shipped flags, and the
    compile seconds per (side, flags)."""
    dt = np.dtype(dtype)
    buf = np.ones(m * n, dtype=dt)  # a permutation's cost ignores the values
    addr = buf.ctypes.data
    pairs = {}  # (side, role) -> (baseline callable, shipped callable)
    compile_s = {}
    for side, dec in (("c2r", Decomposition.of(m, n)), ("r2c", Decomposition.of(n, m))):
        spec = generate_source(dec, side, dt.itemsize)
        builds = []
        for flags in (BASELINE, K._OPT_FLAGS):
            kern, secs = _build(spec, flags, cc, workdir)
            compile_s[side, flags] = secs
            builds.append(kern)
        for idx, p in enumerate(spec.passes):
            pairs[side, ROLES[p.parallel_name]] = tuple(
                lambda k=k, i=idx, e=p.extent: k.run_pass(i, addr, 0, e)
                for k in builds
            )
    times = {key: ([], []) for key in pairs}
    t_end = perf_counter() + budget_s * 2 * len(pairs)
    rounds = -1  # the first round is the warm-up
    while rounds < min_rounds or perf_counter() < t_end:
        for key, fns in pairs.items():
            order = (0, 1) if rounds % 2 == 0 else (1, 0)
            for which in order:
                t0 = perf_counter()
                fns[which]()
                if rounds >= 0:
                    times[key][which].append(perf_counter() - t0)
        rounds += 1
    return {
        "ns": {key: tuple(median(ts) / buf.size * 1e9 for ts in pair)
               for key, pair in times.items()},
        "compile_s": compile_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=float, default=0.3,
                    help="seconds of rounds per timed pass and build (default 0.3)")
    ap.add_argument("--out", type=Path, default=RESULT)
    args = ap.parse_args(argv)
    cc = K.find_compiler()
    if cc is None:
        print("no C compiler", file=sys.stderr)
        return 2
    shipped = " ".join(K._OPT_FLAGS)
    roles = ("rotate", "row", "col")
    head = (
        f"{'shape':<16}" + "".join(f"{s.upper() + ' ' + r:>14}" for s in SIDES for r in roles)
        + f"{'cc s c2r':>15}{'cc s r2c':>15}"
    )
    lines = [
        f"Shipped native compile flags ({shipped}) against -O3 on the same",
        "generated units: single-threaded per-pass ns/elem, each cell -O3/shipped,",
        "medians of interleaved rounds (the build that runs first alternates).",
        "C2R runs on (m, n), R2C on (n, m); '-' where the kernel has no rotate pass.",
        "cc s = seconds of one cold compile at -O3/shipped.",
        f"host: {_host()}; compiler: {cc}",
        "",
        head,
        "-" * len(head),
    ]
    print("\n".join(lines), flush=True)
    ratios = []
    with tempfile.TemporaryDirectory(prefix="bench-cflags-") as workdir:
        for _, m, n, dtype in SHAPES:
            r = measure(m, n, dtype, args.budget, cc, workdir)
            cells = []
            for side in SIDES:
                for role in roles:
                    pair = r["ns"].get((side, role))
                    if pair is None:
                        cells.append(f"{'-':>14}")
                        continue
                    a, b = pair
                    cells.append(f"{f'{a:.2f}/{b:.2f}':>14}")
                    ratios.append((b / a, f"{m}x{n} {DTYPE_TAG[dtype]} {side} {role}"))
            cs = r["compile_s"]
            for side in SIDES:
                cells.append(
                    f"{f'{cs[side, BASELINE]:.2f}/{cs[side, K._OPT_FLAGS]:.2f}':>15}"
                )
            row = f"{f'{m}x{n} {DTYPE_TAG[dtype]}':<16}" + "".join(cells)
            lines.append(row)
            print(row, flush=True)
    ratios.sort(reverse=True)
    tail = ["", "largest shipped/-O3 ratios:"]
    tail += [f"  {x:.2f}  {what}" for x, what in ratios[:6]]
    tail += ["smallest:"]
    tail += [f"  {x:.2f}  {what}" for x, what in ratios[-3:]]
    lines += tail
    print("\n".join(tail))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
