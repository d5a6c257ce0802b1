"""Serving-efficiency benchmark: the HTTP service vs the kernel ceiling.

Spins up an in-process :class:`repro.serve.TransposeServer`, drives it with
the open-loop Poisson load generator, and prints the serving report
(docs/SERVING.md) — achieved matrices/s between the two reference points:

* the **ceiling** (direct ``batched_transpose_inplace`` on a resident
  batch, zero serving overhead), and
* the **naive** one-request-one-plan path the coalescing batcher exists
  to beat.

A tiles sweep shows how client-side micro-batching (``X-Repro-Batch``)
amortizes the fixed per-request HTTP cost — the lever that keeps serving
efficiency above the CI floor on a single shared core.

Usage::

    python benchmarks/bench_serving.py                 # default sweep
    python benchmarks/bench_serving.py --duration 5 --tiles 1,4,8
    python benchmarks/bench_serving.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.serve import ServeConfig, TransposeServer  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    ShapeMix,
    format_report,
    run_loadtest,
)

DEFAULT_SHAPE = ShapeMix(256, 384, 1.0)


def run_point(
    *, tiles: int, rate: float, duration: float, dtype: str, workers: int,
) -> dict:
    server = TransposeServer(ServeConfig(
        port=0, workers=workers, queue_size=512, max_batch=32, max_wait_ms=0.5,
    )).start()
    try:
        report = run_loadtest(
            server.url,
            rate=rate,
            duration_s=duration,
            shapes=[DEFAULT_SHAPE],
            dtype=dtype,
            tiles=tiles,
            connections=16,
            reference=(tiles == 1),  # the references are tiles-independent
        )
    finally:
        summary = server.shutdown()
    return {"report": report, "shutdown": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate", type=float, default=900.0,
                        help="offered matrices/s (open-loop)")
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--dtype", default="uint8")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--tiles", default="1,2,4,8",
                        help="comma-separated tiles-per-request sweep")
    parser.add_argument("--json", help="write the sweep as JSON to a file")
    args = parser.parse_args(argv)

    tiles_sweep = [int(t) for t in args.tiles.split(",") if t.strip()]
    points = []
    references: dict = {}
    for tiles in tiles_sweep:
        point = run_point(
            tiles=tiles, rate=args.rate, duration=args.duration,
            dtype=args.dtype, workers=args.workers,
        )
        report = point["report"]
        # Reuse the tiles=1 reference measurements for the whole sweep so
        # every efficiency is against the same ceiling.
        if report.ceiling_rps:
            references = {
                "ceiling_rps": report.ceiling_rps,
                "coalesced_rps": report.coalesced_rps,
                "naive_rps": report.naive_rps,
            }
        elif references:
            report.ceiling_rps = references["ceiling_rps"]
            report.coalesced_rps = references["coalesced_rps"]
            report.naive_rps = references["naive_rps"]
        points.append(point)
        print(format_report(report))
        print(f"  shutdown  dropped={point['shutdown']['dropped']} "
              f"drained={point['shutdown']['drained']} "
              f"shm_leaked={point['shutdown'].get('shm_leaked', 0)}")
        print()

    print("tiles sweep (achieved matrices/s and efficiency vs "
          "min(offered, ceiling)):")
    for tiles, point in zip(tiles_sweep, points):
        r = point["report"]
        print(f"  tiles={tiles:<3} achieved {r.achieved_rps:8.1f}  "
              f"efficiency {r.efficiency:6.1%}  "
              f"p99 {r.latencies_ms.get('p99', 0.0):7.2f} ms")

    if args.json:
        doc = [
            {**p["report"].as_dict(), "shutdown": p["shutdown"]}
            for p in points
        ]
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    dropped = sum(p["shutdown"]["dropped"] for p in points)
    if dropped:
        print(f"FAIL: {dropped} accepted requests dropped during shutdown")
        return 1
    leaked = sum(p["shutdown"].get("shm_leaked", 0) for p in points)
    if leaked:
        print(f"FAIL: {leaked} shared-memory segment(s) leaked")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
