"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload serve --seeds 1-10 --seconds 15

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median of the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median: the figure each metric's bound in BENCHMARK.json
must stay above.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="15")
    args = ap.parse_args()
    if len(seeds(args.seeds)) < 2:
        ap.error("quartiles need at least two seeds")
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if out.returncode != 0:
            print(out.stderr[-4000:], file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        shares.add(res["failed"] / res["attempted"])
        steal = re.search(r"host steal during the run: ([\d.]+)", out.stderr)
        print(f"seed {seed}: steal {steal.group(1) if steal else '?'} "
              f"attempted {res['attempted']} failed {res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{args.workload:>12} {k:>16}: median {med:.5g}  iqr/median {(q[2] - q[0]) / med:.3f}"
              f"  min {min(v):.5g}  max {max(v):.5g}")
    print(f"{args.workload:>12} failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
