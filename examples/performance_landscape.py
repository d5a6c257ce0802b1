#!/usr/bin/env python3
"""The C2R/R2C performance landscape and the direction heuristic (Fig. 4-5).

Evaluates the K20c cost model over a small grid to show:
* the C2R fast band at small n and the R2C fast band at small m;
* how the paper's heuristic (m > n -> C2R, else R2C) always lands on the
  fast side of the modeled GPU (the CPU executors run C2R for every shape;
  see ``repro.core.transpose.choose_algorithm``);
* a per-pass cost breakdown for one shape.

Run:  python examples/performance_landscape.py
"""

from __future__ import annotations

from repro.gpusim.cost import c2r_cost, paper_heuristic, r2c_cost

GRID = [1000, 4000, 8000, 14000, 20000]


def landscape(cost_fn, label: str) -> None:
    print(f"\n{label} modeled throughput (GB/s), float64, Tesla K20c model")
    print("        " + "".join(f"n={n:<7}" for n in GRID))
    for m in GRID:
        row = [cost_fn(m + 1, n + 2, 8).throughput_gbps for n in GRID]
        print(f"m={m:<6}" + "".join(f"{v:8.1f} " for v in row))


def main() -> None:
    landscape(c2r_cost, "C2R")
    landscape(r2c_cost, "R2C")

    print("\nthe paper's heuristic picks the fast side of the K20c model:")
    for m, n in [(20001, 1501), (1501, 20001), (9001, 9002)]:
        algo = paper_heuristic(m, n)
        both = {
            "c2r": c2r_cost(m, n, 8).throughput_gbps,
            "r2c": r2c_cost(m, n, 8).throughput_gbps,
        }
        print(f"  {m:>6} x {n:<6}: heuristic -> {algo:3}  "
              f"(c2r {both['c2r']:5.1f}, r2c {both['r2c']:5.1f} GB/s)")

    print("\nper-pass breakdown, 9001 x 9002 float64 (C2R):")
    cost = c2r_cost(9001, 9002, 8)
    for p in cost.passes:
        print(f"  {p.name:<24} {p.useful_bytes/1e9:6.2f} GB useful, "
              f"efficiency {p.efficiency*100:5.1f}% "
              f"-> {p.dram_bytes/1e9:6.2f} GB DRAM")
    print(f"  total {cost.dram_bytes/1e9:.2f} GB DRAM, "
          f"{cost.seconds*1e3:.1f} ms -> {cost.throughput_gbps:.1f} GB/s (Eq. 37)")


if __name__ == "__main__":
    main()
