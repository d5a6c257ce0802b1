"""GPU memory-system simulator — the evaluation substrate.

No GPU exists in this environment, so the paper's GPU results (Figures 4-9,
Table 2) are reproduced through a memory-system model with three layers:

1. :mod:`~repro.gpusim.device` — hardware constants of the NVIDIA Tesla
   K20c (peak bandwidth, transaction/sector sizes, cache sizes, instruction
   rates).  These are the *only* numbers taken from the hardware spec; no
   curve is fitted to the paper's results.
2. :mod:`~repro.gpusim.memory` — an exact 128-byte-transaction /
   32-byte-sector coalescing analyzer over address traces (the traces come
   from the real index equations and the executable SIMD machine).
3. :mod:`~repro.gpusim.cost` — per-algorithm pass models: every pass's
   traffic is its actual byte count divided by a transaction efficiency
   *measured from its own address trace*; time is traffic over achievable
   bandwidth, or instruction count over issue rate when compute-bound.
"""

from .aos_model import aos_access_throughput
from .cost import (
    TransposeCost,
    auto_cost,
    c2r_cost,
    paper_heuristic,
    r2c_cost,
    skinny_cost,
    sung_cost,
)
from .device import A100_SXM4, CORE_I7_950, TESLA_K20C, Device
from .kernel import execute_c2r_kernel, execute_r2c_kernel, execute_skinny_kernel
from .memory import TrafficSummary, TransactionAnalyzer
from .occupancy import bandwidth_fraction, occupancy
from .throughput import eq37_throughput, gbps

__all__ = [
    "Device",
    "TESLA_K20C",
    "A100_SXM4",
    "CORE_I7_950",
    "TransactionAnalyzer",
    "TrafficSummary",
    "eq37_throughput",
    "gbps",
    "TransposeCost",
    "auto_cost",
    "c2r_cost",
    "paper_heuristic",
    "r2c_cost",
    "skinny_cost",
    "sung_cost",
    "aos_access_throughput",
    "execute_c2r_kernel",
    "execute_r2c_kernel",
    "execute_skinny_kernel",
    "occupancy",
    "bandwidth_fraction",
]
