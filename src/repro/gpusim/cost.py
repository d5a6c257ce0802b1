"""Per-algorithm GPU cost models (Figures 4-7, Table 2).

Every model follows one rule: a pass's DRAM time is its useful byte count
divided by its trace-measured coalescing efficiency, over the device's
achievable bandwidth.  The pass structures are the ones the paper's GPU
implementation describes:

C2R on an ``m x n`` view (Sections 4-5.2)
    1. pre-rotation, coarse (cache-aware sub-rows) + fine (skipped for
       groups with zero residual) — only when ``gcd > 1``;
    2. row shuffle — gathered reads (``d'^{-1}``), coalesced writes; single
       pass when a row fits on chip (Section 4.5), two passes otherwise;
    3. column-shuffle rotation, coarse + fine;
    4. static row permutation via sub-row cycle following.

R2C on an ``m x n`` array
    The mirrored pass sequence on the swapped view (Theorem 2): identical
    skeleton with the roles of ``m`` and ``n`` exchanged — which is exactly
    why Fig. 4's fast band sits at small ``n`` and Fig. 5's at small ``m``.

Skinny AoS/SoA specialization (Section 6.1)
    Column operations fused entirely on chip (the row count is the struct
    size); the row shuffle's gathered read is the only inefficient pass.

Sung [6]
    Two tiled stages (4 array passes), tile-segment coalescing measured
    exactly, derated by a serialization factor for its cycle-following
    dependencies and flag traffic — calibrated once against the author's
    published 20.8 GB/s best case, not against this paper's medians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.sung import SungPlan
from ..core.indexing import Decomposition
from .device import TESLA_K20C, Device
from .memory import TransactionAnalyzer
from .throughput import eq37_throughput
from .traces import (
    cached_row_gather_efficiency,
    fine_rotate_fraction,
    row_gather_efficiency,
    subrow_efficiency,
)

__all__ = [
    "PassCost",
    "TransposeCost",
    "c2r_cost",
    "r2c_cost",
    "paper_heuristic",
    "auto_cost",
    "skinny_cost",
    "sung_cost",
]

#: Sung's cycle-following stages serialize on cycle dependencies and spend
#: bandwidth on completion flags; 0.4 reproduces the 20.8-22.4 GB/s best
#: cases reported for that implementation on friendly shapes.
SUNG_SERIALIZATION = 0.4


@dataclass(frozen=True)
class PassCost:
    """One pass: useful bytes moved and its coalescing efficiency."""

    name: str
    useful_bytes: float
    efficiency: float

    @property
    def dram_bytes(self) -> float:
        return self.useful_bytes / max(self.efficiency, 1e-9)


@dataclass
class TransposeCost:
    """Aggregate cost of one transpose on a device."""

    m: int
    n: int
    itemsize: int
    device: Device
    passes: list[PassCost] = field(default_factory=list)

    @property
    def dram_bytes(self) -> float:
        return sum(p.dram_bytes for p in self.passes)

    @property
    def seconds(self) -> float:
        return self.dram_bytes / self.device.achievable_bandwidth

    @property
    def throughput(self) -> float:
        """Eq. 37 bytes/second."""
        return eq37_throughput(self.m, self.n, self.itemsize, self.seconds)

    @property
    def throughput_gbps(self) -> float:
        return self.throughput / 1e9


def _c2r_view_passes(
    vm: int,
    vn: int,
    itemsize: int,
    device: Device,
    rng: np.random.Generator,
) -> list[PassCost]:
    """The C2R pass skeleton on a ``(vm, vn)`` row-major view."""
    dec = Decomposition.of(vm, vn)
    X = float(vm * vn * itemsize)
    sub = subrow_efficiency(vm, vn, itemsize, device)
    passes: list[PassCost] = []

    if dec.c > 1:
        passes.append(PassCost("pre-rotate coarse", 2 * X, sub))
        frac = fine_rotate_fraction(dec, itemsize, device)
        if frac > 0:
            passes.append(PassCost("pre-rotate fine", 2 * X * frac, sub))

    g_eff = cached_row_gather_efficiency(dec, itemsize, device, rng)
    n_passes = device.onchip.row_shuffle_passes(vn, itemsize)
    passes.append(PassCost("row shuffle read", X, g_eff))
    passes.append(PassCost("row shuffle write", X, 1.0))
    if n_passes == 2:
        passes.append(PassCost("row shuffle extra pass", 2 * X, 1.0))

    if vm > 1:
        # column-shuffle rotation (amounts j): residuals hit every group
        passes.append(PassCost("col rotate coarse", 2 * X, sub))
        passes.append(PassCost("col rotate fine", 2 * X, sub))
        passes.append(PassCost("row permute", 2 * X, sub))
    return passes


def c2r_cost(
    m: int,
    n: int,
    itemsize: int = 8,
    device: Device = TESLA_K20C,
    rng: np.random.Generator | None = None,
) -> TransposeCost:
    """Cost of transposing a row-major ``m x n`` array with C2R."""
    rng = rng or np.random.default_rng(m * 1_000_003 + n)
    cost = TransposeCost(m, n, itemsize, device)
    cost.passes = _c2r_view_passes(m, n, itemsize, device, rng)
    return cost


def r2c_cost(
    m: int,
    n: int,
    itemsize: int = 8,
    device: Device = TESLA_K20C,
    rng: np.random.Generator | None = None,
) -> TransposeCost:
    """Cost of transposing a row-major ``m x n`` array with R2C.

    R2C runs the mirrored sequence on the dimension-swapped view
    (Theorem 2), so its skeleton is the C2R skeleton on ``(n, m)``.
    """
    rng = rng or np.random.default_rng(m * 1_000_003 + n + 1)
    cost = TransposeCost(m, n, itemsize, device)
    cost.passes = _c2r_view_passes(n, m, itemsize, device, rng)
    return cost


def paper_heuristic(m: int, n: int) -> str:
    """The paper's Section 5.2 rule: C2R when ``m > n``, else R2C.

    C2R's row shuffle operates on rows of length ``n``; when ``n`` is the
    smaller dimension a whole row fits in on-chip memory (the fast band of
    Fig. 4).  R2C's analogous band appears when ``m`` is small (Fig. 5).
    This is a GPU-model rule; the CPU executors resolve ``"auto"`` with
    :func:`repro.core.transpose.choose_algorithm` instead.
    """
    return "c2r" if m > n else "r2c"


def auto_cost(
    m: int,
    n: int,
    itemsize: int = 8,
    device: Device = TESLA_K20C,
    rng: np.random.Generator | None = None,
) -> TransposeCost:
    """Cost of the side :func:`paper_heuristic` picks."""
    cost_fn = c2r_cost if paper_heuristic(m, n) == "c2r" else r2c_cost
    return cost_fn(m, n, itemsize, device, rng)


def skinny_cost(
    n_structs: int,
    struct_size: int,
    itemsize: int = 8,
    device: Device = TESLA_K20C,
    rng: np.random.Generator | None = None,
) -> TransposeCost:
    """Cost of the specialized AoS -> SoA conversion (Fig. 7).

    The view is ``(struct_size, n_structs)``: with only ``struct_size``
    rows, all column operations fuse into single on-chip streaming passes;
    the row shuffle's gathered read is the lone inefficiency.
    """
    rng = rng or np.random.default_rng(n_structs * 31 + struct_size)
    S, N = struct_size, n_structs
    dec = Decomposition.of(S, N)
    X = float(S * N * itemsize)
    cost = TransposeCost(N, S, itemsize, device)
    passes: list[PassCost] = []
    if dec.c > 1:
        # fused on-chip rotation: perfectly coalesced streaming
        passes.append(PassCost("rotate (on-chip)", 2 * X, 1.0))
    g_eff = row_gather_efficiency(dec, itemsize, device, rng)
    passes.append(PassCost("row shuffle read", X, g_eff))
    passes.append(PassCost("row shuffle write", X, 1.0))
    # rows are n_structs elements long — far beyond on-chip capacity, so
    # the shuffle runs in two passes through a scratch buffer
    passes.append(PassCost("row shuffle scratch pass", 2 * X, 1.0))
    passes.append(PassCost("column ops (on-chip)", 2 * X, 1.0))
    cost.passes = passes
    return cost


def _tile_segment_efficiency(
    seg_elems: int, itemsize: int, device: Device, n_samples: int = 64
) -> float:
    """Exact expected coalescing of reading ``seg_elems``-element row
    segments at the alignments a tiled kernel actually sees."""
    analyzer = TransactionAnalyzer(device.line_bytes)
    seg_bytes = seg_elems * itemsize
    total_tx = 0
    for k in range(n_samples):
        offset = (k * itemsize * 7) % device.line_bytes
        total_tx += analyzer.count_warp(np.array([offset]), seg_bytes)
    useful = n_samples * seg_bytes
    return min(1.0, useful / (total_tx * device.line_bytes))


def sung_cost(
    m: int,
    n: int,
    itemsize: int = 4,
    device: Device = TESLA_K20C,
) -> tuple[TransposeCost, SungPlan]:
    """Cost of Sung's tiled in-place transpose with the paper's tile
    heuristic; returns the cost and the tile plan (callers filter
    degenerate plans the way the paper reports incomplete runs)."""
    plan = SungPlan.plan(m, n)
    X = float(m * n * itemsize)
    read_eff = _tile_segment_efficiency(plan.tile_cols, itemsize, device)
    write_eff = _tile_segment_efficiency(plan.tile_rows, itemsize, device)
    cost = TransposeCost(m, n, itemsize, device)
    eff_factor = SUNG_SERIALIZATION
    cost.passes = [
        PassCost("stage 1 read", X, read_eff * eff_factor),
        PassCost("stage 1 write", X, write_eff * eff_factor),
        PassCost("stage 2 read", X, write_eff * eff_factor),
        PassCost("stage 2 write", X, read_eff * eff_factor),
    ]
    return cost, plan
