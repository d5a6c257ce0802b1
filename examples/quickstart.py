#!/usr/bin/env python3
"""Quickstart: in-place matrix transposition with the C2R/R2C decomposition.

Runs through the public API on the paper's own worked examples:

* the one-line 2-D array transpose (no copy of the data);
* the flat-buffer API with row/column-major storage;
* the three passes of Algorithm 1 on the paper's Figure 2 matrix;
* work counting (Theorem 6: at most 6 accesses per element);
* amortizing repeated transposes with a TransposePlan.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Decomposition,
    TransposePlan,
    WorkCounter,
    c2r_transpose,
    transpose,
    transpose_inplace,
)
from repro.core import steps
from repro.core.indexing import Decomposition as Dec


def demo_basic() -> None:
    print("=" * 64)
    print("1. Transpose a 2-D array in place (the buffer is permuted;")
    print("   the result is a view of the same memory)")
    print("=" * 64)
    A = np.arange(12.0).reshape(3, 4)
    print("A =\n", A)
    B = transpose(A)
    print("transpose(A) =\n", B)
    print("shares memory with A:", np.shares_memory(A, B))


def demo_flat_buffers() -> None:
    print()
    print("=" * 64)
    print("2. Flat buffers, row- and column-major")
    print("=" * 64)
    m, n = 3, 8
    A = np.arange(m * n)
    buf = A.copy()
    transpose_inplace(buf, m, n, "C")
    print(f"row-major {m}x{n} buffer transposed; view as {n}x{m}:")
    print(buf.reshape(n, m))

    buf = A.reshape(m, n).ravel(order="F").copy()
    transpose_inplace(buf, m, n, "F")
    print("column-major buffer handled identically (Theorems 2 & 7)")


def demo_figure2_passes() -> None:
    print()
    print("=" * 64)
    print("3. The three passes of Algorithm 1 (the paper's Figure 2)")
    print("=" * 64)
    start = np.arange(32).reshape(8, 4).T.copy()  # the figure's top panel
    dec = Dec.of(4, 8)
    print(f"m=4, n=8: c=gcd={dec.c}, a={dec.a}, b={dec.b}")
    V = start.copy()
    print("start:\n", V)
    steps.rotate_columns_strict(V, dec)
    print("after column rotation (column j up by j // b):\n", V)
    steps.shuffle_rows_strict(V, dec, gather=True, use_dprime=False)
    print("after row shuffle (gather d'^-1):\n", V)
    buf = start.ravel().copy()
    c2r_transpose(buf, 4, 8)
    print("after column shuffle (gather s') — the buffer is 0..31:\n",
          buf.reshape(4, 8))
    print("reinterpreted as 8x4 it is the transpose:\n", buf.reshape(8, 4))


def demo_work_bound() -> None:
    print()
    print("=" * 64)
    print("4. Theorem 6: at most 6 element accesses per element")
    print("=" * 64)
    m, n = 96, 108
    cnt = WorkCounter()
    c2r_transpose(np.arange(m * n, dtype=np.float64), m, n, aux="strict", counter=cnt)
    print(f"{m}x{n}: {cnt.reads} reads + {cnt.writes} writes "
          f"= {cnt.total / (m * n):.2f} accesses/element (bound: 6)")
    mp, nq = 97, 109  # coprime: the pre-rotation pass vanishes
    cnt = WorkCounter()
    c2r_transpose(np.arange(mp * nq, dtype=np.float64), mp, nq, aux="strict", counter=cnt)
    print(f"{mp}x{nq} (coprime): {cnt.total / (mp * nq):.2f} accesses/element "
          "(rotation skipped)")


def demo_plan() -> None:
    print()
    print("=" * 64)
    print("5. Repeated same-shape transposes: TransposePlan")
    print("=" * 64)
    plan = TransposePlan(500, 640)
    # Construction resolves the decomposition only.  The gather maps are
    # built once, by the first numpy execute; a compiled native kernel
    # computes its indices in closed form and never needs them.
    print(plan, f"- gather maps before any execute: {plan.scratch_bytes/1e6:.1f} MB")
    rng = np.random.default_rng(0)
    for k in range(3):
        A = rng.standard_normal((500, 640))
        buf = A.ravel().copy()
        plan.execute(buf, backend="numpy")
        ok = np.array_equal(buf.reshape(640, 500), A.T)
        print(f"  matrix {k}: transposed in place, correct = {ok}")
    print(f"  gather maps after the numpy executes: {plan.scratch_bytes/1e6:.1f} MB")
    # A single matrix is a batch of one tile: the same plan and maps
    # transpose a batch of same-shaped matrices.
    batch = rng.standard_normal((4, 500, 640))
    buf = batch.ravel().copy()
    plan.execute_batch(buf, backend="numpy")
    ok = np.array_equal(buf.reshape(4, 640, 500), batch.transpose(0, 2, 1))
    print(f"  a batch of 4 through the same plan: correct = {ok}, "
          f"maps still {plan.scratch_bytes/1e6:.1f} MB")


def main() -> None:
    demo_basic()
    demo_flat_buffers()
    demo_figure2_passes()
    demo_work_bound()
    demo_plan()
    print("\nDecomposition of 4x8:", Decomposition.of(4, 8))


if __name__ == "__main__":
    main()
