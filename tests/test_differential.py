"""Differential fuzzing: every transposer must agree on every input.

Nine independently-implemented in-place transposition paths (the blocked
kernels in three variants, the strict kernels, cache-aware, parallel,
skinny, tiled baselines, cycle following) are run on hypothesis-generated
inputs and compared element-for-element — a single disagreement would mean
one of them is wrong.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aos.skinny import skinny_transpose
from repro.baselines import (
    gustavson_transpose,
    sung_transpose,
    transpose_cycle_following,
)
from repro.cache import c2r_cache_aware
from repro.core import c2r_transpose, transpose_inplace
from repro.parallel import ParallelTranspose, parallel_transpose_inplace


def _parallel_r2c(buf, m, n):
    """Explicit R2C on the swapped view ("auto" resolves to C2R)."""
    with ParallelTranspose(3) as pt:
        pt.r2c(buf, n, m)


TRANSPOSERS = {
    "auto": lambda b, m, n: transpose_inplace(b, m, n),
    "r2c": lambda b, m, n: transpose_inplace(b, m, n, algorithm="r2c"),
    "c2r/gather/blocked": lambda b, m, n: c2r_transpose(b, m, n),
    "c2r/scatter/strict": lambda b, m, n: c2r_transpose(
        b, m, n, variant="scatter", aux="strict"
    ),
    "c2r/restricted/blocked": lambda b, m, n: c2r_transpose(
        b, m, n, variant="restricted"
    ),
    "cache-aware": lambda b, m, n: c2r_cache_aware(b, m, n),
    "parallel-3t": lambda b, m, n: parallel_transpose_inplace(b, m, n, n_threads=3),
    "parallel-3t-r2c": _parallel_r2c,
    "skinny": skinny_transpose,
    "cycle-following": lambda b, m, n: transpose_cycle_following(b, m, n),
    "gustavson": lambda b, m, n: gustavson_transpose(b, m, n),
    "sung": lambda b, m, n: sung_transpose(b, m, n),
}

dims = st.integers(1, 40)


@given(dims, dims, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_all_transposers_agree(m, n, seed):
    A = np.random.default_rng(seed).integers(0, 2**30, size=m * n)
    expected = A.reshape(m, n).T.copy().ravel()
    for name, fn in TRANSPOSERS.items():
        buf = A.copy()
        fn(buf, m, n)
        np.testing.assert_array_equal(buf, expected, err_msg=name)


@given(dims, dims)
@settings(max_examples=30, deadline=None)
def test_all_transposers_are_involutions_with_swap(m, n):
    """Transposing m x n then n x m restores the buffer, for every path."""
    A = np.arange(m * n, dtype=np.int64)
    for name, fn in TRANSPOSERS.items():
        buf = A.copy()
        fn(buf, m, n)
        fn(buf, n, m)
        np.testing.assert_array_equal(buf, A, err_msg=name)


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_square_matrices(k, seed):
    """Square shapes (a = b = 1 special structure) across all paths."""
    A = np.random.default_rng(seed).integers(0, 100, size=k * k)
    expected = A.reshape(k, k).T.copy().ravel()
    for name, fn in TRANSPOSERS.items():
        buf = A.copy()
        fn(buf, k, k)
        np.testing.assert_array_equal(buf, expected, err_msg=name)
