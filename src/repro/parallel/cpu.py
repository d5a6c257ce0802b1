"""Parallel in-place CPU transpose (Section 5.1).

A direct parallelization of Algorithm 1, with the paper's two CPU
optimizations: a completely gather-based formulation (rows gather with
``d'^{-1}``, Eq. 31) and strength-reduced index arithmetic (Section 4.4,
via :class:`~repro.strength.reduced.ReducedEquations`).

Each pass is a chunked parallel-for over rows or columns; chunks touch
disjoint data, so passes need no locking — only the inter-pass barrier the
executor provides.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from ..analysis import racecheck
from ..core import equations as eq
from ..core.indexing import Decomposition
from ..core.transpose import choose_algorithm
from ..runtime import metrics
from ..strength.reduced import ReducedEquations
from ..trace import spans
from . import engine
from .executor import ParallelExecutor

__all__ = [
    "ParallelTranspose",
    "parallel_transpose_inplace",
    "rotate_chunk",
    "row_gather_chunk",
    "col_gather_chunk",
    "pass_index_map",
    "chunk_kernel",
    "record_chunk",
]

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()

# -- chunk kernels -------------------------------------------------------------
#
# The numpy chunk bodies of the pass engine (repro.parallel.engine): every
# kernel addresses the pass in *global* matrix coordinates and writes into
# ``V``, whose first row/column/group along the pass axis is global index
# ``origin`` (0 for the in-RAM matrix, the band start for a window band).

#: rotation passes -> direction of the Lemma 1 rotation
_ROTATE_SIGN = {"pre_rotate": -1, "post_rotate": 1}


def rotate_chunk(
    V: np.ndarray, dec: Decomposition, sign: int, groups: slice, origin: int = 0
) -> None:
    """Rotate the column groups in ``groups`` by ``sign * (g mod m)``
    (Lemma 1: each group of b columns shares one rotation amount)."""
    m = dec.m
    for g in range(groups.start, groups.stop):
        k = g % m  # repro-lint: allow(raw-divmod) O(c) per-group setup, not per-element
        if k == 0:
            continue
        cols = slice((g - origin) * dec.b, (g - origin + 1) * dec.b)
        V[:, cols] = np.roll(V[:, cols], sign * k, axis=0)


def row_gather_chunk(
    V: np.ndarray, dec: Decomposition, index_map, rows: slice, origin: int = 0
) -> None:
    """Gather the rows in ``rows`` along axis 1 with ``index_map(i, cols)``
    — a row reads only itself, so a row band holds all the gather needs."""
    i = np.arange(rows.start, rows.stop, dtype=np.int64)[:, None]
    cols = np.arange(dec.n, dtype=np.int64)[None, :]
    idx = index_map(i, cols)
    local = slice(rows.start - origin, rows.stop - origin)
    V[local] = np.take_along_axis(V[local], idx, axis=1)


def col_gather_chunk(
    V: np.ndarray, dec: Decomposition, index_map, cols: slice, origin: int = 0
) -> None:
    """Gather the columns in ``cols`` along axis 0 with ``index_map(rows, j)``
    — a column reads only itself."""
    rows = np.arange(dec.m, dtype=np.int64)[:, None]
    j = np.arange(cols.start, cols.stop, dtype=np.int64)[None, :]
    idx = index_map(rows, j)
    local = slice(cols.start - origin, cols.stop - origin)
    V[:, local] = np.take_along_axis(V[:, local], idx, axis=0)


def pass_index_map(name: str, dec: Decomposition, red: ReducedEquations | None):
    """Resolve the gather index map for a named pass (Eqs. 26/31)."""
    if name == "row_shuffle":
        if red is not None:
            return red.dprime_inverse
        return lambda i, j: eq.dprime_inverse_v(dec, i, j)
    if name == "row_shuffle_r2c":
        if red is not None:
            return red.dprime
        return lambda i, j: eq.dprime_v(dec, i, j)
    if name == "column_shuffle":
        if red is not None:
            return red.sprime
        return lambda i, j: eq.sprime_v(dec, i, j)
    if name == "inverse_column_shuffle":
        return lambda i, j: eq.sprime_inverse_v(dec, i, j)
    raise ValueError(f"no index map for pass {name!r}")


def chunk_kernel(name: str, dec: Decomposition, red: ReducedEquations | None):
    """The numpy body of pass ``name``: ``kernel(V, chunk, origin=0)``."""
    axis = racecheck.PASS_AXES[name][0]
    if axis == "colgroups":
        sign = _ROTATE_SIGN[name]
        return lambda V, chunk, origin=0: rotate_chunk(V, dec, sign, chunk, origin)
    index_map = pass_index_map(name, dec, red)
    gather = row_gather_chunk if axis == "rows" else col_gather_chunk
    return lambda V, chunk, origin=0: gather(V, dec, index_map, chunk, origin)


def record_chunk(
    san, name: str, dec: Decomposition, red: ReducedEquations | None,
    chunk: slice,
) -> None:
    """Shadow-memory accounting for one global-coordinate chunk of pass
    ``name``: the flat indices it reads and writes, reads first."""
    axis = racecheck.PASS_AXES[name][0]
    if axis == "colgroups":
        for g in range(chunk.start, chunk.stop):
            if g % dec.m == 0:  # repro-lint: allow(raw-divmod) O(c) per-group setup, not per-element
                continue
            flat = (
                np.arange(dec.m, dtype=np.int64)[:, None] * dec.n
                + np.arange(g * dec.b, (g + 1) * dec.b, dtype=np.int64)
            ).ravel()  # repro-lint: allow(implicit-copy) flat index array, not a view
            san.record(reads=flat, writes=flat, where=f"group[{g}]")
        return
    index_map = pass_index_map(name, dec, red)
    if axis == "rows":
        i = np.arange(chunk.start, chunk.stop, dtype=np.int64)[:, None]
        cols = np.arange(dec.n, dtype=np.int64)[None, :]
        san.record(
            reads=i * dec.n + index_map(i, cols), writes=i * dec.n + cols,
            where=f"rows[{chunk.start}:{chunk.stop}]",
        )
    else:
        rows = np.arange(dec.m, dtype=np.int64)[:, None]
        j = np.arange(chunk.start, chunk.stop, dtype=np.int64)[None, :]
        san.record(
            reads=index_map(rows, j) * dec.n + j, writes=rows * dec.n + j,
            where=f"cols[{chunk.start}:{chunk.stop}]",
        )


class ParallelTranspose:
    """A reusable parallel transposer bound to a worker count.

    A facade over :mod:`repro.parallel.engine`: each call runs the one-band
    schedule :func:`~repro.parallel.engine.proven_schedule` proves for
    ``(m, n, n_threads)`` over the in-RAM buffer — every pass of
    :func:`repro.analysis.racecheck.pass_order` a chunked parallel-for over
    the axis :data:`~repro.analysis.racecheck.PASS_AXES` names.  Index maps
    use the paper's strength-reduced arithmetic (Section 4.4), with plain
    ``//``/``%`` for shapes outside its range.

    Parameters
    ----------
    n_threads:
        Worker count (1 = the sequential baseline of Table 1).
    native:
        ``"auto"`` (default) runs each chunk through the compiled per-plan
        kernel of :mod:`repro.native` when one is available — the ctypes
        calls release the GIL for their whole duration, so the workers get
        true pass-level parallelism instead of relying on numpy's partial
        GIL releases.  ``"off"`` keeps every chunk on the numpy gathers.
        The sanitizer always uses numpy (it must see every index).
    """

    def __init__(self, n_threads: int = 1, *, native: str = "auto"):
        if native not in ("auto", "off"):
            raise ValueError(f"unknown native mode {native!r}; use 'auto' or 'off'")
        self.n_threads = int(n_threads)
        self.native = native
        self.executor = ParallelExecutor(n_threads)

    def _transpose(
        self, algorithm: str, buf: np.ndarray, m: int, n: int
    ) -> np.ndarray:
        """Run ``algorithm``'s passes over the row-major ``(m, n)`` view."""
        source = engine.InRam(buf, m, n)
        schedule = engine.proven_schedule(m, n, 1, self.n_threads, algorithm)
        kernel = (
            None if self.native == "off"
            else engine.native_kernel(m, n, algorithm, buf.dtype)
        )
        reg = metrics.registry
        tr = spans.tracer
        t0 = perf_counter() if reg.enabled else 0.0
        with tr.span(
            f"op.parallel.{algorithm}", m=m, n=n,
            threads=self.n_threads, dtype=str(buf.dtype),
        ) if tr.enabled else _NULL_CM:
            engine.run(
                schedule, source, scope="parallel", kernel=kernel,
                executor=self.executor,
            )
        if reg.enabled:
            passes = len(schedule.passes)
            reg.record_call(
                f"parallel.{algorithm}",
                perf_counter() - t0,
                nbytes=2 * passes * buf.nbytes,
                elements=passes * buf.shape[0],
            )
        return buf

    def c2r(self, buf: np.ndarray, m: int, n: int) -> np.ndarray:
        """Parallel C2R transposition of a flat buffer."""
        return self._transpose("c2r", buf, m, n)

    def r2c(self, buf: np.ndarray, m: int, n: int) -> np.ndarray:
        """Parallel R2C transposition of a flat buffer."""
        return self._transpose("r2c", buf, m, n)

    def transpose_inplace(
        self, buf: np.ndarray, m: int, n: int, order: str = "C"
    ) -> np.ndarray:
        """Order-aware entry point; the direction is
        :func:`~repro.core.transpose.choose_algorithm`'s (C2R)."""
        if order not in ("C", "F"):
            raise ValueError(f"unknown order {order!r}")
        vm, vn = (m, n) if order == "C" else (n, m)
        if choose_algorithm(m, n) == "c2r":
            return self.c2r(buf, vm, vn)
        return self.r2c(buf, vn, vm)

    def close(self) -> None:
        self.executor.shutdown()

    def __enter__(self) -> "ParallelTranspose":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parallel_transpose_inplace(
    buf: np.ndarray,
    m: int,
    n: int,
    order: str = "C",
    *,
    n_threads: int = 1,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`ParallelTranspose`."""
    with ParallelTranspose(n_threads) as pt:
        return pt.transpose_inplace(buf, m, n, order)
