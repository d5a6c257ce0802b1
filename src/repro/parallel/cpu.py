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

from ..core import equations as eq
from ..core.indexing import Decomposition
from ..core.transpose import choose_algorithm
from ..strength.reduced import ReducedEquations
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

_metrics = None
_racecheck = None
_trace = None
_native_mod = None


def _runtime_metrics():
    """Lazily bind repro.runtime.metrics (kept acyclic w.r.t. package init)."""
    global _metrics
    if _metrics is None:
        from ..runtime import metrics

        _metrics = metrics
    return _metrics


def _tracer():
    """Lazily bind the process-wide structured tracer (repro.trace.spans)."""
    global _trace
    if _trace is None:
        from ..trace import spans

        _trace = spans
    return _trace.tracer


def _racecheck_mod():
    """Lazily bind repro.analysis.racecheck: the pass tables the race proof
    is built from, and the shadow-memory sanitizer."""
    global _racecheck
    if _racecheck is None:
        from ..analysis import racecheck

        _racecheck = racecheck
    return _racecheck


def _sanitizer():
    return _racecheck_mod().sanitizer


def _native():
    """Lazily bind the compiled-kernel backend (repro.native)."""
    global _native_mod
    if _native_mod is None:
        from .. import native

        _native_mod = native
    return _native_mod


# -- chunk kernels -------------------------------------------------------------
#
# Shared with the banded out-of-core executor (repro.stream.executor): every
# kernel addresses the pass in *global* matrix coordinates and writes into
# ``V``, whose first row/column/group along the pass axis is global index
# ``origin`` (0 for the in-RAM matrix, the band start for a band copy).

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
    — a row reads only itself, so a band copy holds all the gather needs."""
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
    axis = _racecheck_mod().PASS_AXES[name][0]
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
    axis = _racecheck_mod().PASS_AXES[name][0]
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

    Each pass of :func:`repro.analysis.racecheck.pass_order` is a chunked
    parallel-for over the axis :data:`~repro.analysis.racecheck.PASS_AXES`
    names — the schedule :func:`~repro.analysis.racecheck.check_schedule`
    proves race-free.

    Parameters
    ----------
    n_threads:
        Worker count (1 = the sequential baseline of Table 1).
    strength_reduced:
        Use fixed-point-reciprocal index math (on by default, as in the
        paper's CPU implementation); falls back to plain ``//``/``%`` for
        shapes outside the reduced range.
    native:
        ``"auto"`` (default) runs each chunk through the compiled per-plan
        kernel of :mod:`repro.native` when one is available — the ctypes
        calls release the GIL for their whole duration, so the workers get
        true pass-level parallelism instead of relying on numpy's partial
        GIL releases.  ``"off"`` keeps every chunk on the numpy gathers.
        The sanitizer always uses numpy (it must see every index).
    """

    def __init__(
        self,
        n_threads: int = 1,
        *,
        strength_reduced: bool = True,
        native: str = "auto",
    ):
        if native not in ("auto", "off"):
            raise ValueError(f"unknown native mode {native!r}; use 'auto' or 'off'")
        self.n_threads = int(n_threads)
        self.strength_reduced = strength_reduced
        self.native = native
        self.executor = ParallelExecutor(n_threads)

    def _reduced(self, dec: Decomposition) -> ReducedEquations | None:
        if not self.strength_reduced:
            return None
        try:
            return ReducedEquations(dec)
        except ValueError:
            return None

    def _native_chunks(self, buf: np.ndarray, m: int, n: int, algorithm: str):
        """Per-pass native chunk runners for this shape, or ``None``.

        Resolves the compiled kernel through the plan cache entry of the
        *single-matrix* plan equivalent to this parallel call (same folding:
        ``c2r(buf, m, n)`` matches plan ``(m, n, "C", "c2r")``;
        ``r2c(buf, m, n)`` matches plan ``(n, m, "C", "r2c")``), so the
        artifact and its byte accounting are shared with the serial path.
        The plan holds no gather maps (the kernel computes its own indices
        and only a numpy execute builds them), so a warm lookup is a dict
        hit and both directions of a round trip stay cached.  Returns
        ``{parallel_pass_name: callable(lo, hi)}`` covering the same
        chunk axes the numpy bodies use.
        """
        if self.native == "off":
            return None
        if _sanitizer().enabled:
            return None
        native = _native()
        if not native.enabled():
            return None
        if buf.shape[0] < native.min_elems():
            return None
        from ..runtime import plan_cache

        if algorithm == "c2r":
            plan = plan_cache.get_single_plan(m, n, "C", "c2r", buf.dtype)
        else:
            plan = plan_cache.get_single_plan(n, m, "C", "r2c", buf.dtype)
        kernel = native.kernel_for_plan(plan, buf.dtype.itemsize)
        if kernel is None:
            return None
        addr = buf.ctypes.data

        def runner(idx):
            return lambda lo, hi: kernel.run_pass(idx, addr, lo, hi)

        return {p.parallel_name: runner(i) for i, p in enumerate(kernel.passes)}

    # -- passes ----------------------------------------------------------------

    def _run_pass(
        self, name: str, V: np.ndarray, dec: Decomposition,
        red: ReducedEquations | None, nk,
    ) -> None:
        """One chunked pass over the axis the proof tables give it, inside a
        shadow-memory scope when the sanitizer is enabled.

        The numpy chunk body is also the per-chunk fallback of a native
        runner: a native chunk that fails its scratch allocation moved
        nothing, so numpy redoes exactly that range.
        """
        axis, extent = _racecheck_mod().PASS_AXES[name]
        total = getattr(dec, extent)
        kernel = chunk_kernel(name, dec, red)
        san = _sanitizer()
        tr = _tracer()
        itemsize = V.itemsize

        def work(chunk: slice) -> None:
            if san.enabled:
                record_chunk(san, name, dec, red, chunk)
            kernel(V, chunk)

        if nk is None:
            run = work
        else:
            def run(chunk: slice) -> None:
                try:
                    nk(chunk.start, chunk.stop)
                except MemoryError:
                    _native().record_fallback(
                        f"scratch allocation failed in parallel pass {name}"
                    )
                    work(chunk)

        def body(chunk: slice) -> None:
            # One worker.chunk span per chunk, carrying the rectangle the
            # chunk owns — the Chrome-trace lane layout shows these spans
            # overlapping across worker threads.
            if tr.enabled:
                r = _racecheck_mod().axis_rect(
                    axis, dec.m, dec.n, total, chunk.start, chunk.stop
                )
                with tr.span(
                    "worker.chunk", stage=name,
                    r0=r.r0, r1=r.r1, c0=r.c0, c1=r.c1,
                    bytes=2 * r.area * itemsize,
                ):
                    run(chunk)
            else:
                run(chunk)

        if san.enabled:
            # Zero-shift rotation groups are skipped, so rotation coverage
            # is at-most-once.
            with san.pass_scope(
                f"parallel.{name}", dec.m * dec.n,
                full_coverage=axis != "colgroups",
            ):
                self.executor.parallel_for(total, body, name=name)
        else:
            self.executor.parallel_for(total, body, name=name)

    def _timed(self, name: str, V: np.ndarray, dec, red, nk) -> None:
        """Run one pass, recording it as ``parallel.pass.<name>`` when the
        metrics registry is enabled and as a ``pass.<name>`` span when the
        tracer is enabled (a bool check each otherwise)."""
        rt = _runtime_metrics()
        tr = _tracer()
        if tr.enabled:
            extra = {} if nk is None else {"backend": "native"}
            with tr.span(
                f"pass.{name}", m=dec.m, n=dec.n, bytes=2 * V.nbytes, **extra
            ) as sp:
                self._run_pass(name, V, dec, red, nk)
            if rt.registry.enabled:
                rt.registry.observe(f"parallel.pass.{name}", sp.duration_s)
        elif rt.registry.enabled:
            t0 = perf_counter()
            self._run_pass(name, V, dec, red, nk)
            rt.registry.observe(f"parallel.pass.{name}", perf_counter() - t0)
        else:
            self._run_pass(name, V, dec, red, nk)

    # -- entry points ------------------------------------------------------------

    def _transpose(
        self, algorithm: str, buf: np.ndarray, m: int, n: int
    ) -> np.ndarray:
        """Run ``algorithm``'s passes over the row-major ``(m, n)`` view."""
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(
                "in-place transposition requires a contiguous buffer "
                "(a non-contiguous view would be silently copied, not permuted)"
            )
        if buf.ndim != 1 or buf.shape[0] != m * n:
            raise ValueError(f"buffer must be flat with {m * n} elements")
        dec = Decomposition.of(m, n)
        red = self._reduced(dec)
        V = buf.reshape(m, n)
        nks = self._native_chunks(buf, m, n, algorithm) or {}
        passes = _racecheck_mod().pass_order(algorithm, dec.c)
        rt = _runtime_metrics()
        tr = _tracer()
        t0 = perf_counter() if rt.registry.enabled else 0.0
        with tr.span(
            f"op.parallel.{algorithm}", m=m, n=n,
            threads=self.n_threads, dtype=str(buf.dtype),
        ) if tr.enabled else _NULL_CM:
            for name in passes:
                self._timed(name, V, dec, red, nks.get(name))
        if rt.registry.enabled:
            rt.registry.record_call(
                f"parallel.{algorithm}",
                perf_counter() - t0,
                nbytes=2 * len(passes) * buf.nbytes,
                elements=len(passes) * buf.shape[0],
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
