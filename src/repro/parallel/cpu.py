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


def _sanitizer():
    """Lazily bind the shadow-memory sanitizer (repro.analysis.racecheck)."""
    global _racecheck
    if _racecheck is None:
        from ..analysis import racecheck

        _racecheck = racecheck
    return _racecheck.sanitizer


def _native():
    """Lazily bind the compiled-kernel backend (repro.native)."""
    global _native_mod
    if _native_mod is None:
        from .. import native

        _native_mod = native
    return _native_mod


# -- chunk kernels -------------------------------------------------------------
#
# Module-level so both backends share one implementation: the thread backend
# calls them through closures over the live view, the process backend calls
# them from worker processes against a shared-memory attachment (functions at
# module scope are picklable by reference — descriptors, not closures, cross
# the process boundary).


def rotate_chunk(V: np.ndarray, dec: Decomposition, sign: int, groups: slice) -> None:
    """Rotate the column groups in ``groups`` by ``sign * (g mod m)``
    (Lemma 1: each group of b columns shares one rotation amount)."""
    m = dec.m
    for g in range(groups.start, groups.stop):
        k = g % m  # repro-lint: allow(raw-divmod) O(c) per-group setup, not per-element
        if k == 0:
            continue
        cols = slice(g * dec.b, (g + 1) * dec.b)
        V[:, cols] = np.roll(V[:, cols], sign * k, axis=0)


def row_gather_chunk(V: np.ndarray, dec: Decomposition, index_map, rows: slice) -> None:
    """Gather the rows in ``rows`` along axis 1 with ``index_map(i, cols)``."""
    i = np.arange(rows.start, rows.stop, dtype=np.int64)[:, None]
    cols = np.arange(dec.n, dtype=np.int64)[None, :]
    idx = index_map(i, cols)
    V[rows] = np.take_along_axis(V[rows], idx, axis=1)


def col_gather_chunk(V: np.ndarray, dec: Decomposition, index_map, cols: slice) -> None:
    """Gather the columns in ``cols`` along axis 0 with ``index_map(rows, j)``."""
    rows = np.arange(dec.m, dtype=np.int64)[:, None]
    j = np.arange(cols.start, cols.stop, dtype=np.int64)[None, :]
    idx = index_map(rows, j)
    V[:, cols] = np.take_along_axis(V[:, cols], idx, axis=0)


def pass_index_map(name: str, dec: Decomposition, red: ReducedEquations | None):
    """Resolve the gather index map for a named pass (Eqs. 26/31).

    Keyed by pass *name* so a worker process can rebuild the map from a
    descriptor instead of unpickling a closure over live numpy state.
    """
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


class ParallelTranspose:
    """A reusable parallel transposer bound to a worker count.

    Parameters
    ----------
    n_threads:
        Worker count (1 = the sequential baseline of Table 1).
    strength_reduced:
        Use fixed-point-reciprocal index math (on by default, as in the
        paper's CPU implementation); falls back to plain ``//``/``%`` for
        shapes outside the reduced range.
    backend:
        ``"threads"`` (default) runs chunks on a thread pool — real overlap
        only while numpy's gather kernels release the GIL.  ``"mp"`` runs
        chunks in a persistent process pool against a shared-memory copy of
        the buffer (see :mod:`repro.parallel.mp`): true parallel-for, at
        the cost of one staging copy in and one out.
    start_method:
        mp backend only — multiprocessing start method override (defaults
        to forkserver where available; see ``REPRO_MP_START``).
    native:
        ``"auto"`` (default) runs each chunk through the compiled per-plan
        kernel of :mod:`repro.native` when one is available — the ctypes
        calls release the GIL for their whole duration, so the thread
        backend gets true pass-level parallelism instead of relying on
        numpy's partial GIL releases.  ``"off"`` keeps every chunk on the
        numpy gathers.  The mp backend and the sanitizer always use numpy
        (worker processes rebuild plans themselves; the sanitizer must see
        every index).
    """

    def __init__(
        self,
        n_threads: int = 1,
        *,
        strength_reduced: bool = True,
        backend: str = "threads",
        start_method: str | None = None,
        native: str = "auto",
    ):
        if backend not in ("threads", "mp"):
            raise ValueError(f"unknown backend {backend!r}; use 'threads' or 'mp'")
        if native not in ("auto", "off"):
            raise ValueError(f"unknown native mode {native!r}; use 'auto' or 'off'")
        self.n_threads = int(n_threads)
        self.backend = backend
        self.strength_reduced = strength_reduced
        self.native = native
        if backend == "mp":
            from .mp import MpTranspose

            self._mp: "MpTranspose | None" = MpTranspose(
                n_threads,
                strength_reduced=strength_reduced,
                start_method=start_method,
            )
            self.executor = None
        else:
            self._mp = None
            self.executor = ParallelExecutor(n_threads)

    # -- index-map helpers ---------------------------------------------------

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
        if self.native == "off" or self._mp is not None:
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
        self, name: str, dec: Decomposition, total: int, body, *,
        full_coverage: bool = True,
    ) -> None:
        """Run one chunked pass, inside a shadow-memory scope when the
        sanitizer is enabled (the disabled path costs one attribute read)."""
        san = _sanitizer()
        if san.enabled:
            with san.pass_scope(
                f"parallel.{name}", dec.m * dec.n, full_coverage=full_coverage
            ):
                self.executor.parallel_for(total, body, name=name)
        else:
            self.executor.parallel_for(total, body, name=name)

    @staticmethod
    def _chunk_runner(name: str, nk, work):
        """Compose the chunk body: native runner when available, with the
        numpy chunk as the per-chunk fallback (a failing native chunk moved
        nothing, so numpy redoes exactly that range)."""
        if nk is None:
            return work

        def run(sl: slice) -> None:
            try:
                nk(sl.start, sl.stop)
            except MemoryError:
                _native().record_fallback(
                    f"scratch allocation failed in parallel pass {name}"
                )
                work(sl)

        return run

    def _rotate_pass(
        self, name: str, V: np.ndarray, dec: Decomposition, sign: int, nk=None
    ) -> None:
        """Columns rotate by ``sign * (j // b)``; parallel over the c groups
        of b columns (each group shares one rotation amount, Lemma 1)."""
        m = dec.m
        san = _sanitizer()
        tr = _tracer()
        itemsize = V.itemsize

        def work(groups: slice) -> None:
            if not san.enabled:
                rotate_chunk(V, dec, sign, groups)
                return
            for g in range(groups.start, groups.stop):
                k = g % m  # repro-lint: allow(raw-divmod) O(c) per-group setup, not per-element
                if k == 0:
                    continue
                cols = slice(g * dec.b, (g + 1) * dec.b)
                flat = (
                    np.arange(m, dtype=np.int64)[:, None] * dec.n
                    + np.arange(cols.start, cols.stop, dtype=np.int64)
                ).ravel()  # repro-lint: allow(implicit-copy) flat index array, not a view
                san.record(reads=flat, writes=flat, where=f"group[{g}]")
                V[:, cols] = np.roll(V[:, cols], sign * k, axis=0)

        run = self._chunk_runner(name, nk, work)

        def body(groups: slice) -> None:
            # One worker.chunk span per chunk, carrying the rectangle the
            # chunk owns — the Chrome-trace lane layout shows these spans
            # overlapping across worker threads.
            if tr.enabled:
                c0, c1 = groups.start * dec.b, groups.stop * dec.b
                with tr.span(
                    "worker.chunk", stage=name, r0=0, r1=m, c0=c0, c1=c1,
                    bytes=2 * m * (c1 - c0) * itemsize,
                ):
                    run(groups)
            else:
                run(groups)

        # Zero-shift groups are skipped, so coverage is at-most-once.
        self._run_pass(name, dec, dec.c, body, full_coverage=False)

    def _pre_rotate(self, V: np.ndarray, dec: Decomposition, nk=None) -> None:
        self._rotate_pass("pre_rotate", V, dec, -1, nk)

    def _gathered_row_pass(
        self, name: str, V: np.ndarray, dec: Decomposition, index_map, nk=None
    ) -> None:
        """Rows gather along axis 1 with ``index_map(i, cols)``; parallel
        over row chunks."""
        cols = np.arange(dec.n, dtype=np.int64)[None, :]
        san = _sanitizer()
        tr = _tracer()
        itemsize = V.itemsize

        def work(rows: slice) -> None:
            if not san.enabled:
                row_gather_chunk(V, dec, index_map, rows)
                return
            i = np.arange(rows.start, rows.stop, dtype=np.int64)[:, None]
            idx = index_map(i, cols)
            san.record(
                reads=i * dec.n + idx,
                writes=i * dec.n + cols,
                where=f"rows[{rows.start}:{rows.stop}]",
            )
            V[rows] = np.take_along_axis(V[rows], idx, axis=1)

        run = self._chunk_runner(name, nk, work)

        def body(rows: slice) -> None:
            if tr.enabled:
                with tr.span(
                    "worker.chunk", stage=name,
                    r0=rows.start, r1=rows.stop, c0=0, c1=dec.n,
                    bytes=2 * (rows.stop - rows.start) * dec.n * itemsize,
                ):
                    run(rows)
            else:
                run(rows)

        self._run_pass(name, dec, dec.m, body)

    def _gathered_column_pass(
        self, name: str, V: np.ndarray, dec: Decomposition, index_map, nk=None
    ) -> None:
        """Columns gather along axis 0 with ``index_map(rows, j)``; parallel
        over column chunks."""
        rows = np.arange(dec.m, dtype=np.int64)[:, None]
        san = _sanitizer()
        tr = _tracer()
        itemsize = V.itemsize

        def work(cols: slice) -> None:
            if not san.enabled:
                col_gather_chunk(V, dec, index_map, cols)
                return
            j = np.arange(cols.start, cols.stop, dtype=np.int64)[None, :]
            idx = index_map(rows, j)
            san.record(
                reads=idx * dec.n + j,
                writes=rows * dec.n + j,
                where=f"cols[{cols.start}:{cols.stop}]",
            )
            V[:, cols] = np.take_along_axis(V[:, cols], idx, axis=0)

        run = self._chunk_runner(name, nk, work)

        def body(cols: slice) -> None:
            if tr.enabled:
                with tr.span(
                    "worker.chunk", stage=name,
                    r0=0, r1=dec.m, c0=cols.start, c1=cols.stop,
                    bytes=2 * dec.m * (cols.stop - cols.start) * itemsize,
                ):
                    run(cols)
            else:
                run(cols)

        self._run_pass(name, dec, dec.n, body)

    def _row_shuffle(
        self, V: np.ndarray, dec: Decomposition, red: ReducedEquations | None,
        nk=None,
    ) -> None:
        """Rows gather with d'^{-1} (Eq. 31); parallel over row chunks."""
        self._gathered_row_pass(
            "row_shuffle", V, dec, pass_index_map("row_shuffle", dec, red), nk
        )

    def _column_shuffle(
        self, V: np.ndarray, dec: Decomposition, red: ReducedEquations | None,
        nk=None,
    ) -> None:
        """Columns gather with s' (Eq. 26); parallel over column chunks."""
        self._gathered_column_pass(
            "column_shuffle", V, dec,
            pass_index_map("column_shuffle", dec, red), nk,
        )

    def _inverse_column_shuffle(
        self, V: np.ndarray, dec: Decomposition, nk=None
    ) -> None:
        self._gathered_column_pass(
            "inverse_column_shuffle", V, dec,
            pass_index_map("inverse_column_shuffle", dec, None), nk,
        )

    def _row_shuffle_r2c(
        self, V: np.ndarray, dec: Decomposition, red: ReducedEquations | None,
        nk=None,
    ) -> None:
        self._gathered_row_pass(
            "row_shuffle_r2c", V, dec,
            pass_index_map("row_shuffle_r2c", dec, red), nk,
        )

    def _post_rotate(self, V: np.ndarray, dec: Decomposition, nk=None) -> None:
        self._rotate_pass("post_rotate", V, dec, 1, nk)

    # -- entry points ------------------------------------------------------------

    @staticmethod
    def _timed(name: str, fn, *args, backend: str | None = None) -> None:
        """Run one pass, recording it as ``parallel.pass.<name>`` when the
        metrics registry is enabled and as a ``pass.<name>`` span when the
        tracer is enabled (a bool check each otherwise)."""
        rt = _runtime_metrics()
        tr = _tracer()
        if tr.enabled:
            V, dec = args[0], args[1]
            extra = {} if backend is None else {"backend": backend}
            with tr.span(
                f"pass.{name}", m=dec.m, n=dec.n, bytes=2 * V.nbytes, **extra
            ) as sp:
                fn(*args)
            if rt.registry.enabled:
                rt.registry.observe(f"parallel.pass.{name}", sp.duration_s)
        elif rt.registry.enabled:
            t0 = perf_counter()
            fn(*args)
            rt.registry.observe(f"parallel.pass.{name}", perf_counter() - t0)
        else:
            fn(*args)

    def c2r(self, buf: np.ndarray, m: int, n: int) -> np.ndarray:
        """Parallel C2R transposition of a flat buffer."""
        if self._mp is not None:
            return self._mp.c2r(buf, m, n)
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
        nks = self._native_chunks(buf, m, n, "c2r") or {}
        rt = _runtime_metrics()
        tr = _tracer()
        t0 = perf_counter() if rt.registry.enabled else 0.0
        passes = 3 if dec.c > 1 else 2
        with tr.span(
            "op.parallel.c2r", m=m, n=n,
            threads=self.n_threads, dtype=str(buf.dtype),
        ) if tr.enabled else _NULL_CM:
            bk = "native" if nks else None
            if dec.c > 1:
                self._timed(
                    "pre_rotate", self._pre_rotate, V, dec,
                    nks.get("pre_rotate"), backend=bk,
                )
            self._timed(
                "row_shuffle", self._row_shuffle, V, dec, red,
                nks.get("row_shuffle"), backend=bk,
            )
            self._timed(
                "column_shuffle", self._column_shuffle, V, dec, red,
                nks.get("column_shuffle"), backend=bk,
            )
        if rt.registry.enabled:
            rt.registry.record_call(
                "parallel.c2r",
                perf_counter() - t0,
                nbytes=2 * passes * buf.nbytes,
                elements=passes * buf.shape[0],
            )
        return buf

    def r2c(self, buf: np.ndarray, m: int, n: int) -> np.ndarray:
        """Parallel R2C transposition of a flat buffer."""
        if self._mp is not None:
            return self._mp.r2c(buf, m, n)
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
        nks = self._native_chunks(buf, m, n, "r2c") or {}
        rt = _runtime_metrics()
        tr = _tracer()
        t0 = perf_counter() if rt.registry.enabled else 0.0
        passes = 3 if dec.c > 1 else 2
        with tr.span(
            "op.parallel.r2c", m=m, n=n,
            threads=self.n_threads, dtype=str(buf.dtype),
        ) if tr.enabled else _NULL_CM:
            bk = "native" if nks else None
            self._timed(
                "inverse_column_shuffle", self._inverse_column_shuffle, V, dec,
                nks.get("inverse_column_shuffle"), backend=bk,
            )
            self._timed(
                "row_shuffle_r2c", self._row_shuffle_r2c, V, dec, red,
                nks.get("row_shuffle_r2c"), backend=bk,
            )
            if dec.c > 1:
                self._timed(
                    "post_rotate", self._post_rotate, V, dec,
                    nks.get("post_rotate"), backend=bk,
                )
        if rt.registry.enabled:
            rt.registry.record_call(
                "parallel.r2c",
                perf_counter() - t0,
                nbytes=2 * passes * buf.nbytes,
                elements=passes * buf.shape[0],
            )
        return buf

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
        if self._mp is not None:
            self._mp.close()
        if self.executor is not None:
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
    backend: str = "threads",
    start_method: str | None = None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`ParallelTranspose`."""
    with ParallelTranspose(
        n_threads, backend=backend, start_method=start_method
    ) as pt:
        return pt.transpose_inplace(buf, m, n, order)
