"""Banded out-of-core executor: pass-by-pass, band-by-band, proof-gated.

Runs the decomposition's pass schedule against a :class:`ResidentWindow`
instead of an in-RAM buffer.  Each pass's iteration range (rows, columns,
or rotation column-groups) is split into sequential *bands* sized to the
window byte budget; inside a band the usual ``n_threads`` chunk schedule
runs on a :class:`~repro.parallel.executor.ParallelExecutor`, with the
in-RAM transposer's chunk kernels (:func:`repro.parallel.cpu.chunk_kernel`)
anchored at the band origin, and the band is flushed before the next one
loads.

Safety is not asserted, it is *proven*: before anything executes, every
band count this call will use goes through
:func:`repro.analysis.racecheck.check_banded_schedule`, which shows the
band x chunk write rectangles of every pass are pairwise disjoint and
covering and that reads stay inside the writing chunk's own rectangle.
That last property is exactly why the band copies are sound: a chunk of a
band permutes only data the band itself holds, so a RAM copy of the band
is indistinguishable from the mapped file.  A failed proof raises
:class:`BandedScheduleError` and nothing is touched.

Native kernels: every pass runs through the compiled per-plan kernel when
one is available.  Row-axis passes (``row_shuffle`` / ``row_shuffle_r2c``)
keep the full row stride in their band copy, so the plain
``run_pass(lo, hi)`` entry point sees them at ``base - r0 * n * itemsize``
and is handed the *global* ``[lo, hi)`` chunk range.  Column and rotation
bands are narrower than a row, so they go through the band-rebased
``run_pass_banded(lo, hi, row_stride, origin)`` entry points the codegen
emits alongside the full-width ones — same index arithmetic in global
coordinates, addressing rebased to the band copy's stride and first
column.  A scratch-allocation failure inside a native chunk falls back to
the numpy gather for exactly that chunk, the same contract as the in-RAM
path.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from ..core.indexing import Decomposition
from ..core.transpose import choose_algorithm
from ..parallel import cpu
from ..parallel.executor import ParallelExecutor
from ..parallel.partition import balanced_chunks
from ..strength.reduced import ReducedEquations
from .window import ResidentWindow, default_window_bytes, parse_bytes

__all__ = ["BandedExecutor", "BandedScheduleError"]

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()

_metrics = None
_trace = None
_events = None
_racecheck = None
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


def _event_log():
    """Lazily bind the structured event log (repro.trace.events)."""
    global _events
    if _events is None:
        from ..trace import events

        _events = events
    return _events.event_log


def _racecheck_mod():
    """Lazily bind the race checker (proof gate + sanitizer)."""
    global _racecheck
    if _racecheck is None:
        from ..analysis import racecheck

        _racecheck = racecheck
    return _racecheck


def _native():
    """Lazily bind the compiled-kernel backend (repro.native)."""
    global _native_mod
    if _native_mod is None:
        from .. import native

        _native_mod = native
    return _native_mod


class BandedScheduleError(RuntimeError):
    """The banded race proof failed; nothing was executed."""


#: process-wide memo of proven (M, N, n_bands, n_threads, algorithm)
#: schedules — the proof is pure in those five ints, so one-shot entry
#: points (`transpose_file_inplace`) share it across executor instances.
_PROVEN: set[tuple] = set()


_ROW_PASSES = ("row_shuffle", "row_shuffle_r2c")


class BandedExecutor:
    """Runs the decomposition band-by-band over a memmapped file.

    Parameters
    ----------
    n_threads:
        Chunk parallelism *within* a band (bands themselves are strictly
        sequential — that is what bounds the resident set).
    window_bytes:
        Resident byte budget per band (default ``REPRO_STREAM_WINDOW`` or
        256 MiB).
    native:
        ``"auto"`` (default) runs every pass through the compiled kernel
        on band buffers when available (row passes via a shifted base,
        column/rotation passes via the band-rebased entry points);
        ``"off"`` keeps every chunk on numpy.
    """

    def __init__(
        self,
        n_threads: int = 1,
        *,
        window_bytes: int | None = None,
        io_block_bytes: int | None = None,
        strength_reduced: bool = True,
        native: str = "auto",
    ):
        if native not in ("auto", "off"):
            raise ValueError(f"unknown native mode {native!r}; use 'auto' or 'off'")
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = int(n_threads)
        self.window_bytes = (
            default_window_bytes() if window_bytes is None
            else parse_bytes(window_bytes)
        )
        self.io_block_bytes = io_block_bytes
        self.strength_reduced = strength_reduced
        self.native = native
        self.executor = ParallelExecutor(self.n_threads)

    # -- band planning -------------------------------------------------------

    def _unit_bytes(self, axis: str, dec: Decomposition, itemsize: int) -> int:
        """Bytes one iteration unit of ``axis`` keeps resident."""
        if axis == "rows":
            return dec.n * itemsize
        if axis == "cols":
            return dec.m * itemsize
        if axis == "colgroups":
            return dec.m * dec.b * itemsize
        raise ValueError(f"unknown axis {axis!r}")

    def _n_bands(self, total: int, unit_bytes: int) -> int:
        """Fewest bands whose largest band fits the window budget (a single
        unit larger than the window degenerates to one unit per band)."""
        per_band = max(1, self.window_bytes // unit_bytes)
        return min(total, -(-total // per_band))

    def _prove(self, M: int, N: int, n_bands: int, algorithm: str) -> None:
        """Gate execution on the banded race proof (memoised per shape)."""
        key = (M, N, n_bands, self.n_threads, algorithm)
        if key in _PROVEN:
            return
        report = _racecheck_mod().check_banded_schedule(
            M, N, n_bands, self.n_threads, algorithm
        )
        if not report.ok:
            raise BandedScheduleError(
                f"banded schedule {M}x{N} bands={n_bands} "
                f"threads={self.n_threads} [{algorithm}] failed its race "
                f"proof: {'; '.join(str(f) for f in report.failures[:3])}"
            )
        _PROVEN.add(key)

    # -- native kernel plumbing ----------------------------------------------

    def _native_passes(self, M: int, N: int, algorithm: str, dtype) -> dict:
        """``{pass_name: (kernel, pass_idx)}`` for every pass the compiled
        kernel can run on a band buffer (row passes via the shifted base,
        column/rotation passes via the banded entry points), or empty."""
        if self.native == "off":
            return {}
        if _racecheck_mod().sanitizer.enabled:
            return {}
        native = _native()
        if not native.enabled() or M * N < native.min_elems():
            return {}
        # kernel_for_shape, NOT get_single_plan: a TransposePlan would
        # materialise O(M*N) index-map bytes — the codegen needs only the
        # decomposition constants.  (M, N) is already the executing view
        # for both algorithms; codegen takes the executing dec directly.
        kernel = native.kernel_for_shape(
            Decomposition.of(M, N), algorithm, np.dtype(dtype).itemsize
        )
        if kernel is None:
            return {}
        return {
            p.parallel_name: (kernel, i)
            for i, p in enumerate(kernel.passes)
            if p.parallel_name in _ROW_PASSES or kernel.has_banded(i)
        }

    # -- band execution ------------------------------------------------------

    def _run_band(
        self, name: str, B: np.ndarray, dec: Decomposition, red, kernel,
        band: slice, nk, san,
    ) -> None:
        """Chunk-parallel execution of one band copy ``B``."""
        tr = _tracer()
        itemsize = B.itemsize
        r0 = band.start

        def work(local: slice) -> None:
            chunk = slice(band.start + local.start, band.start + local.stop)
            if san is not None:
                cpu.record_chunk(san, name, dec, red, chunk)
            kernel(B, chunk, band.start)

        if nk is not None:
            native_kernel, pass_idx = nk
            if name in _ROW_PASSES:
                # row band: full row stride, shifted base, plain entry point
                base = B.ctypes.data - r0 * dec.n * itemsize
                native_call = lambda lo, hi: native_kernel.run_pass(
                    pass_idx, base, lo, hi
                )
            else:
                # column/rotation band: banded entry point against the
                # band copy's own stride, anchored at the band origin
                addr = B.ctypes.data
                stride = B.shape[1]
                native_call = lambda lo, hi: native_kernel.run_pass_banded(
                    pass_idx, addr, lo, hi, stride, r0
                )

            def run(local: slice) -> None:
                lo, hi = band.start + local.start, band.start + local.stop
                try:
                    native_call(lo, hi)
                except MemoryError:
                    _native().record_fallback(
                        f"scratch allocation failed in stream pass {name}"
                    )
                    work(local)
        else:
            run = work

        def body(local: slice) -> None:
            if tr.enabled:
                lo, hi = band.start + local.start, band.start + local.stop
                with tr.span(
                    "worker.chunk", stage=name, start=lo, stop=hi,
                    backend="stream",
                ):
                    run(local)
            else:
                run(local)

        self.executor.parallel_for(band.stop - band.start, body, name=name)

    def _run_pass(
        self, name: str, axis: str, window: ResidentWindow,
        dec: Decomposition, red, n_bands: int, nk,
    ) -> int:
        """Run one pass band-by-band; returns the number of bands run."""
        total = dec.c if axis == "colgroups" else (
            dec.m if axis == "rows" else dec.n
        )
        bands = balanced_chunks(total, n_bands)
        tr = _tracer()
        ev = _event_log()
        rc = _racecheck_mod()
        san = rc.sanitizer if rc.sanitizer.enabled else None
        scope = (
            san.pass_scope(
                f"stream.{name}", dec.m * dec.n,
                full_coverage=axis != "colgroups",
            )
            if san is not None else _NULL_CM
        )
        kernel = cpu.chunk_kernel(name, dec, red)
        with scope:
            for bi, band in enumerate(bands):
                self._run_one_band(
                    name, axis, window, dec, red, kernel, band, bi,
                    len(bands), nk, tr, ev, san,
                )
        return len(bands)

    def _run_one_band(
        self, name, axis, window, dec, red, kernel, band, bi, nb, nk, tr, ev,
        san,
    ) -> None:
        """Load, permute and flush a single band (spans + progress event)."""
        if axis == "rows":
            load = lambda: window.load_rows(band.start, band.stop)
            store = lambda B: window.store_rows(band.start, band.stop, B)
            nbytes = (band.stop - band.start) * dec.n * window.dtype.itemsize
        elif axis == "cols":
            load = lambda: window.load_cols(band.start, band.stop)
            store = lambda B: window.store_cols(band.start, band.stop, B)
            nbytes = dec.m * (band.stop - band.start) * window.dtype.itemsize
        else:  # colgroups
            c0, c1 = band.start * dec.b, band.stop * dec.b
            load = lambda: window.load_cols(c0, c1)
            store = lambda B: window.store_cols(c0, c1, B)
            nbytes = dec.m * (c1 - c0) * window.dtype.itemsize
        if ev.enabled:
            ev.emit(
                "stream",
                trace_id=tr.current_trace_id() if tr.enabled else "",
                stage=name, band=bi, bands=nb,
                lo=band.start, hi=band.stop, bytes=nbytes,
            )
        with tr.span(
            "stream.band", stage=name, band=bi, bands=nb,
            lo=band.start, hi=band.stop, bytes=2 * nbytes,
        ) if tr.enabled else _NULL_CM:
            B = load()
            self._run_band(name, B, dec, red, kernel, band, nk, san)
            store(B)
        reg = _runtime_metrics().registry
        if reg.enabled:
            reg.inc("stream.bands")

    # -- entry point ---------------------------------------------------------

    def transpose_file(
        self,
        path,
        m: int,
        n: int,
        dtype,
        order: str = "C",
        *,
        algorithm: str = "auto",
        mode: str = "r+",
    ) -> dict:
        """Transpose the ``m x n`` matrix stored in ``path`` in place,
        band-by-band, and return a stats dict (passes, bands, bytes moved,
        window budget, elapsed seconds).

        Raises :class:`ValueError` on shape/size/order problems (before the
        file is opened for writing beyond validation) and
        :class:`BandedScheduleError` when the race proof fails (before any
        band executes).  On a pass failure the already-flushed bands are
        durable and the mapping is synced best-effort before the error
        propagates — there is no silently-skipped flush.
        """
        if order not in ("C", "F"):
            raise ValueError(f"unknown order {order!r}")
        if algorithm not in ("auto", "c2r", "r2c"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if algorithm == "auto":
            algorithm = choose_algorithm(m, n)
        vm, vn = (m, n) if order == "C" else (n, m)
        # Same view folding as the in-RAM entry points: C2R runs on the
        # (vm, vn) view, R2C on the (vn, vm) view (Theorem 7).
        M, N = (vm, vn) if algorithm == "c2r" else (vn, vm)
        dec = Decomposition.of(M, N)
        red = None
        if self.strength_reduced:
            try:
                red = ReducedEquations(dec)
            except ValueError:
                red = None
        itemsize = np.dtype(dtype).itemsize
        passes = _racecheck_mod().pass_order(algorithm, dec.c)
        plan = []
        for name in passes:
            axis, extent_attr = _racecheck_mod().PASS_AXES[name]
            total = getattr(dec, extent_attr)
            k = self._n_bands(total, self._unit_bytes(axis, dec, itemsize))
            plan.append((name, axis, k))
        for k in sorted({k for _, _, k in plan}):
            self._prove(M, N, k, algorithm)

        nks = self._native_passes(M, N, algorithm, dtype)
        rt = _runtime_metrics()
        tr = _tracer()
        t0 = perf_counter()
        bands_run = 0
        with ResidentWindow(
            path, M, N, dtype,
            window_bytes=self.window_bytes,
            io_block_bytes=self.io_block_bytes,
            mode=mode,
        ) as window:
            with tr.span(
                f"op.stream.{algorithm}", m=m, n=n, order=order,
                threads=self.n_threads,
                window=self.window_bytes, dtype=str(np.dtype(dtype)),
            ) if tr.enabled else _NULL_CM:
                try:
                    for name, axis, k in plan:
                        bands_run += self._timed_pass(
                            name, axis, window, dec, red, k, nks.get(name)
                        )
                except BaseException:
                    # flush-or-raise: make what *was* stored durable, but
                    # never let an msync error mask the pass failure.
                    try:
                        window.flush()
                    except OSError:
                        if rt.registry.enabled:
                            rt.registry.inc("stream.flush_failed")
                    raise
                window.flush()
            stats = {
                "m": m, "n": n, "order": order, "algorithm": algorithm,
                "passes": len(plan), "bands": bands_run,
                "window_bytes": self.window_bytes,
                "threads": self.n_threads,
                "bytes_read": window.bytes_read,
                "bytes_written": window.bytes_written,
            }
        dt = perf_counter() - t0
        stats["seconds"] = dt
        if rt.registry.enabled:
            rt.registry.record_call(
                "stream.transpose", dt,
                nbytes=stats["bytes_read"] + stats["bytes_written"],
                elements=len(plan) * M * N,
            )
        return stats

    def _timed_pass(
        self, name, axis, window, dec, red, n_bands, nk,
    ) -> int:
        """Run one pass, recording ``stream.pass.<name>`` and a
        ``pass.<name>`` span exactly like the in-RAM backends."""
        rt = _runtime_metrics()
        tr = _tracer()
        if tr.enabled:
            extra = {} if nk is None else {"backend": "native"}
            with tr.span(
                f"pass.{name}", m=dec.m, n=dec.n, bands=n_bands,
                bytes=2 * dec.m * dec.n * window.dtype.itemsize, **extra,
            ) as sp:
                out = self._run_pass(name, axis, window, dec, red, n_bands, nk)
            if rt.registry.enabled:
                rt.registry.observe(f"stream.pass.{name}", sp.duration_s)
            return out
        if rt.registry.enabled:
            t0 = perf_counter()
            out = self._run_pass(name, axis, window, dec, red, n_bands, nk)
            rt.registry.observe(f"stream.pass.{name}", perf_counter() - t0)
            return out
        return self._run_pass(name, axis, window, dec, red, n_bands, nk)

    def close(self) -> None:
        self.executor.shutdown()

    def __enter__(self) -> "BandedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
