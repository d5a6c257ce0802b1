"""Banded out-of-core executor: pass-by-pass, band-by-band, proof-gated.

A facade over :mod:`repro.parallel.engine` that runs the decomposition's
passes against a :class:`ResidentWindow` instead of an in-RAM buffer.  Each
pass's iteration range (rows, columns, or rotation column-groups) is split
into sequential *bands* sized to the window byte budget.  A row band runs
the usual ``n_threads`` chunk schedule on a
:class:`~repro.parallel.executor.ParallelExecutor` in the mapped pages; a
column or rotation band is permuted during its load into the window's
buffer and its store back, whose mapped rows the same executor's workers
split.  Each band is flushed before the next one loads.

Safety is not asserted, it is *proven*: before anything executes, the
per-pass band counts go through
:func:`repro.analysis.racecheck.check_banded_schedule`
(:func:`~repro.parallel.engine.proven_schedule`), which shows the band x
chunk write rectangles of every pass are pairwise disjoint and covering and
that reads stay inside the writing chunk's own rectangle, and that a
column band's load reads only its mapped columns and writes only the
buffer while its store does the reverse.  That is what makes both band
forms sound: a row band permuted in place in the mapping reads nothing
another band writes, and neither does a column band's copy.  A failed
proof raises :class:`BandedScheduleError` and nothing is touched.  The
engine runs the proven schedule object itself, with the compiled kernel
when one is available (row bands through a shifted base, column and
rotation bands through the kernel's band copies) and the numpy chunk
bodies otherwise.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from ..analysis import racecheck
from ..core.indexing import Decomposition
from ..core.transpose import choose_algorithm
from ..parallel import engine
from ..parallel.engine import BandedScheduleError
from ..parallel.executor import ParallelExecutor
from ..runtime import metrics
from ..trace import spans
from .window import ResidentWindow, default_window_bytes, parse_bytes

__all__ = ["BandedExecutor", "BandedScheduleError"]

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()


class BandedExecutor:
    """Runs the decomposition band-by-band over a memmapped file.

    Parameters
    ----------
    n_threads:
        Chunk parallelism *within* a band (bands themselves are strictly
        sequential — that is what bounds the resident set); the same
        workers split each column band's copies.
    window_bytes:
        Resident byte budget per band (default ``REPRO_STREAM_WINDOW`` or
        256 MiB).
    io_block_bytes:
        Mapped pages in flight while a column band is copied, split over
        the workers (default: see
        :class:`~repro.stream.window.ResidentWindow`).
    native:
        ``"auto"`` (default) runs every pass through the compiled kernel
        when available (row passes on the mapped rows via a shifted base,
        column/rotation passes inside their band copies);
        ``"off"`` keeps every chunk on numpy.
    """

    def __init__(
        self,
        n_threads: int = 1,
        *,
        window_bytes: int | None = None,
        io_block_bytes: int | None = None,
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
        self.native = native
        self.executor = ParallelExecutor(self.n_threads)

    def _n_bands(self, name: str, dec: Decomposition, itemsize: int) -> int:
        """Fewest bands of pass ``name`` whose largest band fits the window
        budget (a single row, column or column group larger than the window
        degenerates to one per band)."""
        axis, extent_attr = racecheck.PASS_AXES[name]
        total = getattr(dec, extent_attr)
        unit = {"rows": dec.n, "cols": dec.m, "colgroups": dec.m * dec.b}[axis]
        per_band = max(1, self.window_bytes // (unit * itemsize))
        return min(total, -(-total // per_band))

    def transpose_file(
        self,
        path,
        m: int,
        n: int,
        dtype,
        order: str = "C",
        *,
        algorithm: str = "auto",
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
        dtype = np.dtype(dtype)
        bands = tuple(
            self._n_bands(name, dec, dtype.itemsize)
            for name in racecheck.pass_order(algorithm, dec.c)
        )
        schedule = engine.proven_schedule(M, N, bands, self.n_threads, algorithm)
        kernel = (
            None if self.native == "off"
            else engine.native_kernel(M, N, algorithm, dtype)
        )
        reg = metrics.registry
        tr = spans.tracer
        t0 = perf_counter()
        with ResidentWindow(
            path, M, N, dtype,
            window_bytes=self.window_bytes,
            io_block_bytes=self.io_block_bytes,
            executor=self.executor,
        ) as window:
            with tr.span(
                f"op.stream.{algorithm}", m=m, n=n, order=order,
                threads=self.n_threads,
                window=self.window_bytes, dtype=str(dtype),
            ) if tr.enabled else _NULL_CM:
                try:
                    bands_run = engine.run(
                        schedule, engine.WindowBands(window), scope="stream",
                        kernel=kernel, executor=self.executor,
                    )
                except BaseException:
                    # flush-or-raise: make what *was* stored durable, but
                    # never let an msync error mask the pass failure.
                    try:
                        window.flush()
                    except OSError:
                        if reg.enabled:
                            reg.inc("stream.flush_failed")
                    raise
                window.flush()
            stats = {
                "m": m, "n": n, "order": order, "algorithm": algorithm,
                "passes": len(schedule.passes), "bands": bands_run,
                "window_bytes": self.window_bytes,
                "threads": self.n_threads,
                "bytes_read": window.bytes_read,
                "bytes_written": window.bytes_written,
            }
        dt = perf_counter() - t0
        stats["seconds"] = dt
        if reg.enabled:
            reg.record_call(
                "stream.transpose", dt,
                nbytes=stats["bytes_read"] + stats["bytes_written"],
                elements=len(schedule.passes) * M * N,
            )
        return stats

    def close(self) -> None:
        self.executor.shutdown()

    def __enter__(self) -> "BandedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
