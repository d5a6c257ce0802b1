"""Public out-of-core entry points: streamed in-place transpose + baseline.

:func:`transpose_file_inplace` is the windowed replacement for the old
unbounded-memmap file path: same signature and error taxonomy, plus the
streaming knobs (``window_bytes``, ``n_threads``, ``native``).  The
in-RAM wrapper :func:`repro.core.outofcore.transpose_file_inplace`
delegates here, so every consumer of the old API inherits the bounded
resident set.

:func:`naive_transpose_copy` is the comparison baseline the streaming
benchmark gates against: the obvious two-file out-of-place transpose
(read row blocks, write them as column slabs of a second file).  It moves
each element once but pays a strided scatter per block — the bandwidth
the decomposition's sequential passes have to beat is *this*, not an
in-RAM copy.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .executor import BandedExecutor
from .window import drop_pages, sync_pages_async

__all__ = ["transpose_file_inplace", "naive_transpose_copy"]


def transpose_file_inplace(
    path: str | os.PathLike,
    m: int,
    n: int,
    dtype,
    order: str = "C",
    *,
    algorithm: str = "auto",
    window_bytes: int | None = None,
    io_block_bytes: int | None = None,
    n_threads: int = 1,
    native: str = "auto",
) -> dict:
    """Transpose the ``m x n`` matrix stored in a raw binary file, in place,
    through the banded windowed executor.

    Parameters
    ----------
    path:
        File holding exactly ``m * n`` elements of ``dtype`` in ``order``
        storage.  Rewritten in place; afterwards it holds the ``n x m``
        transpose in the same order.
    algorithm:
        ``"auto"`` (C2R, see :func:`~repro.core.transpose.choose_algorithm`),
        ``"c2r"`` or ``"r2c"``.
    window_bytes:
        Resident byte budget per band (default ``REPRO_STREAM_WINDOW`` or
        256 MiB).
    n_threads:
        Chunk parallelism *within* a band (worker threads).

    Returns the executor's stats dict (passes, bands, bytes moved,
    seconds).  Raises :class:`ValueError` when the file size does not
    match the shape and
    :class:`~repro.stream.executor.BandedScheduleError` when the banded
    race proof fails (nothing is touched in either case).
    """
    path = Path(path)
    dtype = np.dtype(dtype)
    expected = m * n * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"{path} holds {actual} bytes; {m}x{n} {dtype} needs {expected}"
        )
    with BandedExecutor(
        n_threads,
        window_bytes=window_bytes,
        io_block_bytes=io_block_bytes,
        native=native,
    ) as ex:
        return ex.transpose_file(
            path, m, n, dtype, order, algorithm=algorithm
        )


def naive_transpose_copy(
    src: str | os.PathLike,
    dst: str | os.PathLike,
    m: int,
    n: int,
    dtype,
    *,
    block_bytes: int = 64 * 1024 * 1024,
) -> dict:
    """Out-of-place two-file transpose baseline: ``dst = src.T``.

    Reads ``src`` (``m x n``, row-major) in row blocks and writes each
    block as a column slab of ``dst`` (``n x m``) — the straightforward
    approach when a second file's worth of disk is acceptable.  Per block,
    writeback is initiated and the pages are dropped on both sides — the
    same residency/flush discipline the streamed path uses — so the
    baseline runs with a bounded resident set and the comparison measures
    the algorithms, not two different page-management policies.  The
    final ``flush()`` is the durability barrier.

    Returns ``{"seconds": ..., "bytes": ...}`` for the benchmark.
    """
    from time import perf_counter

    src, dst = Path(src), Path(dst)
    dtype = np.dtype(dtype)
    expected = m * n * dtype.itemsize
    if src.stat().st_size != expected:
        raise ValueError(
            f"{src} holds {src.stat().st_size} bytes; "
            f"{m}x{n} {dtype} needs {expected}"
        )
    t0 = perf_counter()
    with open(dst, "wb") as fh:
        fh.truncate(expected)
    a = np.memmap(src, dtype=dtype, mode="r", shape=(m, n))
    b = np.memmap(dst, dtype=dtype, mode="r+", shape=(n, m))
    src_row = n * dtype.itemsize
    dst_row = m * dtype.itemsize
    step = max(1, block_bytes // src_row)
    try:
        for i0 in range(0, m, step):
            i1 = min(m, i0 + step)
            b[:, i0:i1] = a[i0:i1].T
            drop_pages(a._mmap, i0 * src_row, i1 * src_row)
            # The written slab spans every dst row; initiate writeback
            # and drop across the whole mapping so the resident set
            # stays one slab.
            sync_pages_async(b._mmap, 0, n * dst_row)
            drop_pages(b._mmap, 0, n * dst_row)
        b.flush()
    finally:
        del a, b
    return {"seconds": perf_counter() - t0, "bytes": 2 * expected}
