"""Byte-budgeted resident window over a memory-mapped matrix file.

Out-of-core execution needs one invariant the raw ``np.memmap`` path cannot
give: a *bound* on how much of the file is resident at once.  The
:class:`ResidentWindow` provides it.  The file is mapped once, but the
mapping is only ever *touched* through band-granular load/store calls, and
every band ends by handing its touched pages back to the kernel
(``msync`` + ``madvise(MADV_DONTNEED)``), so the process's resident set
stays at (one band) + (the column buffer) + (one I/O block) + interpreter
baseline regardless of file size.

Flush ordering — the contract the banded race proof
(:func:`repro.analysis.racecheck.check_banded_schedule`) depends on:

1. a band is **loaded**: a row band is the mapping's own view of its rows
   (no copy); a column or rotation band is copied into the window's one
   column buffer, each row block's pages dropped as soon as it is copied
   (they are clean);
2. a row band is permuted in the mapped pages; a column or rotation band
   is permuted during its two copies (the load and the store apply the
   pass on the way, so nothing runs in the column buffer in between);
3. the band is **stored**: a column band is written back through the
   mapping; either kind then has its writeback initiated
   (``msync(MS_ASYNC)``) and its pages dropped (``madvise``) *before the
   next band loads*; the op-end ``flush()`` (``MS_SYNC``) is the
   durability barrier.

The proof shows that the band rectangles of a pass are pairwise disjoint,
that every chunk reads only inside its own rectangle, and that a column
band's load reads only the band's mapped columns and writes only the
buffer while its store does the reverse.  So a band never reads an
element another band writes, and no later band can observe — or clobber
— a flushed band's elements within the pass; that is why step 3 may run
eagerly.  Dirty page-cache pages between the
async initiation and the barrier are the kernel writeback system's to
schedule (and throttle), which is what lets a scattered column-band store
coalesce into sequential device writes instead of stalling on per-page
random ``msync``.

Two band geometries cover every decomposition pass:

* **row bands** ``[r0, r1)`` — contiguous byte ranges of a row-major file,
  permuted in place in the mapping;
* **column bands** ``[c0, c1)`` — strided; gathered into the column buffer
  by row-block sub-copies and scattered back the same way.  With an
  ``executor`` the sub-copies are split over its workers, each worker's
  block being ``io_block_bytes // n_threads``, so at most one I/O block
  of mapped pages is resident at any time.  A copy that permutes is
  ordered by mapped rows in both directions (a load reads its block's
  mapped rows and scatters into the buffer, a store gathers from the
  buffer and writes its block's mapped rows), so the bound holds for it
  unchanged.

Environment knobs (see docs/STREAMING.md):

* ``REPRO_STREAM_WINDOW`` — default window byte budget (suffixes k/m/g
  accepted); the library default is 256 MiB.
* ``REPRO_STREAM_IO_BLOCK`` — byte budget of the strided sub-copies in
  flight while (de)materialising a column band; defaults to
  ``max(4 MiB, window // 4)``.
"""

from __future__ import annotations

import mmap
import os
import sys
from pathlib import Path

import numpy as np

from ..parallel.partition import balanced_chunks

__all__ = [
    "ResidentWindow",
    "DEFAULT_WINDOW_BYTES",
    "WINDOW_ENV",
    "IO_BLOCK_ENV",
    "default_window_bytes",
    "parse_bytes",
    "drop_pages",
    "sync_pages",
    "sync_pages_async",
]

#: library default for the resident-window byte budget
DEFAULT_WINDOW_BYTES = 256 * 1024 * 1024

#: environment override for the default window budget
WINDOW_ENV = "REPRO_STREAM_WINDOW"

#: environment override for the strided-copy I/O block budget
IO_BLOCK_ENV = "REPRO_STREAM_IO_BLOCK"

_PAGE = mmap.PAGESIZE

_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}

#: madvise(MADV_DONTNEED) availability (Linux; absent on some platforms —
#: the window then degrades to msync-only and the RSS bound is advisory)
_HAS_MADVISE = hasattr(mmap.mmap, "madvise") and hasattr(mmap, "MADV_DONTNEED")


def parse_bytes(text: str | int) -> int:
    """Parse a byte count: plain int or int with a k/m/g suffix."""
    if isinstance(text, int):
        value = text
    else:
        s = str(text).strip().lower()
        mult = 1
        if s and s[-1] in _SUFFIXES:
            mult = _SUFFIXES[s[-1]]
            s = s[:-1]
        try:
            value = int(s) * mult
        except ValueError:
            raise ValueError(f"unparseable byte count {text!r}") from None
    if value < 1:
        raise ValueError(f"byte count must be >= 1, got {value}")
    return value


def default_window_bytes() -> int:
    """The resident-window budget: ``REPRO_STREAM_WINDOW`` or 256 MiB."""
    env = os.environ.get(WINDOW_ENV)
    if env:
        return parse_bytes(env)
    return DEFAULT_WINDOW_BYTES


def _page_span(lo: int, hi: int, limit: int) -> tuple[int, int]:
    """Page-align ``[lo, hi)`` outward and clamp it to ``[0, limit)``."""
    start = (max(0, lo) // _PAGE) * _PAGE
    stop = min(limit, ((hi + _PAGE - 1) // _PAGE) * _PAGE)
    return start, stop


def drop_pages(mapping: mmap.mmap, lo: int, hi: int) -> None:
    """Hand the pages backing bytes ``[lo, hi)`` back to the kernel.

    For a shared file mapping ``MADV_DONTNEED`` only drops residency —
    dirty pages are still written back and re-faults read the file — so
    this is always safe; it is what keeps the RSS bounded by the window.
    """
    if not _HAS_MADVISE:
        return
    start, stop = _page_span(lo, hi, len(mapping))
    if stop > start:
        mapping.madvise(mmap.MADV_DONTNEED, start, stop - start)


def sync_pages(mapping: mmap.mmap, lo: int, hi: int) -> None:
    """``msync`` the pages backing bytes ``[lo, hi)`` (then droppable)."""
    start, stop = _page_span(lo, hi, len(mapping))
    if stop > start:
        mapping.flush(start, stop - start)


# msync(2) MS_ASYNC on Linux.  Python's mmap.flush() is MS_SYNC-only; a
# column band's dirty pages are *scattered* (one slice per row), and a
# synchronous msync of scattered 4 KiB pages degrades a sequential-capable
# device to random-write bandwidth.  MS_ASYNC marks them for writeback and
# returns; the kernel's flusher coalesces across bands, and the op-end
# ``flush()`` (MS_SYNC) remains the durability barrier.
_MS_ASYNC = 1

_libc = None
_async_broken = False


def _msync_fn():
    global _libc
    if _libc is None:
        import ctypes

        _libc = ctypes.CDLL(None, use_errno=True)
    return _libc.msync


def sync_pages_async(mapping: mmap.mmap, lo: int, hi: int) -> None:
    """Initiate writeback of bytes ``[lo, hi)`` without blocking on it.

    Residency is unaffected (the caller still drops the pages); only the
    durability point moves — from per-call to the next full
    :func:`sync_pages` / ``flush()``.  Falls back to the synchronous
    :func:`sync_pages` on platforms without a callable ``msync``.
    """
    global _async_broken
    if _async_broken or not sys.platform.startswith("linux"):
        sync_pages(mapping, lo, hi)
        return
    start, stop = _page_span(lo, hi, len(mapping))
    if stop <= start:
        return
    import ctypes

    buf = (ctypes.c_char * 0).from_buffer(mapping)
    try:
        addr = ctypes.addressof(buf)
    finally:
        del buf
    try:
        rc = _msync_fn()(
            ctypes.c_void_p(addr + start),
            ctypes.c_size_t(stop - start),
            ctypes.c_int(_MS_ASYNC),
        )
    except (OSError, AttributeError):
        _async_broken = True
        sync_pages(mapping, lo, hi)
        return
    if rc != 0:
        _async_broken = True
        sync_pages(mapping, lo, hi)


class ResidentWindow:
    """Band-granular, byte-budgeted access to an ``rows x cols`` file matrix.

    Parameters
    ----------
    path:
        Raw binary file of exactly ``rows * cols`` elements of ``dtype``
        (row-major with respect to the ``(rows, cols)`` view), mapped
        read-write: row bands are permuted in the mapping itself.
    window_bytes:
        Resident byte budget for one band (default:
        :func:`default_window_bytes`).  A band never exceeds it except
        when a single row/column already does — the effective budget is
        ``max(window_bytes, one iteration unit)``.  The column buffer is
        sized to it (capped at the file size) once, on the first
        :meth:`load_cols`.
    io_block_bytes:
        Budget of mapped pages resident at once while a column band is
        copied (default: ``REPRO_STREAM_IO_BLOCK`` or
        ``max(4 MiB, window_bytes // 4)``, at least one page).  Each
        worker copies blocks of ``io_block_bytes // n_threads``.
    executor:
        :class:`~repro.parallel.executor.ParallelExecutor` whose workers
        split the row blocks of every column-band copy (``None``: the
        calling thread copies them all).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        rows: int,
        cols: int,
        dtype,
        *,
        window_bytes: int | None = None,
        io_block_bytes: int | None = None,
        executor=None,
    ):
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid matrix shape {rows}x{cols}")
        self.path = Path(path)
        self.rows = int(rows)
        self.cols = int(cols)
        self.dtype = np.dtype(dtype)
        expected = self.rows * self.cols * self.dtype.itemsize
        actual = self.path.stat().st_size
        if actual != expected:
            raise ValueError(
                f"{self.path} holds {actual} bytes; "
                f"{rows}x{cols} {self.dtype} needs {expected}"
            )
        self.window_bytes = (
            default_window_bytes() if window_bytes is None
            else parse_bytes(window_bytes)
        )
        if io_block_bytes is None:
            env = os.environ.get(IO_BLOCK_ENV)
            # Floor at 4 MiB: the block only bounds *transient* residency
            # (pages are dropped before the next block), and sub-page
            # blocks would turn a column-band copy into a per-row syscall
            # storm without tightening the band budget at all.
            io_block_bytes = (
                parse_bytes(env) if env
                else max(4 * 1024 * 1024, self.window_bytes // 4)
            )
        self.io_block_bytes = max(_PAGE, int(io_block_bytes))
        self._executor = executor
        self._mm = np.memmap(
            self.path, dtype=self.dtype, mode="r+", shape=(self.rows * self.cols,)
        )
        self.view = self._mm.reshape(self.rows, self.cols)
        self._row_bytes = self.cols * self.dtype.itemsize
        #: the one column-band buffer, allocated by the first load_cols
        self._col_buf: np.ndarray | None = None
        #: lifetime accounting (exported through stream metrics)
        self.bytes_read = 0
        self.bytes_written = 0
        self.loads = 0
        self.stores = 0

    # -- residency plumbing --------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * self.dtype.itemsize

    def _drop_rows(self, r0: int, r1: int) -> None:
        drop_pages(self._mm._mmap, r0 * self._row_bytes, r1 * self._row_bytes)

    def _sync_rows(self, r0: int, r1: int) -> None:
        sync_pages_async(
            self._mm._mmap, r0 * self._row_bytes, r1 * self._row_bytes
        )

    def _row_blocks(self, band_cols: int, copy, shares=None) -> None:
        """Run ``copy(i0, i1, worker)`` over row blocks covering every row.

        Worker ``w`` takes the rows ``shares[w]`` (default: a balanced
        share per executor worker) and walks them in blocks sized so that
        one block's touched pages (one ``band_cols`` span plus
        page-granularity slop per row) fit ``io_block_bytes // n_threads``:
        all workers together hold at most one I/O block of mapped pages.
        """
        ex = self._executor
        workers = 1 if ex is None else ex.n_threads
        if shares is None:
            shares = balanced_chunks(self.rows, workers)
        per_row = band_cols * self.dtype.itemsize + _PAGE
        step = max(1, self.io_block_bytes // workers // per_row)

        def body(ws: slice) -> None:
            for w in range(ws.start, ws.stop):
                rows = shares[w]
                for i0 in range(rows.start, rows.stop, step):
                    copy(i0, min(rows.stop, i0 + step), w)

        if ex is None:
            body(slice(0, len(shares)))
        else:
            ex.parallel_for(len(shares), body, name="stream.band_copy")

    # -- row bands (contiguous byte ranges, permuted in place) ---------------

    def load_rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows ``[r0, r1)`` as the mapping's own view (no copy): the
        caller permutes them in the mapped pages."""
        self.bytes_read += (r1 - r0) * self._row_bytes
        self.loads += 1
        return self.view[r0:r1]

    def store_rows(self, r0: int, r1: int, band: np.ndarray) -> None:
        """Finish a row band: copy ``band`` in unless it is the band's own
        view, then initiate its writeback and drop its pages (flush step 3
        of the module contract) before the caller loads the next band."""
        dst = self.view[r0:r1]
        src = band.reshape(r1 - r0, self.cols)
        if src.ctypes.data != dst.ctypes.data or src.strides != dst.strides:
            dst[...] = src
        self._sync_rows(r0, r1)
        self._drop_rows(r0, r1)
        self.bytes_written += (r1 - r0) * self._row_bytes
        self.stores += 1

    # -- column bands (strided, copied via row blocks) -----------------------

    def load_cols(self, c0: int, c1: int, copy=None) -> np.ndarray:
        """Copy columns ``[c0, c1)`` (all rows) into the window's column
        buffer and return it as a ``rows x (c1 - c0)`` array.  Every call
        reuses the one buffer: the result is valid until the next
        :meth:`load_cols`.

        ``copy`` is a band copy that permutes on the way: worker ``w``
        drives the mapped rows ``copy.rows["load"][w]``, calling
        ``copy("load", map_addr, band_addr, i0, i1, w)`` per row block, in
        place of the plain copy.  Either way a block reads only mapped
        rows ``[i0, i1)`` and drops their pages."""
        width = c1 - c0
        need = self.rows * width
        if self._col_buf is None or self._col_buf.size < need:
            cap = min(self.window_bytes, self.nbytes) // self.dtype.itemsize
            self._col_buf = np.empty(max(need, cap), dtype=self.dtype)
        band = self._col_buf[:need].reshape(self.rows, width)
        view = self.view
        map_addr, band_addr = view.ctypes.data, band.ctypes.data

        def block(i0: int, i1: int, w: int) -> None:
            if copy is None:
                band[i0:i1] = view[i0:i1, c0:c1]
            else:
                copy("load", map_addr, band_addr, i0, i1, w)
            self._drop_rows(i0, i1)  # clean pages: drop costs nothing

        self._row_blocks(width, block, None if copy is None else copy.rows["load"])
        self.bytes_read += need * self.dtype.itemsize
        self.loads += 1
        return band

    def store_cols(self, c0: int, c1: int, band: np.ndarray, copy=None) -> None:
        """Write a column band back block-by-block; each block's writeback
        is initiated and its pages dropped before its worker faults in the
        next, so the *resident* set never exceeds one I/O block (the
        scattered dirty pages drain through kernel writeback, not a
        blocking per-block msync).  ``copy`` permutes on the way, as in
        :meth:`load_cols`: a block writes only mapped rows ``[i0, i1)``."""
        width = c1 - c0
        bview = band.reshape(self.rows, width)
        view = self.view
        map_addr, band_addr = view.ctypes.data, bview.ctypes.data

        def block(i0: int, i1: int, w: int) -> None:
            if copy is None:
                view[i0:i1, c0:c1] = bview[i0:i1]
            else:
                copy("store", map_addr, band_addr, i0, i1, w)
            self._sync_rows(i0, i1)
            self._drop_rows(i0, i1)

        self._row_blocks(width, block, None if copy is None else copy.rows["store"])
        self.bytes_written += self.rows * width * self.dtype.itemsize
        self.stores += 1

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Full ``msync`` of the mapping (the end-of-op durability point)."""
        self._mm.flush()

    def close(self) -> None:
        """Flush and release the mapping (idempotent)."""
        if self._mm is not None:
            self._mm.flush()
            drop_pages(self._mm._mmap, 0, self.nbytes)
            self.view = None
            self._mm = None
            self._col_buf = None

    def __enter__(self) -> "ResidentWindow":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Already unwinding: close best-effort so an msync error cannot
            # mask the pass failure (the executor records it instead).
            try:
                self.close()
            except OSError:
                pass
            return
        self.close()
