"""Byte-budgeted resident window over a memory-mapped matrix file.

Out-of-core execution needs one invariant the raw ``np.memmap`` path cannot
give: a *bound* on how much of the file is resident at once.  The
:class:`ResidentWindow` provides it.  The file is mapped once, but the
mapping is only ever *touched* through band-granular load/store calls, and
every band ends by handing its touched pages back to the kernel
(``madvise(MADV_DONTNEED)``), so the process's resident set
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
   mapping; either kind then has its pages dropped
   (``madvise(MADV_DONTNEED)``) *before the next band loads*.  On a shared
   file mapping that only ends residency: the pages stay dirty in the
   page cache, and the op-end ``flush()`` (``MS_SYNC``) is the durability
   barrier.

The proof shows that the band rectangles of a pass are pairwise disjoint,
that every chunk reads only inside its own rectangle, and that a column
band's load reads only the band's mapped columns and writes only the
buffer while its store does the reverse.  So a band never reads an
element another band writes, and no later band can observe — or clobber
— a flushed band's elements within the pass; that is why step 3 may run
eagerly.  Until the barrier, writing the dropped dirty pages back is the
kernel writeback system's to schedule (and throttle); no band blocks on a
per-page ``msync``.

Two band geometries cover every decomposition pass:

* **row bands** ``[r0, r1)`` — contiguous byte ranges of a row-major file,
  permuted in place in the mapping.  A load faults the band in writable
  with one ``madvise(MADV_POPULATE_WRITE)`` per worker share, so the
  kernel pass takes no page faults (without it each page of a file held
  in 4 KiB page-cache folios takes a read fault, then a write fault);
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

import errno
import mmap
import os
import sys
import threading
from pathlib import Path

import numpy as np

from ..parallel.executor import PassExecutionError
from ..parallel.partition import balanced_chunks

__all__ = [
    "ResidentWindow",
    "DEFAULT_WINDOW_BYTES",
    "WINDOW_ENV",
    "IO_BLOCK_ENV",
    "default_window_bytes",
    "parse_bytes",
    "drop_pages",
    "drop_dirty_pages",
    "sync_pages",
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


#: On Linux a dropped page of a shared mapping stays dirty in the page
#: cache, and ``msync(MS_ASYNC)`` has done nothing since 2.6.19
#: (msync(2)), so dirty pages are dropped as they are and the closing
#: ``flush()`` (``MS_SYNC``) writes them.  Elsewhere what ``MADV_DONTNEED``
#: does to a dirty shared page is not specified, so they are synced first.
_SYNC_BEFORE_DROP = not sys.platform.startswith("linux")


def drop_dirty_pages(mapping: mmap.mmap, lo: int, hi: int) -> None:
    """Hand back the pages backing bytes ``[lo, hi)`` that were written:
    :func:`drop_pages`, after a synchronous :func:`sync_pages` off Linux."""
    if _SYNC_BEFORE_DROP:
        sync_pages(mapping, lo, hi)
    drop_pages(mapping, lo, hi)


#: madvise(2) MADV_POPULATE_WRITE (Linux >= 5.14; Python 3.11's mmap does
#: not name it): fault a range in writable, as a write to each page would
_MADV_POPULATE_WRITE = 23

#: whether MADV_POPULATE_WRITE works here: ``None`` until the first call
#: probes it, ``False`` for the rest of the process after an EINVAL (an
#: older kernel), when the row kernel's own writes fault the band in
_populate_ok: bool | None = None if sys.platform.startswith("linux") else False
_probe_lock = threading.Lock()

_madvise_fn = None


def _madvise(addr: int, length: int, advice: int) -> None:
    """``madvise(2)`` through libc, raising :class:`OSError` on failure.
    A ctypes call releases the GIL, so workers populate concurrently
    (``mmap.madvise`` holds it)."""
    global _madvise_fn
    import ctypes

    if _madvise_fn is None:
        fn = ctypes.CDLL(None, use_errno=True).madvise
        fn.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
        fn.restype = ctypes.c_int
        _madvise_fn = fn
    if _madvise_fn(addr, length, advice) != 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


def _populate(addr: int, length: int) -> bool:
    """One ``MADV_POPULATE_WRITE``; ``False`` if the kernel rejects the
    advice (EINVAL), any other error raised."""
    try:
        _madvise(addr, length, _MADV_POPULATE_WRITE)
    except OSError as exc:
        if exc.errno != errno.EINVAL:
            raise
        return False
    return True


def populate_pages(addr: int, size: int, lo: int, hi: int) -> None:
    """Fault in writable the pages backing bytes ``[lo, hi)`` of the
    ``size``-byte mapping at ``addr``, in one call.

    Moves no bytes, and makes resident just the pages the first writes
    would.  The first call in the process probes the advice while other
    threads wait; after an EINVAL every call returns at once.  Any other
    error (``EFAULT`` for pages past the end of a truncated file) raises
    :class:`OSError`.
    """
    global _populate_ok
    start, stop = _page_span(lo, hi, size)
    if _populate_ok is False or stop <= start:
        return
    if _populate_ok is None:
        with _probe_lock:
            if _populate_ok is None:
                _populate_ok = _populate(addr + start, stop - start)
                return
    if _populate_ok:
        _populate(addr + start, stop - start)


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
        self._addr = self.view.ctypes.data
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

    def _drop_dirty_rows(self, r0: int, r1: int) -> None:
        drop_dirty_pages(
            self._mm._mmap, r0 * self._row_bytes, r1 * self._row_bytes
        )

    def _check_size(self) -> None:
        """Raise :class:`OSError` (``EFAULT``, as :meth:`load_rows` does)
        when the file no longer holds the mapped bytes: touching a mapped
        page past its end would raise ``SIGBUS`` and kill the process."""
        actual = os.stat(self.path).st_size
        if actual < self.nbytes:
            raise OSError(
                errno.EFAULT,
                f"{self.path} shrank to {actual} bytes; the "
                f"{self.rows}x{self.cols} {self.dtype} mapping needs "
                f"{self.nbytes}",
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
        caller permutes them in the mapped pages.

        The band is first faulted in writable (:func:`populate_pages`),
        one call per worker share of the rows, split like the kernel
        chunks: otherwise, on a file held in 4 KiB page-cache folios, each
        page takes a read fault and then a write fault under the kernel.
        An :class:`OSError` from that raises here, before any element of
        the band moves."""
        ex = self._executor
        if ex is None:
            self._populate_rows(r0, r1)
        else:
            def body(share: slice) -> None:
                self._populate_rows(r0 + share.start, r0 + share.stop)

            try:
                ex.parallel_for(r1 - r0, body, name="stream.band_populate")
            except PassExecutionError as exc:
                raise exc.__cause__
        self.bytes_read += (r1 - r0) * self._row_bytes
        self.loads += 1
        return self.view[r0:r1]

    def _populate_rows(self, r0: int, r1: int) -> None:
        populate_pages(
            self._addr, self.nbytes, r0 * self._row_bytes, r1 * self._row_bytes
        )

    def store_rows(self, r0: int, r1: int, band: np.ndarray) -> None:
        """Finish a row band: copy ``band`` in unless it is the band's own
        view, then drop its pages (flush step 3 of the module contract)
        before the caller loads the next band."""
        dst = self.view[r0:r1]
        src = band.reshape(r1 - r0, self.cols)
        if src.ctypes.data != dst.ctypes.data or src.strides != dst.strides:
            dst[...] = src
        self._drop_dirty_rows(r0, r1)
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
        rows ``[i0, i1)`` and drops their pages.

        Raises :class:`OSError` before touching the mapping when the file
        has been truncated below the matrix size (checked once per call:
        a file shrunk *during* the copy can still fault; the check closes
        the case where it shrinks between bands)."""
        self._check_size()
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
        """Write a column band back block-by-block; each block's pages are
        dropped before its worker faults in the next, so the *resident*
        set never exceeds one I/O block (the dropped pages stay dirty in
        the page cache until kernel writeback or the closing ``flush()``).
        ``copy`` permutes on the way, as in :meth:`load_cols`: a block
        writes only mapped rows ``[i0, i1)``.  A truncated file raises
        :class:`OSError` first, as in :meth:`load_cols`."""
        self._check_size()
        width = c1 - c0
        bview = band.reshape(self.rows, width)
        view = self.view
        map_addr, band_addr = view.ctypes.data, bview.ctypes.data

        def block(i0: int, i1: int, w: int) -> None:
            if copy is None:
                view[i0:i1, c0:c1] = bview[i0:i1]
            else:
                copy("store", map_addr, band_addr, i0, i1, w)
            self._drop_dirty_rows(i0, i1)

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
