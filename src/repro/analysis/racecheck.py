"""Static race detection and the opt-in shadow-memory sanitizer.

Two layers, both centred on the same invariant: every parallel pass writes a
*static partition* of the matrix ("perfect load balancing due to the regular
structure", Section 1), so write-set disjointness is decidable from
``(m, n, n_threads)`` alone.

**Static layer** — :func:`banded_schedule` builds the one schedule object
every executor runs: per pass (:func:`pass_order`, :data:`PASS_AXES`), the
sequential bands tiling its iteration range and the
:func:`~repro.parallel.partition.balanced_chunks` thread chunks of each
band.  In-RAM execution is the one-band case, out-of-core execution
(:mod:`repro.stream`) the many-band case.  :func:`check_banded_schedule`
proves that object, per pass:

* the bands tile the iteration range, and each band's chunks tile the band
  (no gap, no overlap),
* the band x chunk write rectangles are pairwise disjoint and cover the
  whole matrix, so a band can be flushed before the next faults in, and
* every chunk's reads stay inside its own rectangle, so no chunk can observe
  another chunk's in-flight writes.

A streamed column or rotation band does not run chunks: it is permuted on
its way through two copies, a *load* (mapping -> band buffer) and a
*store* (band buffer -> mapping), each split over the workers by mapped
row (:class:`CopyFootprint`).  The proof shows, per band and phase, that
the workers' mapped rows tile the matrix rows, that a load reads only its
own mapped rows of the band's columns and writes only the band buffer, and
that a store reads only the band buffer and writes only its own mapped
rows of the band's columns.  The band-buffer side is addressed through a
per-column row map; that it is a bijection
(:func:`repro.analysis.algebra.copy_row_map_check`) is what makes the
workers' buffer writes disjoint and covering.

:func:`check_schedule` is its one-band case.  :mod:`repro.parallel.engine`
runs only schedules this proof has passed.

**Runtime layer** — :class:`Sanitizer` is a shadow memory tracking one pass
at a time: each recorded write increments a per-element counter, each
recorded read checks the element has not already been written *this pass*
(gather passes read pre-pass state by contract — a read of an
already-written element is a read-after-clobber hazard).  At pass end every
element must have been written exactly once (for full-coverage passes).
Violations raise :class:`SanitizerError` carrying pass name, chunk
provenance and sample indices.  Enable with ``REPRO_SANITIZE=1`` or
:func:`enable`; the disabled path costs one attribute read at each hook.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..core.indexing import Decomposition
from ..core.transpose import choose_algorithm
from ..parallel.partition import balanced_chunks

__all__ = [
    "Rect",
    "ChunkFootprint",
    "CopyFootprint",
    "PassFootprints",
    "RaceReport",
    "BandedRaceReport",
    "Schedule",
    "banded_schedule",
    "schedule_footprints",
    "banded_footprints",
    "pass_order",
    "PASS_AXES",
    "axis_rect",
    "check_partition",
    "check_schedule",
    "check_banded_schedule",
    "prove_schedule",
    "COPY_ROW_MAPS",
    "SanitizerError",
    "Sanitizer",
    "sanitizer",
    "enable",
    "disable",
    "is_enabled",
]


# ---------------------------------------------------------------------------
# Static write-footprint analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    """A half-open rectangle ``[r0, r1) x [c0, c1)`` of matrix elements."""

    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def area(self) -> int:
        return max(0, self.r1 - self.r0) * max(0, self.c1 - self.c0)

    def intersects(self, other: "Rect") -> bool:
        return (
            self.r0 < other.r1
            and other.r0 < self.r1
            and self.c0 < other.c1
            and other.c0 < self.c1
        )

    def contains(self, other: "Rect") -> bool:
        return (
            self.r0 <= other.r0
            and other.r1 <= self.r1
            and self.c0 <= other.c0
            and other.c1 <= self.c1
        )

    def as_dict(self) -> dict:
        return {"rows": [self.r0, self.r1], "cols": [self.c0, self.c1]}


@dataclass(frozen=True)
class ChunkFootprint:
    """One worker's read and write rectangles within a pass."""

    label: str
    writes: Rect
    reads: Rect


@dataclass(frozen=True)
class CopyFootprint:
    """One worker's share of one phase of a band copy.

    ``rows`` are the mapped rows the worker drives; ``reads`` and
    ``writes`` are ``(memory, rectangle)`` pairs, the memory ``"map"`` (the
    matrix) or ``"band"`` (the band buffer, in the matrix's column
    coordinates), and ``row_map`` names the per-column row bijection
    between the mapped rows and the band-buffer rows
    (:data:`COPY_ROW_MAPS`)."""

    label: str
    phase: str  # "load" | "store"
    rows: slice
    reads: tuple[str, Rect]
    writes: tuple[str, Rect]
    row_map: str


@dataclass(frozen=True)
class PassFootprints:
    """The static schedule of one pass: its bands and their chunks."""

    name: str
    #: iteration-space extent of the pass (rows, columns or column groups)
    total: int
    chunks: tuple[ChunkFootprint, ...]
    #: iteration axis, as :data:`PASS_AXES` gives it
    axis: str = "rows"
    #: the sequential bands tiling ``range(total)``, in execution order
    bands: tuple[slice, ...] = ()
    #: per band, the workers' load then store footprints of a streamed
    #: band copy (empty for the row-axis passes, permuted in place)
    copies: tuple[tuple[CopyFootprint, ...], ...] = ()


@dataclass(frozen=True)
class Schedule:
    """The bands x chunks schedule of one transposition.

    This is the object :func:`check_banded_schedule` proves and
    :mod:`repro.parallel.engine` runs: per pass, its bands in order, each
    split into ``balanced_chunks(band extent, n_threads)`` chunks, the
    partition :meth:`~repro.parallel.executor.ParallelExecutor.parallel_for`
    hands its workers.  In-RAM execution is the one-band case.
    """

    dec: Decomposition
    algorithm: str
    n_threads: int
    passes: tuple[PassFootprints, ...]


def axis_rect(axis: str, m: int, n: int, total: int, lo: int, hi: int) -> Rect:
    """The element rectangle touched by iterations ``[lo, hi)`` of a pass
    parallelised over ``axis`` (the other axis is always full)."""
    if axis == "rows":
        return Rect(lo, hi, 0, n)
    if axis == "cols":
        return Rect(0, m, lo, hi)
    if axis == "colgroups":
        b = n // total
        return Rect(0, m, lo * b, hi * b)
    raise ValueError(f"unknown axis {axis!r}")


#: pass name -> (iteration axis, extent attribute on the decomposition)
_PASS_AXES: dict[str, tuple[str, str]] = {
    "pre_rotate": ("colgroups", "c"),
    "row_shuffle": ("rows", "m"),
    "column_shuffle": ("cols", "n"),
    "inverse_column_shuffle": ("cols", "n"),
    "row_shuffle_r2c": ("rows", "m"),
    "post_rotate": ("colgroups", "c"),
}


def _pass_order(algorithm: str, c: int) -> list[str]:
    """The barrier-ordered pass names every executor runs."""
    if algorithm == "c2r":
        return (["pre_rotate"] if c > 1 else []) + [
            "row_shuffle",
            "column_shuffle",
        ]
    if algorithm == "r2c":
        return ["inverse_column_shuffle", "row_shuffle_r2c"] + (
            ["post_rotate"] if c > 1 else []
        )
    raise ValueError(f"unknown algorithm {algorithm!r}")


#: pass name -> the per-column row maps of its band load and store:
#: ``rotate`` (group g moves by g mod m rows), ``skew`` (column j by
#: j mod m rows), ``q`` (Eq. 33's static row permutation) or ``identity``
COPY_ROW_MAPS: dict[str, tuple[str, str]] = {
    "pre_rotate": ("rotate", "identity"),
    "column_shuffle": ("skew", "q"),
    "inverse_column_shuffle": ("q", "skew"),
    "post_rotate": ("rotate", "identity"),
}


def _band_copies(name: str, m: int, rect: Rect, bi: int, n_threads: int):
    """The workers' load and store footprints of one band copy: each
    worker drives a balanced share of the mapped rows."""
    maps = COPY_ROW_MAPS[name]
    whole = Rect(0, m, rect.c0, rect.c1)
    out = []
    for phase, row_map in zip(("load", "store"), maps):
        for w, rows in enumerate(balanced_chunks(m, n_threads)):
            mapped = Rect(rows.start, rows.stop, rect.c0, rect.c1)
            reads, writes = (("map", mapped), ("band", whole))
            if phase == "store":
                reads, writes = writes, reads
            out.append(CopyFootprint(
                f"band{bi}/{phase}/w{w}/rows[{rows.start}:{rows.stop}]",
                phase, rows, reads, writes, row_map,
            ))
    return tuple(out)


#: public aliases — the schedule builder below, the pass engine
#: (`repro.parallel.engine`) and the plans' numpy bodies name their passes
#: from the *same* tables, so schedule and proof cannot drift apart.
pass_order = _pass_order
PASS_AXES = _PASS_AXES


def banded_schedule(
    m: int, n: int, n_bands, n_threads: int, algorithm: str = "auto"
) -> Schedule:
    """Build the schedule that runs the ``m x n`` row-major view's passes
    in ``n_bands`` sequential bands (one count for every pass, or one count
    per pass) of ``n_threads`` chunks each.  Chunk labels carry band
    provenance so failures name the offending band."""
    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    dec = Decomposition.of(m, n)
    names = _pass_order(algorithm, dec.c)
    counts = (n_bands,) * len(names) if isinstance(n_bands, int) else tuple(n_bands)
    if len(counts) != len(names):
        raise ValueError(f"{len(counts)} band counts for {len(names)} passes")
    passes = []
    for name, k in zip(names, counts):
        axis, extent_attr = _PASS_AXES[name]
        total = getattr(dec, extent_attr)
        bands = tuple(balanced_chunks(total, k))
        chunks = []
        copies = tuple(
            _band_copies(
                name, m, axis_rect(axis, m, n, total, band.start, band.stop),
                bi, n_threads,
            )
            for bi, band in enumerate(bands)
        ) if name in COPY_ROW_MAPS else ()
        for bi, band in enumerate(bands):
            for ch in balanced_chunks(band.stop - band.start, n_threads):
                lo, hi = band.start + ch.start, band.start + ch.stop
                # Every pass is a gather confined to its own rows/columns:
                # reads and writes share the rectangle.  (The per-element
                # gather indices stay in range by the bijectivity
                # certificates of analysis.algebra.)
                rect = axis_rect(axis, m, n, total, lo, hi)
                chunks.append(
                    ChunkFootprint(f"band{bi}/{axis}[{lo}:{hi}]", rect, rect)
                )
        passes.append(
            PassFootprints(name, total, tuple(chunks), axis, bands, copies)
        )
    return Schedule(dec, algorithm, n_threads, tuple(passes))


def banded_footprints(
    m: int, n: int, n_bands, n_threads: int, algorithm: str = "auto"
) -> list[PassFootprints]:
    """The per-pass footprints of :func:`banded_schedule`."""
    return list(banded_schedule(m, n, n_bands, n_threads, algorithm).passes)


def schedule_footprints(
    m: int, n: int, n_threads: int, algorithm: str = "auto"
) -> list[PassFootprints]:
    """The in-RAM schedule: the one-band case of :func:`banded_footprints`.

    ``m``/``n`` are the row-major *view* dimensions the passes run on (the
    same view ``ParallelTranspose.c2r``/``r2c`` reshape to).
    """
    return banded_footprints(m, n, 1, n_threads, algorithm)


def _check_tiling(chunks, total: int, parts: int) -> tuple[bool, str]:
    """Prove ``chunks`` tile ``range(total)`` exactly: contiguous,
    gap-free, non-empty, at most ``parts`` of them, sizes differing by at
    most one."""
    pos = 0
    sizes = []
    for ch in chunks:
        if ch.start != pos:
            return False, f"gap/overlap at {pos}: chunk starts at {ch.start}"
        if ch.stop <= ch.start:
            return False, f"empty or inverted chunk {ch}"
        sizes.append(ch.stop - ch.start)
        pos = ch.stop
    if pos != total:
        return False, f"chunks end at {pos}, not {total}"
    if len(chunks) > max(parts, 0):
        return False, f"{len(chunks)} chunks exceed parts={parts}"
    if sizes and max(sizes) - min(sizes) > 1:
        return False, f"imbalanced sizes {min(sizes)}..{max(sizes)}"
    return True, f"{len(chunks)} chunks tile range({total})"


def check_partition(total: int, parts: int) -> tuple[bool, str]:
    """Prove ``balanced_chunks(total, parts)`` tiles ``range(total)``."""
    return _check_tiling(balanced_chunks(total, parts), total, parts)


@dataclass
class RaceReport:
    """Disjointness/coverage verdict for one ``(m, n, n_threads)`` schedule."""

    m: int
    n: int
    n_threads: int
    algorithm: str
    passes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "n_threads": self.n_threads,
            "algorithm": self.algorithm,
            "passes": self.passes,
            "ok": self.ok,
            "failures": self.failures,
        }


def _prove_rects(p: PassFootprints, m: int, n: int) -> list[str]:
    """The rectangle side of the race proof for one pass: write rectangles
    pairwise disjoint, covering the whole matrix, reads self-contained.

    Chunks are contiguous along one axis, so sorting is unnecessary:
    pairwise disjointness would reduce to adjacent-interval checks, but the
    explicit rectangle test keeps the proof independent of that observation
    (O(chunks^2) with chunks bounded by bands x threads).
    """
    failures: list[str] = []
    for x in range(len(p.chunks)):
        for y in range(x + 1, len(p.chunks)):
            if p.chunks[x].writes.intersects(p.chunks[y].writes):
                failures.append(
                    f"{p.name}: write overlap between {p.chunks[x].label} "
                    f"and {p.chunks[y].label}"
                )
    covered = sum(ch.writes.area for ch in p.chunks)
    full = Rect(0, m, 0, n)
    if covered != m * n or not all(full.contains(ch.writes) for ch in p.chunks):
        failures.append(f"{p.name}: writes cover {covered} of {m * n} elements")
    for ch in p.chunks:
        if not ch.writes.contains(ch.reads):
            failures.append(
                f"{p.name}: {ch.label} reads outside its write rectangle"
            )
    return failures


def _prove_copies(p: PassFootprints, m: int, n: int, n_threads: int, dec) -> list[str]:
    """The band-copy side of the race proof for one pass: per band and
    phase, the workers' mapped rows tile ``range(m)``; a load reads its own
    mapped rows of the band's columns and writes only the band buffer; a
    store reads only the band buffer and writes its own mapped rows of the
    band's columns; and the row maps between the two sides are certified
    bijections, so the buffer-side writes are disjoint and covering too."""
    from .algebra import copy_row_map_check

    failures: list[str] = []
    if len(p.copies) != len(p.bands):
        return [f"{p.name}: {len(p.copies)} band copies for {len(p.bands)} bands"]
    for band, copies in zip(p.bands, p.copies):
        rect = axis_rect(p.axis, m, n, p.total, band.start, band.stop)
        own = Rect(0, m, rect.c0, rect.c1)
        for phase, mapped_side in (("load", "reads"), ("store", "writes")):
            feet = [f for f in copies if f.phase == phase]
            ok, detail = _check_tiling([f.rows for f in feet], m, n_threads)
            if not ok:
                failures.append(
                    f"{p.name}: band [{band.start}:{band.stop}] {phase} rows: {detail}"
                )
            for f in feet:
                mine = Rect(f.rows.start, f.rows.stop, rect.c0, rect.c1)
                mapped = getattr(f, mapped_side)
                other = f.writes if mapped_side == "reads" else f.reads
                if mapped != ("map", mine):
                    verb = "reads" if phase == "load" else "writes"
                    failures.append(
                        f"{p.name}: {f.label} {verb} {mapped[0]} "
                        f"{mapped[1].as_dict()}, not its own mapped rows "
                        f"{mine.as_dict()} of the band's columns"
                    )
                if other[0] != "band" or not own.contains(other[1]):
                    verb = "writes" if phase == "load" else "reads"
                    failures.append(
                        f"{p.name}: {f.label} {verb} {other[0]} "
                        f"{other[1].as_dict()}, outside the band buffer "
                        f"{own.as_dict()}"
                    )
                check = copy_row_map_check(dec, f.row_map)
                if not check.ok:
                    failures.append(f"{p.name}: {f.label}: {check.name}: {check.detail}")
    return failures


def prove_schedule(schedule: Schedule, n_bands) -> list[str]:
    """Every failure of :func:`check_banded_schedule`'s proof of
    ``schedule`` (empty when it holds); ``n_bands`` is the band count
    asked for, one for every pass or one per pass."""
    dec = schedule.dec
    m, n = dec.m, dec.n
    failures: list[str] = []
    for i, p in enumerate(schedule.passes):
        k = n_bands if isinstance(n_bands, int) else n_bands[i]
        ok, detail = _check_tiling(p.bands, p.total, k)
        if not ok:
            failures.append(f"{p.name}: band partition: {detail}")
        for band in p.bands:
            ok, detail = check_partition(band.stop - band.start, schedule.n_threads)
            if not ok:
                failures.append(
                    f"{p.name}: band [{band.start}:{band.stop}] "
                    f"chunk partition: {detail}"
                )
        failures.extend(_prove_rects(p, m, n))
        if p.name in COPY_ROW_MAPS:
            failures.extend(_prove_copies(p, m, n, schedule.n_threads, dec))
        elif p.copies:
            failures.append(f"{p.name}: a row pass has band copies")
    return failures


@dataclass
class BandedRaceReport(RaceReport):
    """Race verdict for a banded schedule (adds the band count and the
    proven :class:`Schedule` itself)."""

    n_bands: int | tuple = 1
    schedule: Schedule | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        out = super().as_dict()
        out["n_bands"] = self.n_bands
        return out


def check_banded_schedule(
    m: int, n: int, n_bands, n_threads: int, algorithm: str = "auto"
) -> BandedRaceReport:
    """Prove the :func:`banded_schedule` for these arguments race-free.

    Per pass: the bands tile the iteration range, each band's thread chunks
    tile the band, and — across *all* bands together — the write rectangles
    are pairwise disjoint, cover the whole matrix, and every chunk's reads
    stay inside its own rectangle.  Cross-band disjointness is what lets a
    band be flushed to backing store before the next band is faulted in:
    no later chunk can touch a flushed band's elements within the pass.
    For the column-facing passes it also proves each band's two-phase copy
    (:func:`_prove_copies`).  The report carries the proven schedule as
    ``report.schedule``.
    """
    schedule = banded_schedule(m, n, n_bands, n_threads, algorithm)
    report = BandedRaceReport(
        m=m, n=n, n_threads=n_threads, algorithm=schedule.algorithm,
        n_bands=n_bands, schedule=schedule, passes=len(schedule.passes),
    )
    report.failures.extend(prove_schedule(schedule, n_bands))
    return report


def check_schedule(
    m: int, n: int, n_threads: int, algorithm: str = "auto"
) -> BandedRaceReport:
    """Prove the in-RAM schedule for ``(m, n, n_threads)`` race-free: the
    one-band case of :func:`check_banded_schedule`."""
    return check_banded_schedule(m, n, 1, n_threads, algorithm)


# ---------------------------------------------------------------------------
# Shadow-memory sanitizer
# ---------------------------------------------------------------------------

class SanitizerError(RuntimeError):
    """A shadow-memory invariant violation, with pass/index provenance."""

    def __init__(self, kind: str, pass_name: str, where: str, indices: np.ndarray):
        self.kind = kind
        self.pass_name = pass_name
        self.where = where
        self.indices = np.asarray(indices)[:8]
        sample = ", ".join(str(int(v)) for v in self.indices)
        super().__init__(
            f"{kind} in pass {pass_name!r}"
            + (f" ({where})" if where else "")
            + f": flat indices [{sample}]"
            + ("..." if np.asarray(indices).size > 8 else "")
        )


class _PassShadow:
    """Per-pass write counters over a flat buffer of ``size`` elements."""

    __slots__ = ("name", "size", "full_coverage", "writes")

    def __init__(self, name: str, size: int, full_coverage: bool):
        self.name = name
        self.size = size
        self.full_coverage = full_coverage
        self.writes = np.zeros(size, dtype=np.int64)


class Sanitizer:
    """Tracks one executing pass at a time across all worker threads.

    Hooks in the plan executor and the parallel transposer call
    :meth:`record` with the flat indices each chunk is about to read and
    write (reads recorded before the chunk's own writes, mirroring gather
    semantics).  Violations raise immediately in the offending thread so the
    executor's barrier propagates them to the caller.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        # Serializes whole passes: concurrent plan executions from separate
        # user threads take turns, TSAN-style, instead of sharing one shadow.
        # Reentrant so a same-thread nested scope fails loudly, not deadlocks.
        self._exec_lock = threading.RLock()
        self._shadow: _PassShadow | None = None
        self.passes_checked = 0
        self.elements_checked = 0

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @contextmanager
    def pass_scope(self, name: str, size: int, *, full_coverage: bool = True):
        """Scope one pass: zero the shadow, collect records, check coverage.

        ``full_coverage=False`` relaxes the exactly-once check to at-most-once
        (rotation passes legitimately skip zero-shift column groups).  Worker
        threads record into the scope; whole passes from *different* user
        threads serialize on an execution lock.
        """
        self._exec_lock.acquire()
        if self._shadow is not None:
            held = self._shadow.name
            self._exec_lock.release()
            raise SanitizerError(
                "nested pass", name, f"inside {held!r}", np.empty(0, dtype=np.int64)
            )
        with self._lock:
            self._shadow = _PassShadow(name, size, full_coverage)
        try:
            yield self
            shadow = self._shadow
            if shadow is not None and shadow.full_coverage:
                missed = np.flatnonzero(shadow.writes == 0)
                if missed.size:
                    raise SanitizerError("missed write", name, "pass end", missed)
        finally:
            with self._lock:
                self._shadow = None
            self._exec_lock.release()
        self.passes_checked += 1
        self.elements_checked += size

    def record(
        self,
        *,
        reads: np.ndarray | None = None,
        writes: np.ndarray | None = None,
        where: str = "",
    ) -> None:
        """Record one chunk's accesses, in execution order (reads first)."""
        with self._lock:
            shadow = self._shadow
            if shadow is None:
                return  # hooks outside a pass scope are inert
            if reads is not None:
                r = np.asarray(reads, dtype=np.int64).ravel()
                if r.size and (r.min() < 0 or r.max() >= shadow.size):
                    oob = r[(r < 0) | (r >= shadow.size)]
                    raise SanitizerError("out-of-bounds read", shadow.name, where, oob)
                clobbered = r[shadow.writes[r] != 0]
                if clobbered.size:
                    raise SanitizerError(
                        "read-after-clobber", shadow.name, where, clobbered
                    )
            if writes is not None:
                w = np.asarray(writes, dtype=np.int64).ravel()
                if w.size and (w.min() < 0 or w.max() >= shadow.size):
                    oob = w[(w < 0) | (w >= shadow.size)]
                    raise SanitizerError("out-of-bounds write", shadow.name, where, oob)
                shadow.writes += np.bincount(w, minlength=shadow.size)
                doubled = np.flatnonzero(shadow.writes > 1)
                if doubled.size:
                    raise SanitizerError("double write", shadow.name, where, doubled)

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "passes_checked": self.passes_checked,
            "elements_checked": self.elements_checked,
        }


#: The process-wide sanitizer consulted by the execution hooks.
#: ``REPRO_SANITIZE=1`` in the environment starts it enabled.
sanitizer = Sanitizer(enabled=os.environ.get("REPRO_SANITIZE", "0") not in ("0", ""))


def enable() -> None:
    sanitizer.enable()


def disable() -> None:
    sanitizer.disable()


def is_enabled() -> bool:
    return sanitizer.enabled
