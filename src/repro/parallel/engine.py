"""The pass engine: every chunked and native pass of the decomposition.

In the paper every pass is a row-wise or column-wise permutation over a
static partition (Sections 2-3; Section 5.1's "perfect load balancing"), so
one schedule describes sequential, threaded and out-of-core execution
alike: per pass, a sequence of bands, each split into ``n_threads`` chunks.
That schedule is :class:`repro.analysis.racecheck.Schedule`;
:func:`proven_schedule` builds it and gates it on
:func:`~repro.analysis.racecheck.check_banded_schedule` once per
``(M, N, bands, threads, algorithm)``, so the race proof covers the object
:func:`run` executes.  :func:`run` takes a band source:

* :class:`InRam` — the in-RAM matrix, one band per pass, a view (no copy);
* :class:`WindowBands` — a :class:`~repro.stream.window.ResidentWindow`,
  one load and one store per band: a row band is the mapping's own view,
  permuted in place; a column or rotation band goes through the window's
  one reused column buffer.

Both are sound for the same reason: the proof shows every chunk reads only
inside its own rectangle, so a band permuted in the mapped pages never
reads what another band writes, and that a column band's load reads only
its mapped columns and writes only the buffer, its store the reverse.

Each chunk runs the compiled kernel when one is given: ``run_pass`` on a
full-stride buffer (the in-RAM matrix, or a row band through a base shifted
back by its first row).  Otherwise the numpy chunk body
(:func:`repro.parallel.cpu.chunk_kernel`) runs it.  A streamed column or
rotation band with a kernel runs no chunks: its load and store are the
kernel's band copies (``run_pass_banded``), which apply the pass on the
way, over the mapped rows the proven schedule's copy footprints give each
worker.  The kernel's scratch is allocated once per :func:`run`, one slot
per worker, before the first pass: worker ``w`` (a chunk's position in the
band's ``balanced_chunks``, or a band copy's ``worker``) runs in slot
``w``.  No kernel call allocates, so a :class:`MemoryError` can only come
from that one allocation, with the buffer or file untouched.

The engine alone owns the ``pass.<name>`` span and the
``<scope>.pass.<name>`` timer (:func:`timed_pass`, which the plans' map and
native bodies call too), the sanitizer scope of every chunked pass, and
the ``stream.band`` and ``worker.chunk`` spans.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache
from time import perf_counter

from .. import native
from ..analysis import racecheck
from ..runtime import metrics, plan_cache
from ..strength.reduced import ReducedEquations
from ..trace import spans
from . import cpu
from .partition import balanced_chunks

__all__ = [
    "BandedScheduleError",
    "InRam",
    "WindowBands",
    "native_kernel",
    "proven_schedule",
    "run",
    "timed_pass",
]

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()


class BandedScheduleError(RuntimeError):
    """A schedule failed its race proof; nothing was executed."""


#: process-wide memo of proven schedules, keyed by
#: ``(M, N, bands, n_threads, algorithm)``: the proof is pure in those, so
#: every executor instance and one-shot entry point shares it.
_PROVEN: dict[tuple, object] = {}


def proven_schedule(m: int, n: int, bands, n_threads: int, algorithm: str):
    """The schedule of the row-major ``m x n`` view, race-proven.

    ``bands`` is one band count for every pass or one per pass.  Raises
    :class:`BandedScheduleError` when the proof fails.
    """
    key = (m, n, bands, n_threads, algorithm)
    schedule = _PROVEN.get(key)
    if schedule is None:
        report = racecheck.check_banded_schedule(m, n, bands, n_threads, algorithm)
        if not report.ok:
            raise BandedScheduleError(
                f"schedule {m}x{n} bands={bands} threads={n_threads} "
                f"[{algorithm}] failed its race proof: "
                f"{'; '.join(str(f) for f in report.failures[:3])}"
            )
        schedule = _PROVEN[key] = report.schedule
    return schedule


def native_kernel(m: int, n: int, algorithm: str, dtype):
    """The compiled kernel for ``algorithm`` on the row-major ``m x n``
    view, or ``None`` (sanitizer on, backend disabled, matrix under the
    size floor, shape ineligible or no toolchain).

    Resolved through the plan cache entry of the equivalent single-matrix
    plan: ``c2r`` on ``(m, n)`` is plan ``(m, n, "C", "c2r")``, ``r2c`` on
    ``(m, n)`` is plan ``(n, m, "C", "r2c")``.  That plan builds no gather
    maps, so a warm lookup is a dict hit.
    """
    if racecheck.sanitizer.enabled or not native.enabled():
        return None
    if m * n < native.min_elems():
        return None
    pm, pn = (m, n) if algorithm == "c2r" else (n, m)
    plan = plan_cache.get_single_plan(pm, pn, "C", algorithm, dtype)
    return native.kernel_for_plan(plan, dtype.itemsize)


@lru_cache(maxsize=256)
def _reduced(dec) -> ReducedEquations | None:
    """Strength-reduced index maps for ``dec`` (Section 4.4), or ``None``
    for shapes outside their range, which keep plain ``//``/``%``."""
    try:
        return ReducedEquations(dec)
    except ValueError:
        return None


# -- band sources ----------------------------------------------------------------


class InRam:
    """The in-RAM matrix as the one band of every pass (a view, no copy)."""

    streamed = False

    def __init__(self, buf, m: int, n: int):
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(
                "in-place transposition requires a contiguous buffer "
                "(a non-contiguous view would be silently copied, not permuted)"
            )
        if buf.ndim != 1 or buf.shape[0] != m * n:
            raise ValueError(f"buffer must be flat with {m * n} elements")
        self.V = buf.reshape(m, n)
        self.nbytes = buf.nbytes
        self.addr = buf.ctypes.data


class WindowBands:
    """A :class:`~repro.stream.window.ResidentWindow`: each band is loaded,
    permuted and stored before the next loads.  A row band is permuted in
    the mapping itself (its load faults it in writable, its store drops
    its pages); a column or rotation band is copied into the window's column
    buffer and back, permuted on the way when ``copy`` is given."""

    streamed = True

    def __init__(self, window):
        self.window = window
        self.nbytes = window.nbytes
        self.itemsize = window.dtype.itemsize

    @staticmethod
    def _cols(axis: str, dec, band: slice) -> tuple[int, int]:
        if axis == "colgroups":
            return band.start * dec.b, band.stop * dec.b
        return band.start, band.stop

    def load(self, axis: str, dec, band: slice, copy=None):
        if axis == "rows":
            return self.window.load_rows(band.start, band.stop)
        return self.window.load_cols(*self._cols(axis, dec, band), copy)

    def store(self, axis: str, dec, band: slice, B, copy=None) -> None:
        if axis == "rows":
            self.window.store_rows(band.start, band.stop, B)
        else:
            self.window.store_cols(*self._cols(axis, dec, band), B, copy)


class _NativePass:
    """Kernel pass ``idx`` and the base address of the call's scratch, whose
    slot ``w`` (``kernel.scratch_bytes`` bytes) is worker ``w``'s."""

    __slots__ = ("kernel", "idx", "base")

    def __init__(self, kernel, idx: int, base: int):
        self.kernel, self.idx, self.base = kernel, idx, base

    def slot(self, worker: int) -> int:
        return self.base + worker * self.kernel.scratch_bytes


class _BandCopy:
    """One streamed column or rotation band's load and store through the
    kernel's copies of its pass, which apply the pass on the way.  The
    workers' mapped rows are the proven schedule's copy footprints
    (``rows[phase][w]``); worker ``w`` copies through its scratch slot."""

    def __init__(self, nat: _NativePass, band: slice, copies):
        self._nat = nat
        self._lo, self._hi = band.start, band.stop
        self.rows = {
            phase: tuple(f.rows for f in copies if f.phase == phase)
            for phase in ("load", "store")
        }

    def __call__(self, phase, map_addr, band_addr, i0, i1, worker) -> None:
        nat = self._nat
        nat.kernel.run_pass_banded(
            nat.idx, phase, map_addr, band_addr, self._lo, self._hi, i0, i1,
            nat.slot(worker),
        )


# -- execution -------------------------------------------------------------------


def timed_pass(scope: str, name: str, attrs: dict, fn, *args):
    """Run ``fn(*args)`` as pass ``name``: a ``pass.<name>`` span carrying
    ``attrs`` while tracing, a ``<scope>.pass.<name>`` timer while metrics
    are on, a plain call otherwise."""
    tr = spans.tracer
    reg = metrics.registry
    if tr.enabled:
        with tr.span(f"pass.{name}", **attrs) as sp:
            out = fn(*args)
        if reg.enabled:
            reg.observe(f"{scope}.pass.{name}", sp.duration_s)
        return out
    if not reg.enabled:
        return fn(*args)
    t0 = perf_counter()
    out = fn(*args)
    reg.observe(f"{scope}.pass.{name}", perf_counter() - t0)
    return out


def run(schedule, source, *, scope: str, kernel=None, executor=None, **attrs) -> int:
    """Run every pass of the proven ``schedule`` over ``source``; returns
    the number of bands run.

    ``kernel`` is the compiled kernel (``None``: numpy chunks).
    ``executor`` is the :class:`~repro.parallel.executor.ParallelExecutor`
    whose worker count the schedule was proven for; its ``parallel_for``
    splits each band into the proof's ``balanced_chunks``.  ``None`` runs
    a one-thread schedule's single chunk per band by a direct call.
    ``scope`` prefixes the timers and sanitizer scopes; ``attrs`` ride on
    each ``pass.<name>`` span.
    """
    threads = 1 if executor is None else executor.n_threads
    if threads != schedule.n_threads:
        raise ValueError(
            f"schedule proven for {schedule.n_threads} threads, "
            f"executor runs {threads}"
        )
    dec = schedule.dec
    tracing = spans.tracer.enabled
    if tracing:
        attrs.update(m=dec.m, n=dec.n, bytes=2 * source.nbytes)
        if kernel is not None:
            attrs["backend"] = "native"
    scratch = None
    if kernel is not None:
        # the call's one allocation, before any element moves
        scratch = kernel.alloc_scratch(threads)
    bands = 0
    for i, ps in enumerate(schedule.passes):
        nat = None
        if kernel is not None:
            # codegen emits the passes in pass_order, one to one
            if kernel.passes[i].parallel_name != ps.name:
                raise RuntimeError(
                    f"kernel pass {i} is {kernel.passes[i].parallel_name!r}, "
                    f"schedule pass {i} is {ps.name!r}"
                )
            nat = _NativePass(kernel, i, scratch.ctypes.data)
        pass_attrs = dict(attrs, bands=len(ps.bands)) if tracing else attrs
        timed_pass(
            scope, ps.name, pass_attrs, _run_pass, ps, source, dec, scope,
            nat, executor,
        )
        bands += len(ps.bands)
    return bands


def _run_pass(ps, source, dec, scope, nat, executor) -> None:
    """One pass band by band, inside a shadow-memory scope when the
    sanitizer is enabled (zero-shift rotation groups are skipped, so
    rotation coverage is at-most-once)."""
    san = racecheck.sanitizer
    if not san.enabled:
        _run_bands(ps, source, dec, nat, executor, None)
        return
    with san.pass_scope(
        f"{scope}.{ps.name}", dec.m * dec.n, full_coverage=ps.axis != "colgroups"
    ):
        _run_bands(ps, source, dec, nat, executor, san)


def _run_bands(ps, source, dec, nat, executor, san) -> None:
    """Every band of one pass over ``source``, in schedule order."""
    if not source.streamed:
        for band in ps.bands:  # in RAM, a band is a view of the whole matrix
            _run_chunks(ps, band, source.V, source.addr, 0, dec, nat, executor, san)
        return
    for bi, band in enumerate(ps.bands):
        _run_band(ps, bi, band, source, dec, nat, executor, san)


def _run_band(ps, bi, band, source, dec, nat, executor, san) -> None:
    """Load one streamed band, run its chunks and store it, inside a
    ``stream.band`` span (the job's progress record), with a counter.  A
    column or rotation band with a kernel runs its band copy instead of
    chunks."""
    tr = spans.tracer
    nbytes = racecheck.axis_rect(
        ps.axis, dec.m, dec.n, ps.total, band.start, band.stop
    ).area * source.itemsize
    with tr.span(
        "stream.band", stage=ps.name, band=bi, bands=len(ps.bands),
        lo=band.start, hi=band.stop, bytes=2 * nbytes,
    ) if tr.enabled else _NULL_CM:
        copy = None
        if nat is not None and ps.copies:
            copy = _BandCopy(nat, band, ps.copies[bi])
        B = source.load(ps.axis, dec, band, copy)
        if copy is None:
            # a row band in the mapped pages, or a column band without a
            # kernel: only a full-stride row band can take the kernel
            _run_chunks(
                ps, band, B, B.ctypes.data, band.start, dec,
                nat if ps.axis == "rows" else None, executor, san,
            )
        source.store(ps.axis, dec, band, B, copy)
    reg = metrics.registry
    if reg.enabled:
        reg.inc("stream.bands")


def _run_chunks(ps, band, B, addr, origin, dec, nat, executor, san) -> None:
    """The chunks of ``band`` on buffer ``B`` at address ``addr``, whose
    first row, column or group is global index ``origin``: the band's one
    chunk by a direct call, or the pool's chunks with one ``worker.chunk``
    span each (carrying the rectangle it owns).  Chunk ``w`` of the
    band's ``balanced_chunks`` runs in scratch slot ``w``."""
    if executor is None:
        _run_chunk(ps, dec, B, addr, origin, nat, san, band.start, band.stop, 0)
        return
    tr = spans.tracer
    axis_rect = racecheck.axis_rect
    total = band.stop - band.start
    worker = {
        ch.start: w
        for w, ch in enumerate(balanced_chunks(total, executor.n_threads))
    } if nat is not None else None

    def body(local: slice) -> None:
        lo, hi = band.start + local.start, band.start + local.stop
        w = 0 if worker is None else worker[local.start]
        if not tr.enabled:
            _run_chunk(ps, dec, B, addr, origin, nat, san, lo, hi, w)
            return
        r = axis_rect(ps.axis, dec.m, dec.n, ps.total, lo, hi)
        with tr.span(
            "worker.chunk", stage=ps.name, r0=r.r0, r1=r.r1, c0=r.c0, c1=r.c1,
            bytes=2 * r.area * B.itemsize,
        ):
            _run_chunk(ps, dec, B, addr, origin, nat, san, lo, hi, w)

    executor.parallel_for(total, body, name=ps.name)


def _run_chunk(ps, dec, B, addr, origin, nat, san, lo, hi, worker) -> None:
    """The global chunk ``[lo, hi)`` of pass ``ps`` on buffer ``B`` (at
    ``addr``; its first row, column or group is ``origin``): through the
    kernel pass in ``worker``'s scratch slot when ``nat`` is given (``B``
    then has the full row stride), else through the numpy chunk body."""
    if nat is not None:
        # full row stride: the in-RAM matrix (origin 0) or a row band,
        # addressed through a base shifted back to global row 0
        shift = origin * dec.n * B.itemsize if ps.axis == "rows" else 0
        nat.kernel.run_pass(nat.idx, addr - shift, lo, hi, nat.slot(worker))
        return
    red = _reduced(dec)
    chunk = slice(lo, hi)
    if san is not None:
        cpu.record_chunk(san, ps.name, dec, red, chunk)
    cpu.chunk_kernel(ps.name, dec, red)(B, chunk, origin)
