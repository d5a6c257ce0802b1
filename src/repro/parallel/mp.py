"""Multiprocess shared-memory execution backend (Section 5.1, real cores).

The thread backend overlaps only while numpy's gather kernels hold the GIL
released; the Python-side index arithmetic and pass orchestration
serialize.  This backend runs each pass's disjoint row/column chunks as a
true parallel-for on a persistent process pool:

* the matrix lives in a :class:`~repro.parallel.shm.SharedArray` segment
  every worker maps;
* only ``(name, shape, dtype, pass, chunk)`` descriptors cross the process
  boundary — workers rebuild decompositions and reduced equations from the
  descriptor and cache them per shape, so no live numpy closure is ever
  pickled;
* the inter-pass barrier is :meth:`MpExecutor.run_chunks`, with the same
  failure contract as the thread executor: first failure cancels what has
  not started, waits for in-flight chunks, and raises
  :class:`~repro.parallel.executor.PassExecutionError` — the chunk
  rectangles are the ones the PR-2 racecheck proves disjoint, so the
  static race-freedom proof carries over unchanged.

Start method: ``forkserver`` by default (where available).  The parent is
routinely multi-threaded by the time a pool spins up (serving workers, the
metrics lock), and ``fork`` from a threaded process can inherit a lock
mid-acquisition and deadlock the child; ``forkserver`` forks from a clean
single-threaded template instead.  Override with ``REPRO_MP_START``
(``fork``/``spawn``/``forkserver``).

Serving integration: :class:`ProcessWorkerHost` executes one batched group
per task against shared-memory staging.  Each worker process owns its own
plan cache (plans rebuild from their cache key on first use), records into
its own metrics registry around the task, and returns the snapshot delta;
the parent merges it into the process-wide registry so ``GET /metrics``
and ``repro stats`` stay truthful.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import (
    FIRST_EXCEPTION,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from ..core.indexing import Decomposition
from ..core.transpose import choose_algorithm
from . import shm as shm_mod
from .executor import PassExecutionError
from .partition import balanced_chunks

__all__ = [
    "MpExecutor",
    "MpTranspose",
    "ProcessWorkerHost",
    "WorkerCrashedError",
    "default_start_method",
]

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()

_metrics = None
_trace = None


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


class WorkerCrashedError(RuntimeError):
    """A worker process died mid-task (segfault, ``os._exit``, OOM-kill).

    The pool has been rebuilt by the time this propagates; nothing was
    fulfilled and shared-memory inputs were only read, so retrying the
    task is safe — the serving layer's retry-once absorbs exactly this.
    """


def default_start_method() -> str:
    """Pick the multiprocessing start method (``REPRO_MP_START`` overrides).

    ``forkserver`` where available: forking from a multi-threaded parent
    (serving workers, metrics lock holders) can deadlock the child on an
    inherited lock, and ``spawn`` pays a full interpreter + numpy import
    per worker.
    """
    env = os.environ.get("REPRO_MP_START")
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


def _worker_init() -> None:
    """Process-pool initializer: start each worker with a quiet registry.

    Pass/plan instrumentation in a child is invisible to the parent unless
    explicitly shipped back; tasks that want metrics (the serving batch
    task) enable the registry around their run and return the snapshot.
    """
    _runtime_metrics().registry.enabled = False


#: child-side cache: (vm, vn, strength_reduced) -> (Decomposition, red|None)
_shape_state: dict = {}
_SHAPE_STATE_MAX = 16


def _shape_setup(vm: int, vn: int, strength_reduced: bool):
    key = (vm, vn, bool(strength_reduced))
    hit = _shape_state.get(key)
    if hit is None:
        from ..strength.reduced import ReducedEquations

        dec = Decomposition.of(vm, vn)
        red = None
        if strength_reduced:
            try:
                red = ReducedEquations(dec)
            except ValueError:
                red = None
        if len(_shape_state) >= _SHAPE_STATE_MAX:
            _shape_state.pop(next(iter(_shape_state)))
        hit = _shape_state[key] = (dec, red)
    return hit


def _run_chunk(V, dec, red, pass_name: str, chunk: slice) -> None:
    """Dispatch one pass chunk to the matching gather/rotate kernel."""
    from . import cpu

    if pass_name in ("pre_rotate", "post_rotate"):
        cpu.rotate_chunk(V, dec, -1 if pass_name == "pre_rotate" else 1, chunk)
    elif pass_name in ("row_shuffle", "row_shuffle_r2c"):
        cpu.row_gather_chunk(V, dec, cpu.pass_index_map(pass_name, dec, red), chunk)
    elif pass_name in ("column_shuffle", "inverse_column_shuffle"):
        cpu.col_gather_chunk(V, dec, cpu.pass_index_map(pass_name, dec, red), chunk)
    else:
        raise ValueError(f"unknown pass {pass_name!r}")


def _capture_worker_spans(trace, run) -> dict:
    """Run ``run()`` under a worker-side tracer bound to ``trace`` (a
    ``(trace_id, parent_span_id)`` descriptor) and return the recorded
    spans as wire dicts plus this worker's pid.

    The child's ring is drained first (discarding leftovers from earlier
    tasks, whose parent already collected or abandoned them), so the
    returned spans belong to exactly this task.  Timestamps stay on the
    shared CLOCK_MONOTONIC ``perf_counter`` base, directly comparable to
    the parent's.
    """
    tr = _tracer()
    was_enabled = tr.enabled
    tr.drain()
    tr.enabled = True
    try:
        with tr.activate(_trace.TraceContext(str(trace[0]), int(trace[1]))):
            result = run()
        return {
            "spans": _trace.spans_to_wire(tr.drain()),
            "pid": os.getpid(),
            "result": result,
        }
    finally:
        tr.enabled = was_enabled


def _pass_chunk_task(
    shm_name: str,
    vm: int,
    vn: int,
    dtype_str: str,
    pass_name: str,
    start: int,
    stop: int,
    strength_reduced: bool,
    trace: tuple | None = None,
) -> dict | None:
    """Run one chunk of one pass against the shared segment (child side).

    With a ``trace`` descriptor, the chunk runs inside a ``worker.chunk``
    span and the worker's span ring ships back for the parent to splice;
    without one the task stays result-free (nothing crosses back).
    """
    V = shm_mod.attach_array(shm_name, (vm, vn), dtype_str)
    dec, red = _shape_setup(vm, vn, strength_reduced)
    chunk = slice(int(start), int(stop))
    if trace is None:
        _run_chunk(V, dec, red, pass_name, chunk)
        return None

    def run():
        tr = _tracer()
        with tr.span(
            "worker.chunk", stage=pass_name, start=chunk.start,
            stop=chunk.stop, backend="mp",
        ):
            _run_chunk(V, dec, red, pass_name, chunk)

    out = _capture_worker_spans(trace, run)
    out.pop("result", None)
    return out


def _serve_batch_task(
    shm_name: str,
    m: int,
    n: int,
    order: str,
    dtype_str: str,
    tiles: int,
    fault_flag: str | None = None,
    trace: tuple | None = None,
) -> dict:
    """Execute one batched group in place in the shared staging segment.

    The worker's own plan cache supplies the
    :class:`~repro.core.batched.BatchedTransposePlan` (rebuilt from its
    cache key on first use).  Returns the worker-side metrics snapshot
    delta for the parent to merge; with a ``trace`` descriptor the run is
    additionally wrapped in a ``worker.group`` span and the snapshot
    carries the worker's span ring under ``"spans"`` (plus ``"pid"``) —
    keys the parent pops before :meth:`MetricsRegistry.merge_snapshot`.

    ``fault_flag`` is the crash-injection seam for the kill-a-worker
    tests: ``"always"`` dies on every call; a path dies once, consuming
    the flag file so the retry survives.
    """
    if fault_flag:
        if fault_flag == "always":
            os._exit(17)
        elif os.path.exists(fault_flag):
            os.unlink(fault_flag)
            os._exit(17)
    from ..core.batched import batched_transpose_inplace

    reg = _runtime_metrics().registry
    V = shm_mod.attach_array(shm_name, (int(tiles), int(m) * int(n)), dtype_str)
    was_enabled = reg.enabled
    reg.enabled = True
    reg.reset()
    try:
        if trace is None:
            batched_transpose_inplace(V, m, n, order)
            return reg.snapshot()

        def run():
            tr = _tracer()
            with tr.span(
                "worker.group", m=m, n=n, batch=tiles, backend="mp",
            ):
                batched_transpose_inplace(V, m, n, order)
            return reg.snapshot()

        captured = _capture_worker_spans(trace, run)
        snap = captured.pop("result")
        snap["spans"] = captured["spans"]
        snap["pid"] = captured["pid"]
        return snap
    finally:
        reg.enabled = was_enabled


class MpExecutor:
    """A persistent process pool running descriptor-addressed tasks.

    Mirrors :class:`~repro.parallel.executor.ParallelExecutor`'s barrier
    and failure semantics across a process boundary, and additionally
    survives worker death: a :class:`BrokenProcessPool` rebuilds the pool
    and surfaces as :class:`WorkerCrashedError` (transient — retryable).
    """

    def __init__(self, n_workers: int, start_method: str | None = None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.start_method = start_method or default_start_method()
        self._pool: ProcessPoolExecutor | None = None
        self._make_pool()

    def _make_pool(self) -> None:
        ctx = multiprocessing.get_context(self.start_method)
        if self.start_method == "forkserver":
            try:
                # Import the heavy modules once in the fork template, not
                # once per worker.
                ctx.set_forkserver_preload(["repro.parallel.mp"])
            except Exception:  # noqa: BLE001 — preload is best-effort
                pass
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers, mp_context=ctx, initializer=_worker_init
        )

    def _rebuild(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._make_pool()

    def run_one(self, fn, *args):
        """Run one task to completion; worker death becomes a transient
        :class:`WorkerCrashedError` with the pool already rebuilt."""
        try:
            fut = self._pool.submit(fn, *args)
            return fut.result()
        except BrokenProcessPool as exc:
            self._rebuild()
            raise WorkerCrashedError(
                "worker process died mid-task; pool rebuilt"
            ) from exc

    def run_chunks(self, pass_name: str, fn, tasks: list[tuple[slice, tuple]]) -> list:
        """Barrier-run ``fn(*args)`` for each ``(chunk, args)`` task.

        On success, returns each task's result in submission order (the
        traced chunk task ships its worker-side span ring back this way;
        untraced tasks return ``None``).  On failure: cancel
        not-yet-started chunks, wait for in-flight ones, raise
        :class:`PassExecutionError` for the first failed chunk (worker
        death is wrapped as :class:`WorkerCrashedError` first).
        """
        futures: list[tuple] = []
        submit_exc: BaseException | None = None
        for chunk, args in tasks:
            try:
                futures.append((self._pool.submit(fn, *args), chunk))
            except BrokenProcessPool as exc:
                submit_exc = exc
                break
        done, not_done = wait(
            [f for f, _ in futures], return_when=FIRST_EXCEPTION
        )
        if not_done:
            for f in not_done:
                f.cancel()
            wait(not_done)
        first: tuple[slice, BaseException] | None = None
        for f, chunk in futures:
            if f.cancelled():
                continue
            try:
                exc = f.exception()
            except CancelledError:
                continue
            if exc is not None:
                first = (chunk, exc)
                break
        if first is None and submit_exc is not None:
            first = (tasks[len(futures)][0], submit_exc)
        if first is not None:
            chunk, exc = first
            if isinstance(exc, BrokenProcessPool):
                self._rebuild()
                exc = WorkerCrashedError(
                    "worker process died mid-pass; pool rebuilt"
                )
            raise PassExecutionError(pass_name, chunk, exc) from exc
        return [f.result() for f, _ in futures]

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "MpExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class MpTranspose:
    """Process-backed twin of :class:`~repro.parallel.cpu.ParallelTranspose`.

    The flat buffer is copied into a shared segment, the passes run as
    chunked parallel-fors on the process pool with an inter-pass barrier,
    and the result is copied back out — two extra buffer traversals, which
    is why mp wins only once the per-pass compute dwarfs them (narrow
    dtypes, multiple real cores; docs/PARALLEL.md quantifies).
    """

    def __init__(
        self,
        n_workers: int = 1,
        *,
        strength_reduced: bool = True,
        start_method: str | None = None,
    ):
        self.n_workers = int(n_workers)
        self.strength_reduced = strength_reduced
        self.executor = MpExecutor(n_workers, start_method)

    # -- pass plumbing ---------------------------------------------------------

    def _run_pass(
        self, seg: shm_mod.SharedArray, dec, name: str, total: int,
        parent_span_id: int = 0,
    ) -> None:
        vm, vn = seg.shape
        dtype_str = seg.dtype.str
        tr = _tracer()
        # Ship a (trace_id, parent span id) descriptor with each chunk so
        # worker-side ``worker.chunk`` spans parent under this pass's span;
        # each worker's ring comes back in the task result and splices here.
        trace_desc = None
        if tr.enabled and parent_span_id:
            trace_desc = (tr.current_trace_id(), parent_span_id)
        tasks = [
            (ch, (seg.name, vm, vn, dtype_str, name, ch.start, ch.stop,
                  self.strength_reduced, trace_desc))
            for ch in balanced_chunks(total, self.n_workers)
        ]
        results = self.executor.run_chunks(name, _pass_chunk_task, tasks)
        if trace_desc is not None:
            for res in results:
                if res and res.get("spans"):
                    tr.splice(
                        res["spans"], parent_id=parent_span_id,
                        trace_id=trace_desc[0],
                    )

    def _timed(self, seg: shm_mod.SharedArray, dec, name: str, total: int) -> None:
        """Barrier-run one pass, recording ``parallel.pass.<name>`` and a
        ``pass.<name>`` span exactly like the thread backend."""
        rt = _runtime_metrics()
        tr = _tracer()
        if tr.enabled:
            with tr.span(
                f"pass.{name}", m=dec.m, n=dec.n,
                bytes=2 * seg.array.nbytes,
            ) as sp:
                self._run_pass(seg, dec, name, total,
                               parent_span_id=sp.span_id)
            if rt.registry.enabled:
                rt.registry.observe(f"parallel.pass.{name}", sp.duration_s)
        elif rt.registry.enabled:
            t0 = perf_counter()
            self._run_pass(seg, dec, name, total)
            rt.registry.observe(f"parallel.pass.{name}", perf_counter() - t0)
        else:
            self._run_pass(seg, dec, name, total)

    @staticmethod
    def _validate(buf: np.ndarray, m: int, n: int) -> None:
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(
                "in-place transposition requires a contiguous buffer "
                "(a non-contiguous view would be silently copied, not permuted)"
            )
        if buf.ndim != 1 or buf.shape[0] != m * n:
            raise ValueError(f"buffer must be flat with {m * n} elements")

    def _run(self, buf: np.ndarray, m: int, n: int, kind: str) -> np.ndarray:
        """Stage into shared memory, run the pass schedule, copy back."""
        self._validate(buf, m, n)
        dec = Decomposition.of(m, n)
        rt = _runtime_metrics()
        tr = _tracer()
        t0 = perf_counter() if rt.registry.enabled else 0.0
        passes = 3 if dec.c > 1 else 2
        with tr.span(
            f"op.parallel.{kind}", m=m, n=n, threads=self.n_workers,
            backend="mp", dtype=str(buf.dtype),
        ) if tr.enabled else _NULL_CM:
            seg = shm_mod.SharedArray((m, n), buf.dtype)
            try:
                np.copyto(seg.array, buf.reshape(m, n))
                if kind == "c2r":
                    if dec.c > 1:
                        self._timed(seg, dec, "pre_rotate", dec.c)
                    self._timed(seg, dec, "row_shuffle", dec.m)
                    self._timed(seg, dec, "column_shuffle", dec.n)
                else:
                    self._timed(seg, dec, "inverse_column_shuffle", dec.n)
                    self._timed(seg, dec, "row_shuffle_r2c", dec.m)
                    if dec.c > 1:
                        self._timed(seg, dec, "post_rotate", dec.c)
                np.copyto(buf.reshape(m, n), seg.array)
            finally:
                seg.destroy()
        if rt.registry.enabled:
            # Theorem 6 accounting, same as the thread backend: the
            # staging copies are scratch traffic and do not count.
            rt.registry.record_call(
                f"parallel.{kind}",
                perf_counter() - t0,
                nbytes=2 * passes * buf.nbytes,
                elements=passes * buf.shape[0],
            )
        return buf

    # -- entry points ----------------------------------------------------------

    def c2r(self, buf: np.ndarray, m: int, n: int) -> np.ndarray:
        """Process-parallel C2R transposition of a flat buffer."""
        return self._run(buf, m, n, "c2r")

    def r2c(self, buf: np.ndarray, m: int, n: int) -> np.ndarray:
        """Process-parallel R2C transposition of a flat buffer."""
        return self._run(buf, m, n, "r2c")

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

    def __enter__(self) -> "MpTranspose":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessWorkerHost:
    """Executes serving batch groups on the process pool.

    One task per group: the parent stages the group into shared memory,
    the worker transposes it in place through its own plan cache, and the
    returned metrics snapshot is handed back for the parent registry to
    merge.  Worker death surfaces as the transient
    :class:`WorkerCrashedError` (pool already rebuilt), which the serving
    retry-once contract absorbs.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        start_method: str | None = None,
        fault_flag: str | None = None,
    ):
        self.executor = MpExecutor(n_workers, start_method)
        self.fault_flag = fault_flag

    @property
    def n_workers(self) -> int:
        return self.executor.n_workers

    def execute(
        self, shm_name: str, m: int, n: int, order: str, dtype_str: str,
        tiles: int, trace: tuple | None = None,
    ) -> dict:
        """Run one staged group; returns the worker's metrics snapshot.

        ``trace`` is a ``(trace_id, parent span id)`` descriptor; when
        given, the snapshot additionally carries the worker's spans (see
        :func:`_serve_batch_task`)."""
        return self.executor.run_one(
            _serve_batch_task, shm_name, m, n, order, dtype_str, tiles,
            self.fault_flag, trace,
        )

    def shutdown(self) -> None:
        self.executor.shutdown()
