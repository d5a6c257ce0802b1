"""Precomputed transpose plans: one plan per shape, the batch axis free.

The decomposition's passes (the pre-rotation, the row shuffle of Eq. 31
and the column shuffle of Eqs. 32-33) are fixed by ``(m, n)`` alone, so
one plan serves a single matrix and a batch of ``k`` same-shaped matrices
alike: a single matrix is a batch of one tile.  Applications that
repeatedly transpose same-shaped buffers (the AoS/SoA conversions of
Section 6.1, batched FFT-style pipelines, serving) build a plan once and
execute it per buffer; :mod:`repro.runtime.plan_cache` keeps one per
``(m, n, order, algorithm, dtype)``.

The plan captures the direction decision (C2R vs R2C, ``"auto"`` resolved
by :func:`~repro.core.transpose.choose_algorithm`) and the dimension/order
folding of Theorems 1-2-7.  The numpy path gathers every tile through one
flat int32 source-index map per pass, whose construction costs as much as
a pass over the data; a plan builds them once, on first use, under its own
lock.  The compiled native kernel computes every index in closed form
(Eq. 26/31) with ``O(max(m, n))`` scratch, so a plan that only ever runs
natively never holds maps at all.

:class:`TransposePlan` executes one flat ``m * n`` matrix;
:class:`BatchedTransposePlan` executes ``k`` stacked matrices.  Both are the
same plan (:meth:`TransposePlan.execute_batch` is the batched execute), so
a cached plan serves both entry points.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from . import equations as eq
from .indexing import Decomposition
from .transpose import choose_algorithm

__all__ = ["TransposePlan", "BatchedTransposePlan"]

_metrics = None
_racecheck = None
_native_mod = None
_engine_mod = None


def _runtime_metrics():
    """Lazily bind repro.runtime.metrics (kept acyclic w.r.t. package init)."""
    global _metrics
    if _metrics is None:
        from ..runtime import metrics

        _metrics = metrics
    return _metrics


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


def _engine():
    """Lazily bind the pass engine (repro.parallel.engine)."""
    global _engine_mod
    if _engine_mod is None:
        from ..parallel import engine

        _engine_mod = engine
    return _engine_mod


_BACKENDS = (None, "auto", "native", "numpy")

#: each pass's gather map and the axis it gathers along, in pass order
_C2R_STEPS = (
    ("rotate_groups", eq.rotate_r_matrix, "rows"),
    ("gather_cols", eq.dprime_inverse_matrix, "cols"),
    ("gather_rows", eq.sprime_matrix, "rows"),
)
_R2C_STEPS = (
    ("gather_rows", eq.sprime_inverse_matrix, "rows"),
    ("gather_cols", eq.dprime_matrix, "cols"),
    ("rotate_groups", eq.rotate_r_inverse_matrix, "rows"),
)


class _ShapePlan:
    """The plan of one ``(m, n, order, algorithm)``; see the module notes.

    Construction resolves the algorithm and the folded
    :class:`Decomposition` only.  :attr:`_steps` builds the maps once, on
    first use, under the plan's lock: one ``(kind, map)`` per pass, where
    ``map`` is the flat source index within a tile of every element of the
    tile.  Step ``i`` is pass ``i`` of :attr:`schedule`, whose name the
    spans and timers use, and of the native kernel.
    """

    def __init__(self, m: int, n: int, order: str = "C", algorithm: str = "auto"):
        if order not in ("C", "F"):
            raise ValueError(f"unknown order {order!r}")
        if algorithm == "auto":
            algorithm = choose_algorithm(m, n)
        if algorithm not in ("c2r", "r2c"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.m, self.n, self.order, self.algorithm = m, n, order, algorithm
        vm, vn = (m, n) if order == "C" else (n, m)
        self.dec = (
            Decomposition.of(vm, vn) if algorithm == "c2r"
            else Decomposition.of(vn, vm)
        )
        self._maps = None
        self._maps_lock = threading.Lock()
        self._schedule = None

    @property
    def schedule(self):
        """The plan's one-band, one-chunk engine schedule (proven and
        memoised on first use): its pass names and order."""
        schedule = self._schedule
        if schedule is None:
            schedule = self._schedule = _engine().proven_schedule(
                self.dec.m, self.dec.n, 1, 1, self.algorithm
            )
        return schedule

    @property
    def _steps(self) -> list:
        """The ``(kind, map)`` passes, building the maps on first use."""
        steps = self._maps
        if steps is None:
            steps = self._materialize()
        return steps

    def _materialize(self) -> list:
        with self._maps_lock:
            if self._maps is not None:
                return self._maps  # another thread built them meanwhile
            t0 = perf_counter()
            self._maps = steps = self._build_maps(self.dec)
        reg = _runtime_metrics().registry
        if reg.enabled:
            reg.observe("plan.build_maps", perf_counter() - t0)
        # Charged outside the lock: the byte adjustment can evict plans
        # (this one included), and eviction hooks re-enter the plan.
        from ..runtime import plan_cache

        plan_cache.charge(self, self.scratch_bytes)
        return steps

    def _build_maps(self, dec: Decomposition) -> list:
        """Flat int32 gather maps (int64 past 2**31 elements), one per
        pass; the rotation is skipped when ``c == 1``."""
        i = np.arange(dec.m, dtype=np.int64)[:, None]
        j = np.arange(dec.n, dtype=np.int64)[None, :]
        dtype = np.int32 if dec.m * dec.n <= np.iinfo(np.int32).max else np.int64
        steps = []
        for kind, gather, axis in (
            _C2R_STEPS if self.algorithm == "c2r" else _R2C_STEPS
        ):
            if kind == "rotate_groups" and dec.c == 1:
                continue
            idx = gather(dec)
            flat = idx * dec.n + j if axis == "rows" else i * dec.n + idx
            steps.append((kind, flat.astype(dtype).reshape(-1)))  # repro-lint: allow(implicit-copy) a fresh array, not a matrix view
        return steps

    @property
    def scratch_bytes(self) -> int:
        """Bytes of gather maps resident now (0 until a numpy pass runs)."""
        steps = self._maps
        if steps is None:
            return 0
        return sum(idx.nbytes for _, idx in steps)

    def __reduce__(self):
        # Ship the identity, never the maps: a plan crossing a process
        # boundary rebuilds them on first use in the receiving process.
        return (self.__class__, (self.m, self.n, self.order, self.algorithm))

    def _resolve_native(self, buf: np.ndarray, backend: str | None):
        """The compiled kernel this execute should use, or ``None`` for numpy.

        ``None``/``"auto"`` engage the native backend opportunistically
        (toolchain present, buffer large enough, shape eligible);
        ``"native"`` asks for it unconditionally and reports every reason it
        could not be honored (fallback metric + one-time warning) — it still
        returns ``None`` rather than raising, per the backend's
        never-an-error contract.
        """
        if backend == "numpy":
            return None
        native = _native()
        if not native.enabled():
            if backend == "native":
                native.record_fallback("disabled by REPRO_NATIVE=0")
            return None
        if not buf.flags.writeable:
            # The numpy path surfaces its own clean error; never hand a
            # read-only buffer to C code.
            if backend == "native":
                native.record_fallback("read-only buffer")
            return None
        if backend != "native" and buf.size < native.min_elems():
            return None
        return native.kernel_for_plan(self, buf.dtype.itemsize)

    def on_cache_evict(self) -> None:
        """Plan-cache eviction hook: unlink any compiled kernel artifacts."""
        _native().release_plan_kernels(self)

    # -- execution -------------------------------------------------------------

    @staticmethod
    def _apply_step(V: np.ndarray, idx: np.ndarray) -> None:
        """One pass over the ``(k, m*n)`` tiles: each gathers through
        ``idx``."""
        V[:] = np.take(V, idx, axis=1)

    def _pass_sanitized(self, V: np.ndarray, name: str, idx: np.ndarray, san) -> None:
        """One pass inside its own shadow-memory scope.  Each tile's flat
        reads (resolved through the map) and writes are recorded before
        mutating (reads logically precede writes in a gather); tiles are
        disjoint slices of the shadow, so per-tile records carry tile
        provenance without false clobbers."""
        k, mn = V.shape
        reads = idx.astype(np.int64)
        writes = np.arange(mn, dtype=np.int64)
        with san.pass_scope(f"plan.{name}", k * mn):
            for t in range(k):
                san.record(
                    reads=t * mn + reads, writes=t * mn + writes,
                    where=f"tile {t}",
                )
            self._apply_step(V, idx)

    def _run(self, buf: np.ndarray, V: np.ndarray, backend: str | None) -> np.ndarray:
        """Every pass over the ``(k, m*n)`` tile view ``V`` of ``buf``.

        The sanitizer always runs on numpy — shadow-memory checking needs
        to see every index.  One ``pass.<name>`` span and
        ``plan.pass.<name>`` timer per pass; the span carries the 2x
        read+write byte volume of the whole batch.
        """
        dec = self.dec
        passes = self.schedule.passes
        engine = _engine()
        attrs = {
            "m": dec.m, "n": dec.n, "batch": V.shape[0],
            "algorithm": self.algorithm, "bytes": 2 * buf.nbytes,
        }
        san = _sanitizer()
        if san.enabled:
            if backend == "native":
                _native().record_fallback("sanitizer active")
            for p, (_, idx) in zip(passes, self._steps):
                engine.timed_pass(
                    "plan", p.name, attrs, self._pass_sanitized, V, p.name, idx, san
                )
            return buf
        kernel = self._resolve_native(buf, backend)
        if kernel is not None:
            attrs["backend"] = "native"
            addr = buf.ctypes.data
            # the call's one allocation, before any element moves; the
            # tiles of a batch run one after another through its one slot
            scratch = kernel.alloc_scratch()
            slot = scratch.ctypes.data
            for i, p in enumerate(passes):
                engine.timed_pass(
                    "plan", p.name, attrs, kernel.run_pass_batch, i, addr,
                    V.shape[0], slot,
                )
        else:
            for p, (_, idx) in zip(passes, self._steps):
                engine.timed_pass("plan", p.name, attrs, self._apply_step, V, idx)
        reg = _runtime_metrics().registry
        if reg.enabled:
            if kernel is not None:
                reg.inc("native.calls")
            reg.inc("bytes_moved", 2 * len(passes) * buf.nbytes)
            reg.inc("elements_touched", len(passes) * buf.size)
        return buf

    def execute_batch(self, buf: np.ndarray, *, backend: str | None = None) -> np.ndarray:
        """Transpose every matrix of a batch in place; returns ``buf``.

        ``buf`` is a flat buffer of ``k * m * n`` elements or a
        ``(k, m*n)`` / ``(k, m, n)`` array, C-contiguous and writeable;
        matrix ``b`` is ``buf[b * m * n : (b + 1) * m * n]``.  ``backend``
        follows :meth:`TransposePlan.execute`.
        """
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        mn = self.m * self.n
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(
                "batched buffers must be C-contiguous "
                "(a strided view would be silently copied, not permuted)"
            )
        if not buf.flags.writeable:
            raise ValueError(
                "batched buffers must be writeable "
                "(in-place transposition writes the result back)"
            )
        if buf.ndim == 1:
            if buf.shape[0] % mn:  # repro-lint: allow(raw-divmod) one length check per call, not per element
                raise ValueError("flat batch length must be a multiple of m*n")
            V = buf.reshape(-1, mn)
        elif (buf.ndim == 2 and buf.shape[1] == mn) or (
            buf.ndim == 3 and buf.shape[1] * buf.shape[2] == mn
        ):
            V = buf.reshape(buf.shape[0], mn)
        else:
            raise ValueError(
                f"cannot interpret shape {buf.shape} as a batch of "
                f"{self.m}x{self.n} matrices"
            )
        return self._run(buf, V, backend)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(m={self.m}, n={self.n}, "
            f"order={self.order!r}, algorithm={self.algorithm!r})"
        )


class TransposePlan(_ShapePlan):
    """A reusable, shape-specialized in-place transpose.

    Parameters
    ----------
    m, n:
        Logical matrix dimensions before the transpose.
    order:
        ``"C"`` or ``"F"`` storage order of the buffers this plan will see.
    algorithm:
        ``"auto"``, ``"c2r"`` or ``"r2c"``.

    Notes
    -----
    The numpy passes gather through ``O(mn)`` int32 maps — a deliberate
    space/time trade (the strict kernels exist for the ``O(max(m, n))``
    regime).  The maps are built on the first numpy execute, not at
    construction; ``plan.scratch_bytes`` reports what is resident.
    """

    def execute(self, buf: np.ndarray, *, backend: str | None = None) -> np.ndarray:
        """Transpose ``buf`` in place.

        ``buf`` must be flat and contiguous with ``m * n`` elements; after the
        call it holds the ``n x m`` transpose in the plan's storage order.
        Per-pass timings land in :mod:`repro.runtime.metrics` when enabled,
        and one ``pass.*`` span per pass in :mod:`repro.trace` when tracing.

        ``backend`` selects the execution engine: ``None``/``"auto"`` use a
        compiled native kernel when one is (or can be made) available and
        the buffer is large enough, ``"native"`` insists on it (falling back
        to numpy with a warning when impossible), ``"numpy"`` forces the
        numpy gathers.  A native execute allocates its kernel scratch once,
        before the first pass; a :class:`MemoryError` from that allocation
        propagates with ``buf`` untouched.
        """
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if buf.ndim != 1 or buf.shape[0] != self.m * self.n:
            raise ValueError(f"buffer must be flat with {self.m * self.n} elements")
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(
                "in-place transposition requires a contiguous buffer "
                "(a non-contiguous view would be silently copied, not permuted)"
            )
        return self._run(buf, buf.reshape(1, -1), backend)


class BatchedTransposePlan(_ShapePlan):
    """Shape-specialized in-place transpose applied across a batch axis.

    Parameters mirror :class:`TransposePlan`; :meth:`execute` takes a flat
    buffer of ``k * m * n`` elements or a ``(k, m*n)`` / ``(k, m, n)``
    array and transposes every matrix in place (see
    :meth:`TransposePlan.execute_batch`).
    """

    execute = _ShapePlan.execute_batch
