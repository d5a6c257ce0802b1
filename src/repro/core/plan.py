"""Precomputed transpose plans.

Applications that repeatedly transpose same-shaped buffers (e.g. the
AoS/SoA conversions of Section 6.1, or batched FFT-style pipelines) build a
:class:`TransposePlan` once and call :meth:`TransposePlan.execute` per
buffer.

The plan captures the direction decision (C2R vs R2C, ``"auto"`` resolved by
:func:`~repro.core.transpose.choose_algorithm`) and the dimension/order
folding of Theorems 1-2-7.  The numpy fast path also needs ``O(mn)`` int32
gather maps (``d'^{-1}``/``s'``), whose construction costs as much as a pass
over the data; a plan builds them once, on first use, under its own lock.
The compiled native kernel computes every index in closed form (Eq. 26/31)
with ``O(max(m, n))`` scratch, so a plan that only ever runs natively never
holds maps at all.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from . import equations as eq
from .indexing import Decomposition
from .transpose import choose_algorithm

__all__ = ["TransposePlan"]

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


class MapsPlan:
    """Shape identity plus lazily built gather maps.

    The common base of :class:`TransposePlan` and
    :class:`~repro.core.batched.BatchedTransposePlan`.  Construction resolves
    the algorithm and the folded :class:`Decomposition` only; subclasses
    supply ``_build_c2r``/``_build_r2c``, which :attr:`_steps` runs once, on
    first use, under the plan's lock.  Callers that read :attr:`_steps` are
    the numpy execute, the sanitizer, the batched native scratch-failure
    resume and the analysis tools; the native kernel never does.  Step ``i``
    is pass ``i`` of :attr:`schedule`, whose name the spans and timers use.
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
        memoised on first use)."""
        schedule = self._schedule
        if schedule is None:
            schedule = self._schedule = _engine().proven_schedule(
                self.dec.m, self.dec.n, 1, 1, self.algorithm
            )
        return schedule

    @property
    def _steps(self) -> list:
        """The ``(kind, payload)`` passes, building the maps on first use."""
        steps = self._maps
        if steps is None:
            steps = self._materialize()
        return steps

    def _materialize(self) -> list:
        with self._maps_lock:
            if self._maps is not None:
                return self._maps  # another thread built them meanwhile
            t0 = perf_counter()
            build = self._build_c2r if self.algorithm == "c2r" else self._build_r2c
            steps = build(self.dec)
            self._maps = steps
        reg = _runtime_metrics().registry
        if reg.enabled:
            reg.observe("plan.build_maps", perf_counter() - t0)
        # Charged outside the lock: the byte adjustment can evict plans
        # (this one included), and eviction hooks re-enter the plan.
        from ..runtime import plan_cache

        plan_cache.charge(self, self.scratch_bytes)
        return steps

    @property
    def scratch_bytes(self) -> int:
        """Bytes of gather maps resident now (0 until a numpy pass runs)."""
        steps = self._maps
        if steps is None:
            return 0
        return sum(p.nbytes for _, p in steps if isinstance(p, np.ndarray))

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
        never-an-error contract.  Batched and single plans for one
        ``(algorithm, shape, itemsize)`` generate identical C source, so the
        on-disk artifact is shared; only the per-plan memo slot is separate.
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


class TransposePlan(MapsPlan):
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

    # -- plan construction ---------------------------------------------------

    @staticmethod
    def _shrink(idx: np.ndarray) -> np.ndarray:
        """Gather indices are bounded by max(m, n) < 2**31: int32 halves the
        plan's memory footprint (and cache traffic) at no loss."""
        return idx.astype(np.int32, copy=False)

    def _build_c2r(self, dec: Decomposition):
        plan = []
        if dec.c > 1:
            plan.append(("rotate_groups", self._rotation_shifts(dec, inverse=False)))
        plan.append(("gather_cols", self._shrink(eq.dprime_inverse_matrix(dec))))
        plan.append(("gather_rows", self._shrink(eq.sprime_matrix(dec))))
        return plan

    def _build_r2c(self, dec: Decomposition):
        plan = [
            ("gather_rows", self._shrink(eq.sprime_inverse_matrix(dec))),
            ("gather_cols", self._shrink(eq.dprime_matrix(dec))),
        ]
        if dec.c > 1:
            plan.append(("rotate_groups", self._rotation_shifts(dec, inverse=True)))
        return plan

    @staticmethod
    def _rotation_shifts(dec: Decomposition, *, inverse: bool) -> list[tuple[slice, int]]:
        """Per-group ``np.roll`` shifts for the (inverse) pre-rotation."""
        out = []
        for g in range(dec.c):
            k = g % dec.m  # repro-lint: allow(raw-divmod) O(c) plan construction, not per-element
            if k == 0:
                continue
            shift = k if inverse else -k
            out.append((slice(g * dec.b, (g + 1) * dec.b), shift))
        return out

    # -- execution -------------------------------------------------------------

    @staticmethod
    def _apply_step(V: np.ndarray, kind: str, payload) -> None:
        if kind == "rotate_groups":
            for cols, shift in payload:
                V[:, cols] = np.roll(V[:, cols], shift, axis=0)
        elif kind == "gather_cols":
            V[:] = np.take_along_axis(V, payload, axis=1)
        elif kind == "gather_rows":
            V[:] = np.take_along_axis(V, payload, axis=0)
        elif kind == "permute_rows":
            V[:] = V[payload, :]

    @staticmethod
    def _apply_step_sanitized(V: np.ndarray, name: str, kind: str, payload, san) -> None:
        """One step under the shadow-memory sanitizer: report the flat read
        and write footprints (reads logically precede writes in a gather)
        before mutating, so clobbers/double-writes carry pass provenance."""
        m, n = V.shape
        rows = np.arange(m, dtype=np.int64)[:, None]
        cols = np.arange(n, dtype=np.int64)[None, :]
        if kind == "rotate_groups":
            # Zero-shift groups are skipped by construction, so the pass
            # covers at most (not exactly) the whole matrix.
            with san.pass_scope(f"plan.{name}", m * n, full_coverage=False):
                for csl, shift in payload:
                    flat = (rows * n + np.arange(csl.start, csl.stop)).ravel()  # repro-lint: allow(implicit-copy) flat index array, not a matrix view
                    san.record(
                        reads=flat, writes=flat,
                        where=f"cols[{csl.start}:{csl.stop}]",
                    )
                    V[:, csl] = np.roll(V[:, csl], shift, axis=0)
            return
        if kind == "gather_cols":
            reads = rows * n + payload.astype(np.int64)
        elif kind == "gather_rows":
            reads = payload.astype(np.int64) * n + cols
        else:  # permute_rows
            reads = payload.astype(np.int64)[:, None] * n + cols
        with san.pass_scope(f"plan.{name}", m * n):
            san.record(reads=reads, writes=rows * n + cols, where="full matrix")
            TransposePlan._apply_step(V, kind, payload)

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
        numpy gathers.  The native kernel runs as the pass engine's one-band,
        one-chunk case (:mod:`repro.parallel.engine`); a pass whose scratch
        allocation fails is redone by the engine's numpy chunk.  The
        sanitizer always runs on numpy — shadow-memory checking needs to see
        every index.
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
        dec = self.dec
        schedule = self.schedule
        engine = _engine()
        san = _sanitizer()
        if san.enabled:
            if backend == "native":
                _native().record_fallback("sanitizer active")
            V = buf.reshape(dec.m, dec.n)
            attrs = {"m": dec.m, "n": dec.n, "algorithm": self.algorithm}
            for p, (kind, payload) in zip(schedule.passes, self._steps):
                engine.timed_pass(
                    "plan", p.name, attrs, self._apply_step_sanitized,
                    V, p.name, kind, payload, san,
                )
            return buf
        kernel = self._resolve_native(buf, backend)
        if kernel is not None:
            engine.run(
                schedule, engine.InRam(buf, dec.m, dec.n), scope="plan",
                kernel=kernel, algorithm=self.algorithm,
            )
        else:
            # One span per decomposition pass, carrying the 2x read+write
            # byte volume so the profiler can join duration with traffic.
            V = buf.reshape(dec.m, dec.n)
            attrs = {
                "m": dec.m, "n": dec.n, "algorithm": self.algorithm,
                "bytes": 2 * buf.nbytes,
            }
            for p, (kind, payload) in zip(schedule.passes, self._steps):
                engine.timed_pass(
                    "plan", p.name, attrs, self._apply_step, V, kind, payload
                )
        reg = _runtime_metrics().registry
        if reg.enabled:
            passes = len(schedule.passes)
            if kernel is not None:
                reg.inc("native.calls")
            reg.inc("bytes_moved", 2 * passes * buf.nbytes)
            reg.inc("elements_touched", passes * buf.shape[0])
        return buf

    def __repr__(self) -> str:
        return (
            f"TransposePlan(m={self.m}, n={self.n}, order={self.order!r}, "
            f"algorithm={self.algorithm!r})"
        )
