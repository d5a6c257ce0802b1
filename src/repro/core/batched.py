"""Batched in-place transposition.

Data-layout pipelines rarely transpose one matrix: they transpose a batch
of same-shaped matrices (attention heads, image tiles, per-timestep state).
Because the decomposition's gather maps depend only on the shape, a batch
shares one :class:`~repro.core.plan.TransposePlan`-style set of index maps
(built lazily, on the first numpy execute), and the passes apply to all
matrices at once as 3-D gathers — the batch dimension rides along for free.
The compiled native kernel loops over the tiles itself and needs no maps.

The buffer layout is the standard batched one: ``k`` matrices of ``m x n``
stored consecutively (``buf[b * m * n : (b + 1) * m * n]`` is matrix ``b``).
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from . import equations as eq
from .indexing import Decomposition
from .plan import _BACKENDS, MapsPlan, _engine, _native, _runtime_metrics, _sanitizer

__all__ = [
    "BatchedTransposePlan",
    "batched_transpose_inplace",
    "validate_batch_member",
]

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()

_trace = None


def _tracer():
    """Lazily bind the process-wide structured tracer (repro.trace.spans)."""
    global _trace
    if _trace is None:
        from ..trace import spans

        _trace = spans
    return _trace.tracer


def validate_batch_member(
    buf: np.ndarray,
    m: int,
    n: int,
    dtype: np.dtype | None = None,
    *,
    count: int = 1,
    require_writeable: bool = True,
) -> None:
    """Check one request buffer is safe to coalesce into an ``m x n`` batch.

    The batched gather path shares a single staging buffer across requests,
    so every member must be exactly ``count`` stacked ``m * n``-element
    matrices with the batch's dtype; a strided view or a byte-swapped/
    foreign dtype would be silently *copied* into the batch and the
    caller's buffer left untouched — the same latent bug class the PR-1
    contiguity guards close for the single-matrix paths.  Raises
    :class:`ValueError` naming the offending property instead.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if buf.ndim not in (1, 2):
        raise ValueError(
            f"batch member must be a flat or 2-D array, got {buf.ndim}-D"
        )
    if buf.size != count * m * n:
        raise ValueError(
            f"batch member has {buf.size} elements; {count} stacked "
            f"{m}x{n} matrices need {count * m * n}"
        )
    if buf.ndim == 2 and buf.shape not in ((m, n), (count, m * n)):
        raise ValueError(
            f"batch member shape {buf.shape} matches neither ({m}, {n}) "
            f"nor ({count}, {m * n})"
        )
    if not buf.flags["C_CONTIGUOUS"]:
        raise ValueError(
            "batch member must be C-contiguous (a strided view would be "
            "silently copied into the batch, not transposed in place)"
        )
    if require_writeable and not buf.flags.writeable:
        raise ValueError(
            "batch member is read-only; in-place transposition must be "
            "able to write the result back"
        )
    if dtype is not None and buf.dtype != np.dtype(dtype):
        raise ValueError(
            f"batch member dtype {buf.dtype} does not match the batch "
            f"dtype {np.dtype(dtype)} (mixed-dtype groups cannot share a "
            "staging buffer without a silent conversion copy)"
        )


class BatchedTransposePlan(MapsPlan):
    """Shape-specialized in-place transpose applied across a batch axis.

    Parameters mirror :class:`~repro.core.plan.TransposePlan`; ``execute``
    takes either a flat buffer of ``k * m * n`` elements or a ``(k, m*n)`` /
    ``(k, m, n)`` array, and transposes every matrix in place.  As there,
    the gather maps are built on the first numpy execute, not at
    construction.
    """

    def _build_c2r(self, dec: Decomposition):
        plan = []
        if dec.c > 1:
            plan.append(("rows3", eq.rotate_r_matrix(dec)[None, :, :]))
        plan.append(("cols3", eq.dprime_inverse_matrix(dec)[None, :, :]))
        plan.append(("rows3", eq.sprime_matrix(dec)[None, :, :]))
        return plan

    def _build_r2c(self, dec: Decomposition):
        plan = [
            ("rows3", eq.sprime_inverse_matrix(dec)[None, :, :]),
            ("cols3", eq.dprime_matrix(dec)[None, :, :]),
        ]
        if dec.c > 1:
            plan.append(("rows3", eq.rotate_r_inverse_matrix(dec)[None, :, :]))
        return plan

    @staticmethod
    def _apply_np(V: np.ndarray, kind: str, idx: np.ndarray) -> None:
        axis = 1 if kind == "rows3" else 2
        V[:] = np.take_along_axis(V, np.broadcast_to(idx, V.shape), axis=axis)

    def _execute_sanitized(self, V: np.ndarray, san) -> None:
        """Run the 3-D gathers under the shadow-memory sanitizer.

        Every batched pass is a full-coverage gather, so each tile's flat
        reads (resolved through the pass's index map) and writes are
        recorded before mutating; tiles are disjoint slices of the shadow,
        so per-tile records carry tile provenance without false clobbers.
        """
        k, m, n = V.shape
        mn = m * n
        rows = np.arange(m, dtype=np.int64)[:, None]
        cols = np.arange(n, dtype=np.int64)[None, :]
        tile_writes = (rows * n + cols).ravel()  # repro-lint: allow(implicit-copy) flat index array, not a matrix view
        attrs = {"m": m, "n": n, "batch": k, "algorithm": self.algorithm}
        for p, (kind, idx) in zip(self.schedule.passes, self._steps):
            if kind == "rows3":
                tile_reads = idx[0].astype(np.int64) * n + cols
            else:  # cols3
                tile_reads = rows * n + idx[0].astype(np.int64)
            tile_reads = tile_reads.ravel()  # repro-lint: allow(implicit-copy) flat index array, not a matrix view
            _engine().timed_pass(
                "batched", p.name, attrs, self._pass_sanitized,
                V, p.name, kind, idx, tile_reads, tile_writes, san,
            )

    def _pass_sanitized(
        self, V, name, kind, idx, tile_reads, tile_writes, san
    ) -> None:
        """One batched pass inside its own shadow-memory scope."""
        k, m, n = V.shape
        mn = m * n
        with san.pass_scope(f"batched.{name}", k * mn):
            for t in range(k):
                base = t * mn
                san.record(
                    reads=base + tile_reads,
                    writes=base + tile_writes,
                    where=f"tile {t}",
                )
            self._apply_np(V, kind, idx)

    def _execute_native(
        self, buf: np.ndarray, V: np.ndarray, kernel, attrs: dict
    ) -> None:
        """Run the compiled kernel across the batch, one tile-batched call
        per pass through the engine's pass helper.

        Scratch failures are positional (see the kernel's return-code
        contract): pass ``i`` reached the tiles before ``exc.tile``, so the
        numpy gathers finish it from there and run every later pass.
        """
        addr = buf.ctypes.data
        k = V.shape[0]
        engine = _engine()
        for i, p in enumerate(self.schedule.passes):
            try:
                engine.timed_pass(
                    "batched", p.name, attrs, kernel.run_pass_batch, i, addr, k
                )
            except MemoryError as exc:
                _native().record_fallback(
                    f"scratch allocation failed at batched pass {i}"
                )
                steps = self._steps
                self._apply_np(V[getattr(exc, "tile", 0):], *steps[i])
                for kind, idx in steps[i + 1:]:
                    self._apply_np(V, kind, idx)
                return

    def execute(self, buf: np.ndarray, *, backend: str | None = None) -> np.ndarray:
        """Transpose every matrix of the batch in place; returns ``buf``.

        ``backend`` follows :meth:`TransposePlan.execute`: ``None``/
        ``"auto"`` use a compiled kernel opportunistically, ``"native"``
        insists (warns and falls back when impossible), ``"numpy"`` forces
        the 3-D gathers.
        """
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        dec = self.dec
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
            if buf.shape[0] % mn:
                raise ValueError("flat batch length must be a multiple of m*n")
            V = buf.reshape(-1, dec.m, dec.n)
        elif buf.ndim == 2 and buf.shape[1] == mn:
            V = buf.reshape(buf.shape[0], dec.m, dec.n)
        elif buf.ndim == 3 and buf.shape[1] * buf.shape[2] == mn:
            V = buf.reshape(buf.shape[0], dec.m, dec.n)
        else:
            raise ValueError(
                f"cannot interpret shape {buf.shape} as a batch of "
                f"{self.m}x{self.n} matrices"
            )
        san = _sanitizer()
        if san.enabled:
            # Native kernels bypass the shadow hooks: a sanitized run must
            # see every index, so force the numpy gathers (and make the
            # refusal observable when the caller insisted on native).
            if backend == "native":
                _native().record_fallback("sanitizer active")
            self._execute_sanitized(V, san)
            return buf
        # One span per batched pass; the batch dimension rides along, so
        # the byte volume scales with the whole batch buffer.
        attrs = {
            "m": dec.m, "n": dec.n, "batch": V.shape[0],
            "algorithm": self.algorithm, "bytes": 2 * buf.nbytes,
        }
        kernel = self._resolve_native(buf, backend)
        if kernel is not None:
            self._execute_native(buf, V, kernel, dict(attrs, backend="native"))
        else:
            engine = _engine()
            for p, (kind, idx) in zip(self.schedule.passes, self._steps):
                engine.timed_pass("batched", p.name, attrs, self._apply_np, V, kind, idx)
        reg = _runtime_metrics().registry
        if reg.enabled:
            passes = len(self.schedule.passes)
            if kernel is not None:
                reg.inc("native.calls")
            reg.inc("bytes_moved", 2 * passes * buf.nbytes)
            reg.inc("elements_touched", passes * buf.size)
        return buf

    def __repr__(self) -> str:
        return (
            f"BatchedTransposePlan(m={self.m}, n={self.n}, "
            f"order={self.order!r}, algorithm={self.algorithm!r})"
        )


def batched_transpose_inplace(
    buf: np.ndarray,
    m: int,
    n: int,
    order: str = "C",
    *,
    algorithm: str = "auto",
    use_plan_cache: bool = True,
    backend: str | None = None,
) -> np.ndarray:
    """One-shot batched transpose (see :class:`BatchedTransposePlan`).

    After the call, every ``m x n`` matrix in the batch holds its ``n x m``
    transpose in the same storage order.  Repeated calls on the same
    ``(k, m, n, order, dtype)`` reuse the gather maps through the process-wide
    :mod:`repro.runtime.plan_cache` (disable per call with
    ``use_plan_cache=False``, or globally via the cache's own opt-out); each
    call is timed into :mod:`repro.runtime.metrics`.  ``backend`` follows
    :meth:`BatchedTransposePlan.execute`.
    """
    rt = _runtime_metrics()
    mn = m * n
    if use_plan_cache and mn and buf.size % mn == 0:
        from ..runtime import plan_cache

        plan = plan_cache.get_batched_plan(
            m, n, buf.size // mn, order, algorithm, buf.dtype
        )
    else:
        plan = BatchedTransposePlan(m, n, order, algorithm)
    tr = _tracer()
    with tr.span(
        "op.batched_transpose_inplace", m=m, n=n,
        batch=buf.size // mn if mn else 0, order=order,
        algorithm=plan.algorithm, dtype=str(buf.dtype),
    ) if tr.enabled else _NULL_CM:
        if rt.registry.enabled:
            t0 = perf_counter()
            plan.execute(buf, backend=backend)
            rt.registry.record_call(
                "batched_transpose_inplace", perf_counter() - t0
            )
        else:
            plan.execute(buf, backend=backend)
    return buf
