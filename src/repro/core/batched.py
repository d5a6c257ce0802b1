"""Batched in-place transposition.

Data-layout pipelines rarely transpose one matrix: they transpose a batch
of same-shaped matrices (attention heads, image tiles, per-timestep state).
Because the decomposition's passes depend only on the shape, a batch runs
through the same plan as a single matrix (:mod:`repro.core.plan`): each
numpy pass gathers every tile through one map, and each native pass is one
kernel call that loops over the tiles itself.

The buffer layout is the standard batched one: ``k`` matrices of ``m x n``
stored consecutively (``buf[b * m * n : (b + 1) * m * n]`` is matrix ``b``).
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from .plan import BatchedTransposePlan, _runtime_metrics

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
    transpose in the same storage order.  Calls on the same
    ``(m, n, order, dtype)``, whatever their batch count, share one plan
    through the process-wide :mod:`repro.runtime.plan_cache` (the plan
    ``transpose_inplace`` uses too; disable per call with
    ``use_plan_cache=False``, or globally via the cache's own opt-out); each
    call is timed into :mod:`repro.runtime.metrics`.  ``backend`` follows
    :meth:`~repro.core.plan.TransposePlan.execute`.
    """
    rt = _runtime_metrics()
    mn = m * n
    if use_plan_cache and mn and buf.size % mn == 0:
        from ..runtime import plan_cache

        plan = plan_cache.get_batched_plan(m, n, order, algorithm, buf.dtype)
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
            plan.execute_batch(buf, backend=backend)
            rt.registry.record_call(
                "batched_transpose_inplace", perf_counter() - t0
            )
        else:
            plan.execute_batch(buf, backend=backend)
    return buf
