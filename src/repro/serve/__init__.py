"""Transposition serving layer (see docs/SERVING.md).

Turns the kernel library into a service: a bounded request queue with
admission control and per-tenant quotas (:mod:`~repro.serve.queue`), a
shape/dtype-coalescing batcher that amortizes plans across same-shape
requests (:mod:`~repro.serve.batcher`), a draining worker pool
(:mod:`~repro.serve.workers`), a stdlib HTTP front end
(:mod:`~repro.serve.server`) and an open-loop load generator
(:mod:`~repro.serve.loadgen`).  ``repro serve`` / ``repro loadtest`` are
the CLI entry points.
"""

from .batcher import Group, ShapeBatcher
from .queue import (
    DeadlineExceededError,
    QueueClosedError,
    QueueFullError,
    QuotaExceededError,
    Request,
    RequestCancelledError,
    RequestQueue,
    TenantQuotas,
    TokenBucket,
    WorkersDeadError,
    compute_retry_after,
)
from .server import ServeConfig, TransposeServer
from .workers import WorkerPool

__all__ = [
    "Request",
    "RequestQueue",
    "QueueFullError",
    "QueueClosedError",
    "DeadlineExceededError",
    "RequestCancelledError",
    "WorkersDeadError",
    "compute_retry_after",
    "Group",
    "ShapeBatcher",
    "WorkerPool",
    "TokenBucket",
    "TenantQuotas",
    "QuotaExceededError",
    "ServeConfig",
    "TransposeServer",
]
