"""Worker pool: threads that turn batched groups into fulfilled requests.

Each worker loops ``next_group -> execute_group`` against the shared
:class:`~repro.serve.batcher.ShapeBatcher`.  Three behaviours matter:

* **Graceful shutdown.**  :meth:`WorkerPool.shutdown` closes the queue and
  then *joins* the workers, which keep draining until the queue and the
  batcher lanes are both empty — accepted requests are executed, never
  dropped.  The pool reports how many requests it served so the server
  can assert ``dropped == 0`` at exit.
* **Retry once on transient failure.**  ``execute_group`` only raises
  before any request in the group is fulfilled and without touching the
  input buffers, so a single retry is always safe.  A second failure
  fails the whole group with the underlying error (each waiting client
  gets it).
* **Named lanes.**  Worker threads are named ``repro-serve-worker-<i>``
  and wrap each group in a ``serve.group`` span, so a Perfetto trace from
  :mod:`repro.trace` shows the queue -> batch -> execute flow per worker
  lane, nested above the ``op.batched_transpose_inplace`` / ``pass.*``
  spans the kernels already emit.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

from ..runtime import metrics
from ..trace import spans
from .batcher import Group, ShapeBatcher

__all__ = ["WorkerPool"]

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()


class WorkerPool:
    """A fixed pool of batch-executing threads with drain-style shutdown."""

    def __init__(
        self,
        batcher: ShapeBatcher,
        n_workers: int = 2,
        *,
        poll_s: float = 0.05,
        name_prefix: str = "repro-serve-worker",
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.batcher = batcher
        self.n_workers = int(n_workers)
        self.poll_s = float(poll_s)
        self.name_prefix = name_prefix
        self._threads: list[threading.Thread] = []
        self._started = False
        self._lock = threading.Lock()
        #: lifetime counters (reads are racy-but-monotonic, fine for stats)
        self.groups_executed = 0
        self.requests_served = 0
        self.retries = 0
        self.group_failures = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self._lock:
            if self._started:
                raise RuntimeError("worker pool already started")
            self._started = True
            for i in range(self.n_workers):
                t = threading.Thread(
                    target=self._run, name=f"{self.name_prefix}-{i}", daemon=True
                )
                self._threads.append(t)
                t.start()
        if metrics.registry.enabled:
            metrics.registry.set_gauge("serve.workers", self.n_workers)
        return self

    def shutdown(self, timeout: float | None = None) -> dict:
        """Close the queue, drain every accepted request, join the workers.

        Returns a summary dict (``requests_served``, ``groups_executed``,
        ``retries``, ``group_failures``, ``drained``).  ``drained`` is
        False only if ``timeout`` expired with a worker still running.
        """
        self.batcher.queue.close()
        drained = True
        for t in self._threads:
            t.join(timeout)
            drained &= not t.is_alive()
        return {
            "requests_served": self.requests_served,
            "groups_executed": self.groups_executed,
            "retries": self.retries,
            "group_failures": self.group_failures,
            "drained": drained,
        }

    @property
    def started(self) -> bool:
        return self._started

    @property
    def alive(self) -> int:
        return sum(t.is_alive() for t in self._threads)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- the worker loop -----------------------------------------------------

    def _run(self) -> None:
        batcher = self.batcher
        queue = batcher.queue
        while True:
            group = batcher.next_group(timeout=self.poll_s)
            if group is None:
                if queue.closed and queue.depth == 0 and batcher.pending == 0:
                    return
                continue
            self._process(group)

    def _process(self, group: Group) -> None:
        tr = spans.tracer
        m, n, _order, dtype = group.key
        # Run the whole group under the lead request's trace context: the
        # serve.group span then parents to that request's serve.request
        # span (recorded on the HTTP handler thread), and everything the
        # batcher/kernels open below nests under serve.group on this stack.
        if tr.enabled and group.requests and group.requests[0].trace_id:
            lead = group.requests[0]
            ctx_cm = tr.activate(
                spans.TraceContext(lead.trace_id, lead.parent_span_id)
            )
        else:
            ctx_cm = _NULL_CM
        with ctx_cm, tr.span(
            "serve.group", m=m, n=n, dtype=dtype, requests=len(group)
        ) if tr.enabled else _NULL_CM:
            for attempt in (1, 2):
                try:
                    served = self.batcher.execute_group(group)
                except Exception as exc:  # noqa: BLE001 — isolation boundary
                    if attempt == 1:
                        # execute_group raises only with every live request
                        # unfulfilled and inputs untouched: retry is safe.
                        self.retries += 1
                        metrics.registry.inc("serve.retries")
                        if tr.enabled:
                            tr.event(
                                "serve.retry", m=m, n=n, attempt=attempt,
                                error=repr(exc),
                            )
                        continue
                    self.group_failures += 1
                    metrics.registry.inc("serve.group_failures")
                    if tr.enabled:
                        tr.event("serve.group_failure", m=m, n=n, error=repr(exc))
                    group.fail_pending(exc)
                    return
                self.groups_executed += 1
                self.requests_served += served
                return
