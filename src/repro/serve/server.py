"""Stdlib HTTP front end for the transposition service.

``http.server`` + ``socketserver`` only — the container ships no web
framework, and none is needed: one binary POST endpoint, two text GET
endpoints.

Endpoints
---------
``POST /transpose``
    Body: the raw ``m * n`` elements — or ``k`` same-shape matrices
    stacked back to back with ``X-Repro-Batch: k`` (client-side
    micro-batching: one HTTP round trip, ``k`` kernel tiles).  Headers:
    ``X-Repro-Rows`` (m), ``X-Repro-Cols`` (n), optional ``X-Repro-Dtype``
    (default float64), ``X-Repro-Order`` (C|F, default C) and
    ``X-Repro-Timeout-Ms`` (a per-request deadline).  Response: the
    ``n x m`` transpose(s), raw, with the swapped shape echoed in the
    same headers.  Optional ``X-Repro-Tenant`` names the quota tenant
    (serve/queue.py).  Errors: 400 (bad shape/dtype/size), 429
    (admission control — ``kind`` distinguishes ``queue-full`` from
    ``quota``; ``Retry-After`` is *computed* from the queue's depth and
    recent drain rate, or from the tenant bucket's refill deficit), 503
    (shutting down, or every worker thread has died), 504 (deadline
    exceeded), 500 (execution failure).

    **Zero-copy ingress** (same-host clients): send
    ``Content-Type: application/json`` with body ``{"segment": name}``
    naming a shared-memory segment (:mod:`repro.parallel.shm`) that holds
    the matrix bytes.  The server *attaches* the segment — no body copy
    over the socket in either direction — runs the same queued/batched
    execution, writes the transpose back into the segment and replies
    with a small JSON ack.  The client keeps segment ownership; the
    server never unlinks.  Extra errors: 404 (``segment-missing`` — no
    such segment), 409 (``segment-mismatch`` — segment smaller than the
    declared shape).
``POST /transpose-file``
    JSON body ``{"path", "rows", "cols", "dtype"?, "order"?,
    "algorithm"?, "window_bytes"?, "threads"?, "backend"?}``: transpose a
    *server-local* raw binary file in place through the banded streaming
    executor (:mod:`repro.stream`) under a bounded resident window.
    Synchronous: the response is the executor's stats JSON.  Progress is
    observable while it runs when tracing is on — the executor records
    one ``stream.band`` span per band under this request's trace id, and
    ``serve.stream_file`` start/done/error instants bracket the run.
    Errors: 400 (bad params), 404 (file missing), 409 (file size does
    not match the declared shape), 500 (execution failure).
``GET /healthz``
    JSON liveness snapshot (queue depth, workers, counters).
``GET /metrics``
    Prometheus 0.0.4 text exposition: everything
    :func:`repro.trace.export.to_prometheus` renders from the runtime
    snapshot, which the serving layer extends with queue-depth/in-flight/
    worker gauges, admission-reject counters, the ``serve.batch_size``
    histogram and ``serve.e2e``/``serve.queue_wait``/``serve.execute``
    latency histograms.

Shutdown is graceful by contract: :meth:`TransposeServer.shutdown` stops
accepting, drains every accepted request through the worker pool, waits
for the in-flight responses to flush, and reports ``dropped`` (accepted
minus responded — zero unless the drain timed out).
"""

from __future__ import annotations

import json
import math
import re
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic, sleep

import numpy as np

from ..parallel import shm
from ..runtime import metrics
from ..trace import spans
from ..trace.export import to_prometheus
from ..trace.spans import TraceContext, new_trace_id
from .batcher import ShapeBatcher
from .queue import (
    DeadlineExceededError,
    QueueClosedError,
    QueueFullError,
    QuotaExceededError,
    Request,
    RequestQueue,
    TenantQuotas,
    WorkersDeadError,
)
from .slo import SloTracker
from .workers import WorkerPool

__all__ = ["ServeConfig", "TransposeServer"]

#: cap on a single request body; a 512 MiB matrix through a Python HTTP
#: stack is a misconfiguration, not a workload
MAX_BODY_BYTES = 512 * 1024 * 1024

#: accepted shape for a client-supplied X-Repro-Trace-Id; anything else is
#: replaced with a freshly minted id (never echoed back raw)
_TRACE_ID_RE = re.compile(r"[A-Za-z0-9_.:-]{1,128}")

#: cap on JSON request bodies (segment descriptors, transpose-file params)
_MAX_JSON_BYTES = 64 * 1024

_NULL_CM = nullcontext()


def _retry_after_header(seconds: float) -> str:
    """HTTP Retry-After carries integral seconds: round up, floor at 1."""
    return str(max(1, math.ceil(seconds)))


@dataclass
class ServeConfig:
    """Tuning knobs for one server instance (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 8077
    workers: int = 2
    queue_size: int = 512
    max_batch: int = 32
    max_wait_ms: float = 2.0
    request_timeout_s: float = 30.0
    #: SLO objectives judged by the live tracker (serve/slo.py): windowed
    #: p99 latency target and the error budget the burn rate is measured
    #: against
    slo_p99_ms: float = 50.0
    slo_error_budget: float = 0.01
    #: per-tenant admission quota in matrices/s for a weight-1.0 tenant
    #: (X-Repro-Tenant header selects the tenant; None disables quotas)
    tenant_rate: float | None = None
    #: token-bucket burst capacity, in seconds of refill
    tenant_burst_s: float = 2.0
    #: weighted admission: a tenant's bucket refills at
    #: ``tenant_rate x weight`` (unlisted tenants weigh 1.0)
    tenant_weights: dict = field(default_factory=dict)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"

    # -- plumbing ------------------------------------------------------------

    @property
    def app(self) -> "TransposeServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.app.verbose:
            super().log_message(format, *args)

    def _reply(
        self, status: int, body, content_type: str, headers: dict | None = None
    ) -> None:
        self._last_status = status
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            trace_id = getattr(self, "_trace_id", "")
            if trace_id:
                self.send_header("X-Repro-Trace-Id", trace_id)
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _reply_error(
        self,
        status: int,
        message: str,
        headers: dict | None = None,
        *,
        kind: str | None = None,
    ) -> None:
        """JSON error reply; ``kind`` tags ambiguous statuses (the two 504
        flavors: ``client-deadline`` vs ``serving-timeout``)."""
        payload: dict = {"error": message}
        if kind is not None:
            payload["kind"] = kind
        body = json.dumps(payload).encode()
        self._reply(status, body, "application/json", headers)

    def _reject_unread_body(
        self, status: int, message: str, *, kind: str | None = None
    ) -> None:
        """Error reply while request-body bytes are still on the socket.

        Keep-alive would parse those unread bytes as the next request line
        and desync the connection, so force a close with the reply.
        """
        self.close_connection = True
        self._reply_error(status, message, {"Connection": "close"}, kind=kind)

    # -- GET: health + metrics -----------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path == "/healthz":
            body = json.dumps(self.app.health(), sort_keys=True).encode()
            self._reply(200, body, "application/json")
        elif self.path == "/statusz":
            body = json.dumps(self.app.statusz(), sort_keys=True).encode()
            self._reply(200, body, "application/json")
        elif self.path == "/metrics":
            text = self.app.render_metrics()
            self._reply(
                200, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
            )
        else:
            self._reply_error(404, f"no such path: {self.path}")

    # -- POST: the work endpoint ---------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        """Thin wrapper around :meth:`_handle_post` that feeds the SLO
        tracker: every ``/transpose`` reply counts, with 5xx statuses
        burning error budget (4xx admission pushback does not)."""
        t0 = monotonic()
        self._last_status = 0
        self._trace_id = ""
        try:
            self._handle_post()
        finally:
            status = self._last_status
            if self.path == "/transpose" and status:
                self.app.slo.observe(monotonic() - t0, ok=status < 500)

    def _handle_post(self) -> None:
        # Mint (or propagate) the request's trace identity first, so every
        # reply — including rejections — carries X-Repro-Trace-Id.
        raw_id = self.headers.get("X-Repro-Trace-Id", "")
        trace_id = raw_id if _TRACE_ID_RE.fullmatch(raw_id) else new_trace_id()
        self._trace_id = trace_id
        # Every span and decision instant the handler records, early
        # rejections included, carries this request's trace id.
        tr = spans.tracer
        with tr.activate(TraceContext(trace_id)) if tr.enabled else _NULL_CM:
            if self.path == "/transpose-file":
                self._handle_transpose_file(trace_id)
            elif self.path == "/transpose":
                self._handle_transpose(trace_id)
            else:
                self._reject_unread_body(404, f"no such path: {self.path}")

    def _handle_transpose(self, trace_id: str) -> None:
        app = self.app
        tr = spans.tracer
        try:
            m = int(self.headers.get("X-Repro-Rows", ""))
            n = int(self.headers.get("X-Repro-Cols", ""))
        except ValueError:
            self._reject_unread_body(
                400, "X-Repro-Rows and X-Repro-Cols must be integers"
            )
            return
        if m < 1 or n < 1:
            self._reject_unread_body(400, "matrix dimensions must be positive")
            return
        try:
            dtype = np.dtype(self.headers.get("X-Repro-Dtype", "float64"))
        except (TypeError, ValueError):
            self._reject_unread_body(400, "unknown X-Repro-Dtype")
            return
        # Numeric fixed-size kinds only.  Anything else — 'object' above
        # all — would let readinto() write wire bytes over PyObject
        # pointers, a remotely triggered interpreter crash.
        if dtype.kind not in "biufc" or dtype.itemsize == 0:
            self._reject_unread_body(
                400, f"X-Repro-Dtype {dtype!s} is not a numeric dtype"
            )
            return
        order = self.headers.get("X-Repro-Order", "C")
        if order not in ("C", "F"):
            self._reject_unread_body(400, "X-Repro-Order must be C or F")
            return
        try:
            tiles = int(self.headers.get("X-Repro-Batch", "1"))
        except ValueError:
            self._reject_unread_body(400, "X-Repro-Batch must be an integer")
            return
        if tiles < 1:
            self._reject_unread_body(400, "X-Repro-Batch must be >= 1")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reject_unread_body(400, "Content-Length required")
            return
        # application/json switches to zero-copy ingress: the body is a
        # tiny {"segment": name} descriptor, the matrix bytes never cross
        # the socket.
        ctype = self.headers.get("Content-Type", "")
        segment_mode = ctype.split(";")[0].strip().lower() == "application/json"
        expected = tiles * m * n * dtype.itemsize
        if segment_mode:
            if not 2 <= length <= _MAX_JSON_BYTES:
                self._reject_unread_body(
                    400, "segment descriptor must be a small JSON body"
                )
                return
        else:
            if length != expected:
                self._reject_unread_body(
                    400,
                    f"body holds {length} bytes; {tiles} x {m}x{n} {dtype} "
                    f"needs {expected}",
                )
                return
            if length > MAX_BODY_BYTES:
                self._reject_unread_body(
                    400, f"body exceeds {MAX_BODY_BYTES} bytes"
                )
                return

        deadline = None
        timeout_ms = self.headers.get("X-Repro-Timeout-Ms")
        if timeout_ms is not None:
            try:
                deadline = monotonic() + float(timeout_ms) / 1e3
            except ValueError:
                self._reject_unread_body(
                    400, "X-Repro-Timeout-Ms must be a number"
                )
                return
            if deadline <= monotonic():
                # Already expired at admission: fail fast with the
                # DeadlineExceededError taxonomy instead of enqueueing and
                # burning the +1.0 s batcher slack on a doomed request.
                metrics.registry.inc("serve.expired_at_admission")
                if tr.enabled:
                    tr.event("serve.reject", reason="expired")
                self._reject_unread_body(
                    504,
                    str(DeadlineExceededError(
                        "X-Repro-Timeout-Ms deadline expired before admission"
                    )),
                    kind="client-deadline",
                )
                return

        segment_name = ""
        seg_view: np.ndarray | None = None
        if segment_mode:
            try:
                doc = json.loads(self.rfile.read(length))
                segment_name = doc["segment"]
            except (ValueError, KeyError, TypeError):
                self._reply_error(400, 'body must be JSON {"segment": name}')
                return
            if not isinstance(segment_name, str) or not segment_name:
                self._reply_error(400, "segment name must be a string")
                return
            # Attach, never copy: the request buffer *is* the client's
            # segment.  The execution path treats request buffers as
            # read-only (the batcher stages results separately), so the
            # segment stays intact until the write-back below.
            try:
                seg_view = shm.attach_array(
                    segment_name, (tiles * m * n,), dtype
                )
            except FileNotFoundError:
                metrics.registry.inc("serve.segment_missing")
                if tr.enabled:
                    tr.event(
                        "serve.reject", reason="segment-missing",
                        segment=segment_name,
                    )
                self._reply_error(
                    404,
                    f"no such shared-memory segment: {segment_name}",
                    kind="segment-missing",
                )
                return
            except (TypeError, ValueError):
                # the mapped segment is smaller than the declared shape
                metrics.registry.inc("serve.segment_mismatch")
                if tr.enabled:
                    tr.event(
                        "serve.reject", reason="segment-mismatch",
                        segment=segment_name,
                    )
                self._reply_error(
                    409,
                    f"segment {segment_name} is smaller than "
                    f"{tiles} x {m}x{n} {dtype}",
                    kind="segment-mismatch",
                )
                return
            buf = seg_view
        else:
            # Read the body straight into a fresh array: no intermediate
            # bytes object.
            buf = np.empty(tiles * m * n, dtype=dtype)
            view = memoryview(buf).cast("B")
            got = 0
            while got < length:
                read = self.rfile.readinto(view[got:])
                if not read:
                    self._reject_unread_body(
                        400, f"truncated body: {got} of {length} bytes"
                    )
                    return
                got += read

        request = Request(
            buf, m, n, order, tiles=tiles, deadline=deadline, trace_id=trace_id
        )
        # The serve.request span is the trace root: the queue/batcher/worker
        # spans all parent under it via the TraceContext the request
        # carries.
        span_cm = tr.span(
            "serve.request", request=request.id, m=m, n=n,
            tiles=tiles, dtype=str(dtype),
        ) if tr.enabled else _NULL_CM
        tenant = self.headers.get("X-Repro-Tenant", "")
        with span_cm as sp:
            if sp is not None:
                request.parent_span_id = sp.span_id
            try:
                admit_depth = app.submit(request, tenant=tenant)
            except QuotaExceededError as exc:
                metrics.registry.inc("serve.rejected_quota")
                if tr.enabled:
                    tr.event(
                        "serve.reject", reason="quota", request=request.id,
                        tenant=tenant,
                    )
                self._reply_error(
                    429, str(exc),
                    {"Retry-After": _retry_after_header(exc.retry_after_s)},
                    kind="quota",
                )
                return
            except QueueFullError as exc:
                metrics.registry.inc("serve.rejected_full")
                if tr.enabled:
                    tr.event("serve.reject", reason="full", request=request.id)
                # Computed, not constant: the queue derived the backoff
                # from its depth and drain rate when it rejected.
                self._reply_error(
                    429, str(exc),
                    {"Retry-After": _retry_after_header(exc.retry_after_s)},
                    kind="queue-full",
                )
                return
            except QueueClosedError as exc:
                metrics.registry.inc("serve.rejected_closed")
                if tr.enabled:
                    tr.event(
                        "serve.reject", reason="closed", request=request.id
                    )
                self._reply_error(503, str(exc))
                return
            if tr.enabled:
                # admit_depth was observed under the queue's lock at
                # admission; re-reading queue.depth here would race with
                # concurrent worker drains and under-report.
                tr.event(
                    "serve.admit", request=request.id, m=m, n=n,
                    tiles=tiles, depth=admit_depth,
                )

            try:
                wait_s = app.config.request_timeout_s
                if deadline is not None:
                    # the batcher fails expired requests; the extra slack
                    # covers one in-flight batch ahead of the expiry check
                    wait_s = min(wait_s, deadline - monotonic() + 1.0)
                result = request.wait(timeout=max(wait_s, 0.001))
            except TimeoutError:
                request.cancel()
                self._reply_error(
                    504, "request timed out in the serving layer",
                    kind="serving-timeout",
                )
                return
            except DeadlineExceededError as exc:
                self._reply_error(504, str(exc), kind="client-deadline")
                return
            except WorkersDeadError as exc:
                self._reply_error(503, str(exc), kind="workers-dead")
                return
            except Exception as exc:  # noqa: BLE001 — report execution errors
                self._reply_error(500, f"{type(exc).__name__}: {exc}")
                return
            finally:
                app.responded_one()

            shape_headers = {
                "X-Repro-Rows": str(n),
                "X-Repro-Cols": str(m),
                "X-Repro-Dtype": str(dtype),
                "X-Repro-Order": order,
                "X-Repro-Batch": str(tiles),
            }
            if seg_view is not None:
                # Write the transpose back into the client's segment and
                # ack with a descriptor — the matrix bytes never touched
                # the socket in either direction.
                seg_view[:] = np.ascontiguousarray(result).reshape(
                    seg_view.shape
                )
                body = json.dumps({
                    "segment": segment_name, "rows": n, "cols": m,
                    "dtype": str(dtype), "order": order, "tiles": tiles,
                }).encode()
                self._reply(200, body, "application/json", shape_headers)
                return
            # memoryview, not tobytes(): the socket writer consumes the
            # staging row directly, skipping one body-sized copy per response
            self._reply(
                200,
                memoryview(np.ascontiguousarray(result)).cast("B"),
                "application/octet-stream",
                shape_headers,
            )


    # -- POST /transpose-file: server-local streamed transpose ---------------

    def _handle_transpose_file(self, trace_id: str) -> None:
        """Transpose a server-local file in place through the banded
        streaming executor, synchronously in this handler thread.

        Long-running by design — progress is watched through the trace
        (one ``stream.band`` span per band under this request's trace id)
        rather than through the response, which arrives once with the
        stats.
        """
        import os

        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reject_unread_body(400, "Content-Length required")
            return
        if not 2 <= length <= _MAX_JSON_BYTES:
            self._reject_unread_body(400, "body must be a small JSON document")
            return
        try:
            doc = json.loads(self.rfile.read(length))
            path = doc["path"]
            rows = int(doc["rows"])
            cols = int(doc["cols"])
        except (ValueError, KeyError, TypeError):
            self._reply_error(
                400, 'body must be JSON with "path", "rows" and "cols"'
            )
            return
        if not isinstance(path, str) or not path:
            self._reply_error(400, "path must be a non-empty string")
            return
        if rows < 1 or cols < 1:
            self._reply_error(400, "matrix dimensions must be positive")
            return
        try:
            dtype = np.dtype(doc.get("dtype", "float64"))
        except (TypeError, ValueError):
            self._reply_error(400, "unknown dtype")
            return
        if dtype.kind not in "biufc" or dtype.itemsize == 0:
            self._reply_error(400, f"dtype {dtype!s} is not a numeric dtype")
            return
        order = doc.get("order", "C")
        if order not in ("C", "F"):
            self._reply_error(400, "order must be C or F")
            return
        algorithm = doc.get("algorithm", "auto")
        if algorithm not in ("auto", "c2r", "r2c"):
            self._reply_error(400, "algorithm must be auto, c2r or r2c")
            return
        # Only the thread backend exists: a client asking for another one
        # is told, not silently served by threads.
        if doc.get("backend", "threads") != "threads":
            self._reply_error(400, "backend must be threads")
            return
        from ..stream import parse_bytes, transpose_file_inplace

        try:
            threads = int(doc.get("threads", 1))
            window = doc.get("window_bytes")
            window = None if window is None else parse_bytes(window)
        except (TypeError, ValueError) as exc:
            self._reply_error(400, str(exc))
            return
        if threads < 1:
            self._reply_error(400, "threads must be >= 1")
            return
        try:
            actual = os.stat(path).st_size
        except (FileNotFoundError, NotADirectoryError):
            self._reply_error(404, f"no such file: {path}")
            return
        except OSError as exc:
            self._reply_error(400, str(exc))
            return
        expected = rows * cols * dtype.itemsize
        if actual != expected:
            self._reply_error(
                409,
                f"{path} holds {actual} bytes; {rows}x{cols} {dtype} "
                f"needs {expected}",
                kind="size-mismatch",
            )
            return

        tr = spans.tracer
        if tr.enabled:
            tr.event(
                "serve.stream_file", phase="start", path=path, rows=rows,
                cols=cols, dtype=str(dtype),
            )
        try:
            stats = transpose_file_inplace(
                path, rows, cols, dtype, order,
                algorithm=algorithm, window_bytes=window,
                n_threads=threads,
            )
        except Exception as exc:  # noqa: BLE001 — report execution errors
            if tr.enabled:
                tr.event(
                    "serve.stream_file", phase="error", path=path,
                    error=f"{type(exc).__name__}: {exc}",
                )
            self._reply_error(500, f"{type(exc).__name__}: {exc}")
            return
        metrics.registry.inc("serve.stream_file")
        if tr.enabled:
            tr.event(
                "serve.stream_file", phase="done", path=path,
                bands=stats["bands"], seconds=round(stats["seconds"], 6),
            )
        stats["trace_id"] = trace_id
        body = json.dumps(stats, sort_keys=True).encode()
        self._reply(200, body, "application/json")


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class TransposeServer:
    """The assembled service: quotas, one queue, one shape batcher and one
    worker pool behind the HTTP front.  Throughput scales with
    ``ServeConfig.workers``; the kernels parallelise inside each
    transpose.

    Usage::

        server = TransposeServer(ServeConfig(port=0)).start()
        ...                       # serve
        summary = server.shutdown()
        assert summary["dropped"] == 0
    """

    def __init__(self, config: ServeConfig | None = None, *, verbose: bool = False):
        self.config = config or ServeConfig()
        self.verbose = verbose
        cfg = self.config
        self.quotas = TenantQuotas(
            cfg.tenant_rate, burst_s=cfg.tenant_burst_s,
            weights=cfg.tenant_weights or None,
        )
        self.queue = RequestQueue(maxsize=cfg.queue_size)
        self.batcher = ShapeBatcher(
            self.queue, max_batch=cfg.max_batch, max_wait_s=cfg.max_wait_ms / 1e3
        )
        self.pool = WorkerPool(self.batcher, cfg.workers)
        self.slo = SloTracker(
            p99_objective_ms=self.config.slo_p99_ms,
            error_budget=self.config.slo_error_budget,
        )
        self._httpd = _HTTPServer((self.config.host, self.config.port), _Handler)
        self._httpd.app = self  # type: ignore[attr-defined]
        self._serve_thread: threading.Thread | None = None
        self._state_lock = threading.Lock()
        self.accepted = 0
        self.responded = 0

    # -- request accounting (called from handler threads) ---------------------

    def submit(self, request: Request, *, tenant: str = "") -> int:
        """Admit ``request``: tenant quota first, so over-quota traffic
        never takes queue space, then the queue.  Returns the queue depth
        captured atomically at admission.  Raises
        :class:`~repro.serve.queue.QuotaExceededError`,
        :class:`~repro.serve.queue.QueueFullError` (both carrying a
        computed ``retry_after_s``) or
        :class:`~repro.serve.queue.QueueClosedError`."""
        self.quotas.admit(tenant, float(request.tiles))
        self.queue.submit(request)
        reg = metrics.registry
        with self._state_lock:
            self.accepted += 1
        if reg.enabled:
            reg.inc("serve.accepted")
            reg.set_gauge("serve.queue_depth", self.queue.depth)
        return request.admit_depth

    def responded_one(self) -> None:
        with self._state_lock:
            self.responded += 1

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "TransposeServer":
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def shutdown(self, timeout: float = 30.0) -> dict:
        """Graceful: stop accepting, drain, flush responses, report.

        ``dropped`` counts accepted requests that never produced a
        response — zero unless ``timeout`` expired mid-drain.
        """
        t_end = monotonic() + timeout
        self._httpd.shutdown()  # stop the accept loop (handlers continue)
        pool_summary = self.pool.shutdown(timeout=max(t_end - monotonic(), 0.1))
        # Handler threads deliver the final responses; wait for them.
        while monotonic() < t_end:
            with self._state_lock:
                if self.responded >= self.accepted:
                    break
            sleep(0.01)
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=1.0)
        with self._state_lock:
            accepted, responded = self.accepted, self.responded
        # Close cached attachments from zero-copy ingress: the client owns
        # the segments; the server must not hold their mappings open.
        shm.detach_all()
        return {
            "accepted": accepted,
            "responded": responded,
            "dropped": accepted - responded,
            "rejected_full": self.queue.rejected_full,
            "rejected_closed": self.queue.rejected_closed,
            # Live shared-memory segments after a full drain mean a leak;
            # CI asserts this is zero after SIGTERM.
            "shm_leaked": len(shm.owned_segments()),
            **pool_summary,
        }

    # -- introspection ---------------------------------------------------------

    def _check_workers(self) -> None:
        """Fail every waiting request once all worker threads have died.

        Nothing would ever dispatch them, so the queue is closed (later
        submits get 503) and the queued and laned requests are failed with
        :class:`~repro.serve.queue.WorkersDeadError` (503) instead of
        waiting out their timeouts.  Called from the ``/healthz`` and
        ``/statusz`` handlers.
        """
        if not self.pool.started or self.pool.alive:
            return
        self.queue.close()
        for r in self.queue.drain_nowait() + self.batcher.drain_lanes():
            r.fail(WorkersDeadError(
                f"all {self.pool.n_workers} worker threads have died; "
                f"request {r.id} was not executed"
            ))

    def health(self) -> dict:
        self._check_workers()
        with self._state_lock:
            accepted, responded = self.accepted, self.responded
        return {
            "status": "draining" if self.queue.closed else "ok",
            "queue_depth": self.queue.depth,
            "queue_maxsize": self.queue.maxsize,
            "pending_batches": self.batcher.pending,
            "workers_alive": self.pool.alive,
            "accepted": accepted,
            "responded": responded,
            "rejected_full": self.queue.rejected_full,
        }

    def statusz(self) -> dict:
        """One-page JSON operational status (the ``/statusz`` endpoint):
        queue + inflight state, worker health, live SLO judgment, plan-cache
        occupancy, native/fallback counters, and trace health."""
        self._check_workers()
        with self._state_lock:
            accepted, responded = self.accepted, self.responded
        snap = metrics.snapshot()
        counters = snap.get("counters", {})
        tr = spans.tracer
        return {
            "status": "draining" if self.queue.closed else "ok",
            "queue": self.queue.stats(),
            "quotas": self.quotas.stats(),
            "inflight": accepted - responded,
            "accepted": accepted,
            "responded": responded,
            "workers": {
                "alive": self.pool.alive,
                "completed": counters.get("serve.completed", 0),
                "retries": counters.get("serve.retries", 0),
                "group_failures": counters.get("serve.group_failures", 0),
            },
            "slo": self.slo.state(),
            "plan_cache": snap.get("plan_cache", {}),
            "native": {
                "calls": counters.get("native.calls", 0),
                "fallback": counters.get("native.fallback", 0),
                "compile": counters.get("native.compile", 0),
                "unsupported": counters.get("native.unsupported", 0),
            },
            "trace": {
                "enabled": tr.enabled,
                "recorded": tr.recorded,
                "dropped_spans": tr.dropped,
                "buffered": len(tr),
            },
        }

    def render_metrics(self) -> str:
        reg = metrics.registry
        if reg.enabled:
            reg.set_gauge("serve.queue_depth", self.queue.depth)
            reg.set_gauge("serve.pending_batches", self.batcher.pending)
            reg.set_gauge("serve.workers", self.pool.alive)
            with self._state_lock:
                inflight = self.accepted - self.responded
            reg.set_gauge("serve.inflight", inflight)
            slo = self.slo.state()
            reg.set_gauge("slo.p99_objective_ms", slo["p99_objective_ms"])
            reg.set_gauge("slo.burn_rate_max", slo["burn_rate_max"])
            reg.set_gauge("slo.alerting", int(slo["alerting"]))
            for win in slo["windows"]:
                suffix = f"{int(win['window_s'])}s"
                reg.set_gauge(f"slo.burn_rate.{suffix}", win["burn_rate"])
                reg.set_gauge(f"slo.p99_ms.{suffix}", win["p99_ms"])
        return to_prometheus(metrics.snapshot())
