"""repro.trace — structured tracing and profiling.

Where :mod:`repro.runtime.metrics` answers "how long do passes take on
average", this subpackage answers "what happened *inside this transpose*":
per-pass spans with wall time, thread id and attributes; parallel worker
chunks on their own thread lanes; zero-width instants for the decisions
taken about a request (admission, coalescing, dispatch, retries, plan-cache
hit/miss/evict, native fallback); and a bandwidth profiler that joins span
durations with bytes moved to reproduce the paper's per-pass achieved-GB/s
breakdown.

``repro.trace.spans``
    The process-wide :data:`~repro.trace.spans.tracer`: nestable spans in a
    bounded ring buffer, near-zero cost while disabled (``REPRO_TRACE=1``
    starts it enabled, mirroring ``REPRO_SANITIZE``).  Distributed-tracing
    primitives live here too: :class:`~repro.trace.spans.TraceContext`
    activation, wire serialization and cross-process :meth:`splice`.

``repro.trace.export``
    Chrome ``chrome://tracing`` / Perfetto JSON, Prometheus text format
    (counters + log-spaced latency histograms), and a human-readable tree.

``repro.trace.profile``
    Per-pass achieved GB/s and memcpy-normalized fraction from a traced
    run (``repro profile`` on the command line; ``repro trace`` records).

Submodules load lazily (PEP 562) so importing ``repro.trace`` from inside
instrumented core modules never recurses into package initialization.
"""

from __future__ import annotations

import importlib

__all__ = [
    "spans",
    "export",
    "profile",
    "Tracer",
    "SpanRecord",
    "TraceContext",
    "tracer",
    "traced",
    "new_trace_id",
    "to_chrome_trace",
    "from_chrome_trace",
    "to_prometheus",
    "to_tree",
    "to_request_tree",
    "filter_trace",
    "validate_chrome_trace",
    "profile_shape",
    "profile_shapes",
]

_SUBMODULES = ("spans", "export", "profile")

_LAZY = {
    "Tracer": ("spans", "Tracer"),
    "SpanRecord": ("spans", "SpanRecord"),
    "TraceContext": ("spans", "TraceContext"),
    "tracer": ("spans", "tracer"),
    "traced": ("spans", "traced"),
    "new_trace_id": ("spans", "new_trace_id"),
    "to_chrome_trace": ("export", "to_chrome_trace"),
    "from_chrome_trace": ("export", "from_chrome_trace"),
    "to_prometheus": ("export", "to_prometheus"),
    "to_tree": ("export", "to_tree"),
    "to_request_tree": ("export", "to_request_tree"),
    "filter_trace": ("export", "filter_trace"),
    "validate_chrome_trace": ("export", "validate_chrome_trace"),
    "profile_shape": ("profile", "profile_shape"),
    "profile_shapes": ("profile", "profile_shapes"),
}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        modname, attr = _LAZY[name]
        return getattr(importlib.import_module(f".{modname}", __name__), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
