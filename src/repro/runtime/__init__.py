"""repro.runtime — the instrumented serving layer.

Production pipelines transpose the *same shapes over and over*; the paper's
cost model (Section 4) prices index-map construction at a full data pass, so
repeated traffic wants plans built once and reused.  This subpackage holds
the two process-wide services that make the library behave like a server
rather than a collection of kernels:

``repro.runtime.plan_cache``
    A thread-safe LRU cache of :class:`~repro.core.plan.TransposePlan`
    objects keyed by ``(m, n, order, algorithm, dtype)`` (one plan serves a
    single matrix and batches of every size), with a byte budget over what
    plans hold (``O(mn)`` int32 maps once a numpy pass has run, compiled
    ``.so`` files) and hit/miss/eviction stats.

``repro.runtime.metrics``
    Per-pass timers, bytes-moved and elements-touched counters, and a JSON
    snapshot exporter (``repro stats`` on the command line).

Both are wired into ``transpose_inplace`` / ``transpose`` /
``batched_transpose_inplace`` / ``ParallelTranspose`` by default; opt out
with ``configure_plan_cache(enabled=False)`` and ``metrics.disable()`` (or
``REPRO_PLAN_CACHE=0`` / ``REPRO_METRICS=0`` in the environment).

Submodules are loaded lazily (PEP 562): importing ``repro.runtime`` from
inside ``repro.core``'s own initialization is safe because nothing here
touches the core package until first attribute access.
"""

from __future__ import annotations

import importlib

__all__ = [
    "metrics",
    "plan_cache",
    "PlanCache",
    "PlanKey",
    "MetricsRegistry",
    "get_plan_cache",
    "configure_plan_cache",
    "clear_plan_cache",
    "plan_cache_stats",
    "metrics_snapshot",
]

_SUBMODULES = ("metrics", "plan_cache")

_LAZY = {
    "PlanCache": ("plan_cache", "PlanCache"),
    "PlanKey": ("plan_cache", "PlanKey"),
    "get_plan_cache": ("plan_cache", "get_plan_cache"),
    "configure_plan_cache": ("plan_cache", "configure"),
    "clear_plan_cache": ("plan_cache", "clear"),
    "plan_cache_stats": ("plan_cache", "stats"),
    "MetricsRegistry": ("metrics", "MetricsRegistry"),
    "metrics_snapshot": ("metrics", "snapshot"),
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
