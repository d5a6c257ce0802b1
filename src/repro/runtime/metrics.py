"""Process-wide metrics registry: per-pass timers, histograms and counters.

The paper's evaluation lives and dies on constant factors (Section 7 reports
achieved *bandwidth*, not asymptotics), so the runtime makes the two numbers
that matter — seconds per pass and bytes moved — first-class and always
available.  Every public entry point (``transpose_inplace``, ``transpose``,
``batched_transpose_inplace``, ``TransposePlan.execute``, the parallel
transposer) records into the registry by default; instrumentation collapses
to a single predicate check when disabled.  Every timer observation also
lands in a log-spaced latency histogram (:class:`HistogramStat`), so the
snapshot carries full latency *distributions* — exportable as Prometheus
histograms via :func:`repro.trace.export.to_prometheus` — rather than just
count/total/min/max.

Design constraints:

* **No repro imports.**  This module is imported lazily from ``repro.core``
  and ``repro.parallel``; depending on nothing inside the package keeps the
  import graph acyclic.
* **Thread safety.**  A single lock guards the maps; individual observations
  are O(1) dict updates, far below the cost of any pass they measure.
* **Near-zero overhead when disabled.**  Callers are expected to guard with
  ``if registry.enabled:`` so the disabled path costs one attribute read and
  one branch.

Usage::

    from repro.runtime import metrics

    metrics.registry.observe("plan.pass.row_shuffle", 0.0021)
    metrics.registry.inc("bytes_moved", 2 * buf.nbytes)
    print(metrics.registry.to_json())
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from time import perf_counter

__all__ = [
    "TimerStat",
    "HistogramStat",
    "HISTOGRAM_BOUNDS",
    "MetricsRegistry",
    "registry",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "snapshot",
    "to_json",
]


class TimerStat:
    """Streaming summary of one named timer: count/total/min/max.

    Means are derived at snapshot time; storing only four scalars keeps an
    observation to a handful of float ops (no per-sample allocation).
    """

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def as_dict(self) -> dict:
        mean = self.total_s / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": mean,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


#: Log-spaced latency bucket upper bounds (seconds): 3 per decade from
#: 100 ns to 10 s.  Pass latencies span ~6 decades between a 16x16 toy
#: shape and an out-of-core run; log spacing keeps relative resolution
#: constant across that range where TimerStat's four scalars collapse it.
HISTOGRAM_BOUNDS = tuple(10.0 ** (e / 3.0) for e in range(-21, 4))


class HistogramStat:
    """A histogram over log-spaced bucket bounds (latencies by default).

    ``counts[i]`` holds observations with ``value <= bounds[i]`` and
    ``value > bounds[i-1]`` (per-bucket, not cumulative; the Prometheus
    exporter accumulates at render time).  The final slot is the +Inf
    overflow bucket.  An observation is one bisect over the bounds plus two
    adds — negligible next to any pass it measures.  Value histograms
    (batch sizes, queue depths) pass their own ``bounds``.
    """

    __slots__ = ("bounds", "counts", "count", "sum_s")

    def __init__(self, bounds: tuple[float, ...] = HISTOGRAM_BOUNDS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum_s = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum_s += seconds

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum_s": self.sum_s,
        }


class _Timer:
    """Context manager recording one observation into a registry timer.

    A fresh no-op instance is returned when the registry is disabled, so
    ``with registry.timer(name):`` is always legal.
    """

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry | None", name: str) -> None:
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        if self._registry is not None:
            self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._registry is not None:
            self._registry.observe(self._name, perf_counter() - self._t0)


class MetricsRegistry:
    """Thread-safe named counters and timers with a JSON-able snapshot.

    Counters are monotonically increasing integers (``bytes_moved``,
    ``elements_touched``, ``*.calls``); timers are :class:`TimerStat`
    summaries keyed by pass or entry-point name.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._timers: dict[str, TimerStat] = {}
        self._histograms: dict[str, HistogramStat] = {}
        self._gauges: dict[str, float] = {}
        self._value_hists: dict[str, HistogramStat] = {}
        #: bumped by reset(); snapshots carry it so readers can tell two
        #: snapshots from different epochs apart.
        self._epoch = 0
        self.enabled = enabled

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero on first use)."""
        if not self.enabled:
            # Lock-free fast path: callers that skip the ``registry.enabled``
            # guard still must not contend on the lock (or mutate state).
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def _observe_locked(  # repro-lint: allow(lock-discipline) caller holds self._lock
        self, name: str, seconds: float
    ) -> None:
        """Record into the timer *and* the latency histogram for ``name``.

        Caller holds ``self._lock`` — keeping both updates inside one
        acquisition is what makes timer/histogram counts agree in every
        snapshot (the epoch-consistency invariant the tests pin).
        """
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = TimerStat()
        stat.observe(seconds)
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = HistogramStat()
        hist.observe(seconds)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration observation under timer ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._observe_locked(name, seconds)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to a point-in-time ``value`` (queue depth,
        worker count, …) — last write wins, no history."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def observe_value(
        self, name: str, value: float, bounds: tuple[float, ...] | None = None
    ) -> None:
        """Record a non-latency observation (batch size, bytes, depth) into
        a value histogram.

        ``bounds`` applies on first use of ``name`` (the default log-spaced
        latency bounds are wrong for counts, so callers sizing batches pass
        e.g. ``(1, 2, 4, 8, ...)``); later calls reuse the family's bounds.
        """
        if not self.enabled:
            return
        with self._lock:
            hist = self._value_hists.get(name)
            if hist is None:
                hist = self._value_hists[name] = HistogramStat(
                    tuple(bounds) if bounds is not None else HISTOGRAM_BOUNDS
                )
            hist.observe(value)

    def timer(self, name: str) -> _Timer:
        """``with registry.timer("pass.x"):`` — no-op while disabled."""
        return _Timer(self if self.enabled else None, name)

    def record_call(
        self, name: str, seconds: float, *, nbytes: int = 0, elements: int = 0
    ) -> None:
        """One entry-point invocation: a timing plus traffic counters.

        ``nbytes``/``elements`` follow the Theorem 6 accounting used by
        :class:`repro.core.steps.WorkCounter`: reads and writes against the
        main array both count, scratch traffic does not.
        """
        if not self.enabled:
            return
        with self._lock:
            self._observe_locked(name, seconds)
            self._counters[name + ".calls"] = self._counters.get(name + ".calls", 0) + 1
            if nbytes:
                self._counters["bytes_moved"] = (
                    self._counters.get("bytes_moved", 0) + int(nbytes)
                )
            if elements:
                self._counters["elements_touched"] = (
                    self._counters.get("elements_touched", 0) + int(elements)
                )

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A point-in-time copy of counters, timers and histograms.

        All three maps (and the epoch) are materialized under a *single*
        lock acquisition: a concurrent :meth:`reset` can land before or
        after a snapshot, but never between its maps, so the counter/timer/
        histogram views always describe the same epoch (regression-tested
        in ``tests/runtime/test_metrics.py``).
        """
        with self._lock:
            return {
                "metrics_enabled": self.enabled,
                "epoch": self._epoch,
                "counters": dict(self._counters),
                "timers": {k: v.as_dict() for k, v in self._timers.items()},
                "histograms": {
                    k: v.as_dict() for k, v in self._histograms.items()
                },
                "gauges": dict(self._gauges),
                "value_histograms": {
                    k: v.as_dict() for k, v in self._value_hists.items()
                },
            }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop all recorded data (the enabled flag is untouched)."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()
            self._histograms.clear()
            self._gauges.clear()
            self._value_hists.clear()
            self._epoch += 1


#: The process-wide registry used by every instrumented entry point.
#: ``REPRO_METRICS=0`` in the environment starts it disabled.
registry = MetricsRegistry(enabled=os.environ.get("REPRO_METRICS", "1") != "0")


def enable() -> None:
    registry.enabled = True


def disable() -> None:
    registry.enabled = False


def is_enabled() -> bool:
    return registry.enabled


def reset() -> None:
    registry.reset()


def snapshot() -> dict:
    """Full runtime snapshot: registry metrics plus plan-cache statistics,
    tracer ring-buffer health (``trace.dropped_spans`` and friends), and
    event-log counters."""
    snap = registry.snapshot()
    # Imported here (not at module top) to keep this module dependency-free
    # for the core modules that import it during their own initialization.
    from . import plan_cache

    snap["plan_cache"] = plan_cache.get_plan_cache().stats()

    # Both trace modules are stdlib-only, so these imports cannot cycle.
    from ..trace.spans import tracer

    snap["trace"] = {
        "enabled": tracer.enabled,
        "recorded": tracer.recorded,
        "dropped_spans": tracer.dropped,
        "buffered": len(tracer),
        "capacity": tracer.capacity,
    }
    from ..trace.events import event_log

    snap["events"] = event_log.stats()
    return snap


def to_json(indent: int | None = 2) -> str:
    return json.dumps(snapshot(), indent=indent, sort_keys=True)
