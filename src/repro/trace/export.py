"""Exporters for recorded spans and metrics snapshots.

Three formats, three audiences:

``to_chrome_trace``
    Chrome ``chrome://tracing`` / Perfetto JSON (the Trace Event Format).
    Spans become ``ph: "X"`` complete events on one lane per thread, so the
    overlap of parallel worker chunks is visible directly; instant events
    (``cache.hit`` …) become ``ph: "i"`` markers.  Open the file at
    https://ui.perfetto.dev or ``chrome://tracing``.

``to_prometheus``
    Prometheus text exposition format (version 0.0.4) rendered from a
    :func:`repro.runtime.metrics.snapshot`: counters as ``counter`` families,
    the log-spaced latency histograms as real ``histogram`` families with
    cumulative ``le`` buckets, plan-cache statistics as gauges.  Suitable
    for a textfile-collector drop or a scrape endpoint.

``to_tree``
    A human-readable per-thread span tree with durations and attributes —
    the quickest way to read a trace without leaving the terminal.

All three are pure functions over plain data (no repro-internal imports
besides :mod:`repro.trace.spans` types), so they are trivially testable.
"""

from __future__ import annotations

import math
import os
import re
from typing import Iterable

from .spans import SpanRecord

__all__ = [
    "to_chrome_trace",
    "from_chrome_trace",
    "validate_chrome_trace",
    "to_prometheus",
    "validate_prometheus_text",
    "to_tree",
    "filter_trace",
    "to_request_tree",
    "FORMATS",
]

#: formats understood by ``repro trace --format``
FORMATS = ("chrome", "tree", "prometheus")


# ---------------------------------------------------------------------------
# Chrome / Perfetto trace event format
# ---------------------------------------------------------------------------

def to_chrome_trace(spans: Iterable[SpanRecord], *, pid: int | None = None) -> dict:
    """Render spans as a Trace Event Format document (JSON-able dict).

    Timestamps are microseconds relative to the earliest record, one lane
    per (process, thread): each record carries the ``pid`` it was captured
    in, and ``process_name`` / ``thread_name`` metadata events label the
    lanes.  Span identity
    (``span_id``/``parent_id``) and the owning ``trace_id`` travel in
    ``args`` so the document round-trips through
    :func:`from_chrome_trace`.  Zero-width records export as instant
    events.
    """
    spans = list(spans)
    if pid is None:
        pid = os.getpid()
    t_base = min((s.t0 for s in spans), default=0.0)
    events: list[dict] = []
    thread_names: dict[tuple[int, int], str] = {}
    for s in spans:
        s_pid = getattr(s, "pid", None) or pid
        thread_names.setdefault((s_pid, s.tid), s.thread_name)
        ts = (s.t0 - t_base) * 1e6
        args = dict(s.attrs)
        args["span_id"] = s.span_id
        args["parent_id"] = s.parent_id
        trace_id = getattr(s, "trace_id", "")
        if trace_id:
            args["trace_id"] = trace_id
        ev: dict = {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "pid": s_pid,
            "tid": s.tid,
            "ts": ts,
            "args": args,
        }
        if s.is_event:
            ev["ph"] = "i"
            ev["s"] = "t"  # thread-scoped instant marker
        else:
            ev["ph"] = "X"
            ev["dur"] = (s.t1 - s.t0) * 1e6
        events.append(ev)
    for p in sorted({p for p, _ in thread_names}):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": p,
            "tid": 0,
            "args": {"name": "repro" if p == pid else f"repro-worker-{p}"},
        })
    for (p, tid), name in sorted(thread_names.items()):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": p,
            "tid": tid,
            "args": {"name": name},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def from_chrome_trace(doc: dict) -> list[SpanRecord]:
    """Reconstruct :class:`SpanRecord` objects from an exported document.

    The inverse of :func:`to_chrome_trace` for ``X``/``i`` events carrying
    ``args.span_id`` (metadata events and foreign documents' events
    without identity are skipped).  Timestamps come back as seconds
    relative to the document's base — fine for tree views and durations,
    which only ever compare records from the same document.
    """
    records: list[SpanRecord] = []
    for ev in doc.get("traceEvents", ()):
        if not isinstance(ev, dict) or ev.get("ph") not in ("X", "i"):
            continue
        args = ev.get("args") or {}
        if "span_id" not in args:
            continue
        attrs = {
            k: v for k, v in args.items()
            if k not in ("span_id", "parent_id", "trace_id")
        }
        t0 = float(ev.get("ts", 0.0)) * 1e-6
        t1 = t0 + float(ev.get("dur", 0.0)) * 1e-6
        records.append(SpanRecord(
            int(args["span_id"]), int(args.get("parent_id", 0)),
            str(ev.get("name", "")), t0, t1,
            int(ev.get("tid", 0)), "", attrs,
            trace_id=str(args.get("trace_id", "")),
            pid=int(ev.get("pid", 0)),
        ))
    # Give reconstructed records their lane labels back from metadata.
    names: dict[tuple[int, int], str] = {}
    for ev in doc.get("traceEvents", ()):
        if isinstance(ev, dict) and ev.get("ph") == "M" \
                and ev.get("name") == "thread_name":
            names[(int(ev.get("pid", 0)), int(ev.get("tid", 0)))] = \
                str((ev.get("args") or {}).get("name", ""))
    for r in records:
        r.thread_name = names.get((r.pid, r.tid), "worker")
    return records


def validate_chrome_trace(doc: dict) -> dict:
    """Check a Chrome-trace document against the exporter's schema.

    Raises :class:`ValueError` on the first structural problem; returns a
    small summary (event counts by phase) on success.  Used by the tests
    and by the CI ``trace`` step to gate the uploaded artifact.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("trace document must be a dict with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    counts: dict[str, int] = {}
    pids: set = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                raise ValueError(f"event {i} ({ev.get('name')!r}) lacks {field!r}")
        ph = ev["ph"]
        counts[ph] = counts.get(ph, 0) + 1
        pids.add(ev["pid"])
        if ph == "X":
            if "ts" not in ev or "dur" not in ev:
                raise ValueError(f"complete event {i} needs 'ts' and 'dur'")
            if ev["dur"] < 0:
                raise ValueError(f"complete event {i} has negative duration")
        elif ph == "i":
            if "ts" not in ev:
                raise ValueError(f"instant event {i} needs 'ts'")
        elif ph == "M":
            if not isinstance(ev.get("args"), dict) or "name" not in ev["args"]:
                raise ValueError(f"metadata event {i} needs args.name")
        else:
            raise ValueError(f"event {i} has unexpected phase {ph!r}")
    if counts.get("X", 0) == 0:
        raise ValueError("trace contains no complete ('X') span events")
    counts["pids"] = len(pids)
    return counts


# ---------------------------------------------------------------------------
# Prometheus text exposition format
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    out = "".join(c if (c.isalnum() or c == "_") else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_bound(b: float) -> str:
    if math.isinf(b):
        return "+Inf"
    return repr(b)


def to_prometheus(snapshot: dict, *, prefix: str = "repro") -> str:
    """Render a metrics snapshot as Prometheus text format.

    ``snapshot`` is the dict from :func:`repro.runtime.metrics.snapshot`
    (counters + timers + histograms + gauges + value histograms, optionally
    ``plan_cache`` stats).  Counter families get a ``_total`` suffix; every
    latency histogram is one series of the shared
    ``<prefix>_latency_seconds`` family labelled by operation name, with
    cumulative ``le`` buckets as Prometheus requires.  Gauges
    (``serve.queue_depth`` …) render as ``gauge`` families and each value
    histogram (``serve.batch_size`` …) as its own ``histogram`` family,
    since its bucket bounds are not latencies.
    """
    lines: list[str] = []

    for name in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][name]
        metric = f"{prefix}_{_prom_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")

    for name in sorted(snapshot.get("gauges", {})):
        value = snapshot["gauges"][name]
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")

    for name in sorted(snapshot.get("value_histograms", {})):
        h = snapshot["value_histograms"][name]
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        bounds = list(h["bounds"]) + [math.inf]
        cumulative = 0
        for bound, count in zip(bounds, h["counts"]):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_fmt_bound(bound)}"}} {cumulative}'
            )
        lines.append(f"{metric}_sum {h['sum_s']}")
        lines.append(f"{metric}_count {h['count']}")

    hists = snapshot.get("histograms", {})
    if hists:
        metric = f"{prefix}_latency_seconds"
        lines.append(f"# TYPE {metric} histogram")
        for name in sorted(hists):
            h = hists[name]
            label = f'op="{_prom_label(name)}"'
            bounds = list(h["bounds"]) + [math.inf]
            cumulative = 0
            for bound, count in zip(bounds, h["counts"]):
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{{label},le="{_fmt_bound(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(f"{metric}_sum{{{label}}} {h['sum_s']}")
            lines.append(f"{metric}_count{{{label}}} {h['count']}")

    cache = snapshot.get("plan_cache")
    if cache:
        for key in sorted(cache):
            value = cache[key]
            if isinstance(value, bool):
                value = int(value)
            if not isinstance(value, (int, float)):
                continue
            metric = f"{prefix}_plan_cache_{_prom_name(key)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")

    trace = snapshot.get("trace")
    if trace:
        for key, mtype in (("dropped_spans", "counter"), ("recorded", "counter"),
                           ("enabled", "gauge"), ("buffered", "gauge"),
                           ("capacity", "gauge")):
            if key not in trace:
                continue
            value = int(trace[key]) if isinstance(trace[key], bool) else trace[key]
            metric = f"{prefix}_trace_{_prom_name(key)}"
            if mtype == "counter":
                metric += "_total"
            lines.append(f"# TYPE {metric} {mtype}")
            lines.append(f"{metric} {value}")

    events = snapshot.get("events")
    if events:
        for key, mtype in (("emitted", "counter"), ("dropped", "counter"),
                           ("sink_errors", "counter"), ("enabled", "gauge"),
                           ("buffered", "gauge")):
            if key not in events:
                continue
            value = int(events[key]) if isinstance(events[key], bool) else events[key]
            metric = f"{prefix}_events_{_prom_name(key)}"
            if mtype == "counter":
                metric += "_total"
            lines.append(f"# TYPE {metric} {mtype}")
            lines.append(f"{metric} {value}")

    return "\n".join(lines) + "\n"


_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def validate_prometheus_text(text: str) -> dict:
    """Check a Prometheus 0.0.4 text exposition for structural validity.

    A lightweight parser covering what :func:`to_prometheus` (and the
    ``/metrics`` endpoint built on it) may emit: ``# TYPE``/``# HELP``
    comments, samples with optional ``{label="value"}`` sets, float values.
    Histogram families are additionally checked for cumulative
    (monotonically non-decreasing) ``le`` buckets ending at ``+Inf`` with
    the bucket total equal to the ``_count`` sample.  Raises
    :class:`ValueError` on the first problem; returns a summary with
    per-type family counts and the number of samples.  Used by the CI
    ``serve`` job to gate the scraped endpoint.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] not in ("TYPE", "HELP"):
                raise ValueError(f"line {lineno}: unknown comment {parts[1]!r}")
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: malformed TYPE comment")
                name, mtype = parts[2], parts[3]
                if mtype not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ValueError(f"line {lineno}: unknown metric type {mtype!r}")
                if name in types:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
                types[name] = mtype
            continue
        m = _METRIC_NAME_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: sample lacks a metric name")
        name, rest = m.group(0), line[m.end():]
        labels: dict[str, str] = {}
        if rest.startswith("{"):
            end = rest.find("}")
            if end < 0:
                raise ValueError(f"line {lineno}: unterminated label set")
            body, rest = rest[1:end], rest[end + 1:]
            for key, val in _LABEL_PAIR_RE.findall(body):
                labels[key] = val
            if not labels and body.strip():
                raise ValueError(f"line {lineno}: malformed label set {body!r}")
        try:
            value = float(rest.strip().split()[0])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: bad sample value in {line!r}") from exc
        samples.append((name, labels, value))

    # Histogram invariants: per (family, non-le labels) series, buckets must
    # be cumulative, end at +Inf, and agree with _count.
    series: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for name, labels, value in samples:
        base = None
        for suffix in ("_bucket", "_count", "_sum"):
            if name.endswith(suffix) and types.get(name[: -len(suffix)]) == "histogram":
                base = name[: -len(suffix)]
                break
        if base is None:
            continue
        ident = (base,) + tuple(
            sorted((k, v) for k, v in labels.items() if k != "le")
        )
        if name.endswith("_bucket"):
            if "le" not in labels:
                raise ValueError(f"histogram bucket for {base!r} lacks an 'le' label")
            le = math.inf if labels["le"] == "+Inf" else float(labels["le"])
            series.setdefault(ident, []).append((le, value))
        elif name.endswith("_count"):
            counts[ident] = value
    for ident, buckets in series.items():
        buckets.sort(key=lambda b: b[0])
        if not math.isinf(buckets[-1][0]):
            raise ValueError(f"histogram {ident[0]!r} lacks a +Inf bucket")
        cum = [v for _, v in buckets]
        if any(later < earlier for earlier, later in zip(cum, cum[1:])):
            raise ValueError(f"histogram {ident[0]!r} buckets are not cumulative")
        if ident in counts and counts[ident] != cum[-1]:
            raise ValueError(
                f"histogram {ident[0]!r}: _count {counts[ident]} != "
                f"+Inf bucket {cum[-1]}"
            )
    by_type: dict[str, int] = {}
    for mtype in types.values():
        by_type[mtype] = by_type.get(mtype, 0) + 1
    return {"families": by_type, "samples": len(samples)}


# ---------------------------------------------------------------------------
# Human-readable tree dump
# ---------------------------------------------------------------------------

def _fmt_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  [{inner}]"


def to_tree(spans: Iterable[SpanRecord]) -> str:
    """Render spans as an indented per-thread tree with durations."""
    spans = list(spans)
    if not spans:
        return "(no spans recorded)\n"
    by_thread: dict[int, list[SpanRecord]] = {}
    for s in spans:
        by_thread.setdefault(s.tid, []).append(s)

    lines: list[str] = []
    for tid in sorted(by_thread):
        records = sorted(by_thread[tid], key=lambda s: (s.t0, s.span_id))
        ids = {s.span_id for s in records}
        children: dict[int, list[SpanRecord]] = {}
        roots: list[SpanRecord] = []
        for s in records:
            if s.parent_id in ids:
                children.setdefault(s.parent_id, []).append(s)
            else:
                roots.append(s)
        name = records[0].thread_name
        lines.append(f"thread {name} (tid={tid}):")

        def emit(s: SpanRecord, depth: int) -> None:
            indent = "  " * depth
            if s.is_event:
                lines.append(f"{indent}* {s.name}{_fmt_attrs(s.attrs)}")
            else:
                lines.append(
                    f"{indent}{s.name:<32} {s.duration_s * 1e3:9.3f} ms"
                    f"{_fmt_attrs(s.attrs)}"
                )
            for child in children.get(s.span_id, []):
                emit(child, depth + 1)

        for root in roots:
            emit(root, 1)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Per-request (distributed) span tree
# ---------------------------------------------------------------------------

def filter_trace(spans: Iterable[SpanRecord], trace_id: str) -> list[SpanRecord]:
    """Spans belonging to one request, across every process and thread.

    A span belongs if its own ``trace_id`` matches, or if it carries the
    request in a batched group's ``trace_ids`` attribute (the batcher
    stamps group spans with every coalesced request's id)."""
    out = []
    for s in spans:
        if getattr(s, "trace_id", "") == trace_id:
            out.append(s)
        elif trace_id in (s.attrs.get("trace_ids") or ()):
            out.append(s)
    return out


def to_request_tree(spans: Iterable[SpanRecord], trace_id: str) -> str:
    """Render one request's span tree across thread boundaries.

    Unlike :func:`to_tree` (which groups by thread), this follows
    ``parent_id`` links across pid/tid lanes — a request reads as one tree
    from the HTTP ``serve.request`` root down into the worker threads'
    execute and pass spans, each line labelled with the process and thread
    that produced it.
    """
    matched = filter_trace(spans, trace_id)
    if not matched:
        return f"(no spans recorded for trace_id={trace_id})\n"
    matched.sort(key=lambda s: (s.t0, s.span_id))
    ids = {s.span_id for s in matched}
    children: dict[int, list[SpanRecord]] = {}
    roots: list[SpanRecord] = []
    for s in matched:
        if s.parent_id in ids:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)
    pids = sorted({getattr(s, "pid", 0) for s in matched})
    lines = [
        f"trace {trace_id}: {len(matched)} spans across "
        f"{len(pids)} process(es) {pids}"
    ]

    def emit(s: SpanRecord, depth: int) -> None:
        indent = "  " * depth
        lane = f"pid={getattr(s, 'pid', 0)} tid={s.tid}"
        if s.is_event:
            lines.append(f"{indent}* {s.name}  ({lane}){_fmt_attrs(s.attrs)}")
        else:
            lines.append(
                f"{indent}{s.name:<28} {s.duration_s * 1e3:9.3f} ms  "
                f"({lane}){_fmt_attrs(s.attrs)}"
            )
        for child in children.get(s.span_id, []):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 1)
    return "\n".join(lines) + "\n"
