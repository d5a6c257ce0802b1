"""Bounded, thread-safe structured event log (JSONL), trace_id-stamped.

Spans answer "where did the time go inside this request"; the event log
answers "what *decisions* did the serving layer make about it" — and keeps
the answer after the span ring has wrapped.  One record per decision:

=============== ======================================================
kind            emitted when
=============== ======================================================
``admit``       the HTTP front end admitted a request into the queue
                (``depth`` as observed atomically at admission)
``reject``      admission failed (``reason``: full / closed / expired /
                quota)
``coalesce``    the batcher formed a dispatchable same-shape group
``dispatch``    a group entered execution
``expired``     a queued request missed its deadline at claim time
``retry``       a transient group failure triggered the retry-once path
``group_failure`` the retry also failed; the group's requests got the error
``evict``       the plan cache evicted an entry under budget pressure
``fallback``    the native backend fell back to numpy
``stream``      the banded out-of-core executor started one band of one
                pass (``stage``, ``band``/``bands``, ``lo``/``hi``) —
                the progress feed for ``POST /transpose-file``
``stream_file`` a server-local file transpose started or finished
                (``phase``: start/done/error)
=============== ======================================================

Zero-copy ingress reuses ``admit``/``reject`` with ``reason`` values
``segment-missing`` and ``segment-mismatch`` (the 4xx taxonomy of
``POST /transpose`` segment requests; docs/STREAMING.md).

Every record carries ``ts`` (epoch seconds), ``kind``, and ``trace_id``
(``""`` when the event is not attributable to one request — a cache
eviction under pressure from many, say).  The trace_id requirement is
lint-enforced: REPRO007 flags any ``event_log.emit(...)`` call site that
does not pass ``trace_id=`` explicitly.

Design constraints (shared with :mod:`repro.trace.spans`):

* **No repro imports** — stdlib only, importable from anywhere.
* **Near-zero disabled cost** — ``emit`` returns after one attribute read
  and one branch while disabled; hot paths additionally guard with
  ``if event_log.enabled:`` so keyword dicts are never built.
* **Bounded memory** — a ring of ``REPRO_EVENTS_CAPACITY`` records
  (default 8192); overwrites count in ``event_log.dropped``.

Env gating mirrors ``REPRO_TRACE``: ``REPRO_EVENTS=1`` enables the
in-memory ring; ``REPRO_EVENTS_PATH=/path/events.jsonl`` additionally
streams every record to that file as one JSON object per line (and
implies enabled).  File writes happen under the ring lock — event volume
is per *decision* (admission, dispatch), not per element, so this costs
nothing measurable and keeps lines whole under concurrency.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

__all__ = [
    "EventLog",
    "event_log",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "to_jsonl",
    "DEFAULT_CAPACITY",
]

DEFAULT_CAPACITY = 8192


class EventLog:
    """Thread-safe bounded event recorder with an optional JSONL sink."""

    def __init__(self, enabled: bool = False,
                 capacity: int = DEFAULT_CAPACITY,
                 path: str | None = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._buf: deque[dict] = deque(maxlen=capacity)
        self._fh = None
        self.capacity = capacity
        self.enabled = enabled
        self.path = path
        #: records overwritten by ring wraparound since the last reset
        self.dropped = 0
        #: records emitted since the last reset (including later-dropped)
        self.emitted = 0
        #: JSONL lines that failed to write (sink errors never raise)
        self.sink_errors = 0

    def emit(self, kind: str, *, trace_id: str, **fields) -> None:
        """Record one event.  ``trace_id`` is required by signature (and by
        lint rule REPRO007 at every call site); pass ``""`` when the event
        is genuinely not attributable to a request."""
        if not self.enabled:
            return
        rec = {"ts": time.time(), "kind": kind, "trace_id": trace_id}
        rec.update(fields)
        with self._lock:
            if len(self._buf) == self._buf.maxlen:
                self.dropped += 1
            self._buf.append(rec)
            self.emitted += 1
            if self.path is not None:
                self._sink_locked(rec)

    def _sink_locked(self, rec: dict) -> None:
        try:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps(rec, sort_keys=True, default=str))
            self._fh.write("\n")
            self._fh.flush()
        except OSError:
            # A full disk or yanked mount must never take serving down;
            # the failure stays visible through the counter.
            self.sink_errors += 1
            self._fh = None

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """The ring's current contents, oldest first (record copies)."""
        with self._lock:
            return [dict(r) for r in self._buf]

    def drain(self) -> list[dict]:
        """Remove and return the buffered records, oldest first."""
        with self._lock:
            out = [dict(r) for r in self._buf]
            self._buf.clear()
            return out

    def stats(self) -> dict:
        """Counters for ``/statusz`` and the metrics snapshot."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "emitted": self.emitted,
                "dropped": self.dropped,
                "buffered": len(self._buf),
                "capacity": self.capacity,
                "sink_errors": self.sink_errors,
                "path": self.path,
            }

    def reset(self) -> None:
        """Drop records and counters (enabled flag and sink untouched)."""
        with self._lock:
            self._buf.clear()
            self.dropped = 0
            self.emitted = 0
            self.sink_errors = 0

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError as exc:
                    del exc  # close failure leaves nothing to recover
                self._fh = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)


def to_jsonl(records: list[dict]) -> str:
    """Render records as JSON Lines (one object per line)."""
    return "\n".join(
        json.dumps(r, sort_keys=True, default=str) for r in records
    ) + ("\n" if records else "")


_ENV_PATH = os.environ.get("REPRO_EVENTS_PATH") or None

#: The process-wide event log.  Off by default; ``REPRO_EVENTS=1`` enables
#: the ring, ``REPRO_EVENTS_PATH`` enables it *and* streams JSONL.
event_log = EventLog(
    enabled=os.environ.get("REPRO_EVENTS", "0") == "1" or _ENV_PATH is not None,
    capacity=int(os.environ.get("REPRO_EVENTS_CAPACITY", DEFAULT_CAPACITY)),
    path=_ENV_PATH,
)


def enable() -> None:
    event_log.enabled = True


def disable() -> None:
    event_log.enabled = False


def is_enabled() -> bool:
    return event_log.enabled


def reset() -> None:
    event_log.reset()
