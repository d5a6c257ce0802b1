"""Fixtures shared by the serving tests."""

from __future__ import annotations

from time import monotonic, sleep

import pytest

from repro.trace import spans


def _request_span(trace_id):
    """The request's ``serve.request`` span.  The handler closes it after
    the reply is written, so the client can read the reply first: poll."""
    t_end = monotonic() + 10
    while True:
        for r in spans.tracer.snapshot():
            if r.name == "serve.request" and r.trace_id == trace_id:
                return r
        assert monotonic() < t_end, f"no serve.request span for {trace_id}"
        sleep(0.01)


@pytest.fixture
def request_span():
    """``request_span(trace_id)``: poll the span ring for the request's
    ``serve.request`` span (10 s deadline)."""
    return _request_span
