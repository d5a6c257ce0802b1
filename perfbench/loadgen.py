"""The benchmark's own HTTP load generator for ``POST /transpose``.

It lives here, not in the program, so that a change to the program's load
generator cannot move the benchmark.  One process, at most ``nproc``
persistent connections, one thread each.

Open loop: arrivals follow a seeded Poisson schedule at a constant rate and
do not slow down when the server lags.  A free connection takes the next
arrival, sleeps until it is due and sends it; each request is timed from
its due time, so a stall counts against the requests queued behind it, and
the generator's own lateness (send time minus due time) is reported.

Closed loop: every connection sends its next request as soon as the
previous reply has arrived; this saturates the server and gives its
throughput.
"""

from __future__ import annotations

import http.client
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

from common import pattern


class Payloads:
    """Seeded request bodies of ``tiles`` ``m x n`` matrices and the
    transposes numpy computes for them (``A.transpose(0, 2, 1)``)."""

    def __init__(self, seed: int, m: int, n: int, dtype: str, tiles: int, count: int):
        self.m, self.n, self.tiles, self.dtype = m, n, tiles, np.dtype(dtype)
        A = pattern(seed, np.arange(count * tiles * m * n, dtype=np.uint64), dtype)
        A = A.reshape(count, tiles, m, n)
        self.bodies = [A[i].tobytes() for i in range(count)]
        self.expected = [np.ascontiguousarray(A[i].transpose(0, 2, 1)).tobytes()
                         for i in range(count)]
        self.headers = {
            "X-Repro-Rows": str(m), "X-Repro-Cols": str(n),
            "X-Repro-Dtype": str(self.dtype), "X-Repro-Batch": str(tiles),
            "Content-Type": "application/octet-stream",
        }

    def __len__(self) -> int:
        return len(self.bodies)


@dataclass
class Result:
    """Per-request outcomes of one phase."""

    latencies: list = field(default_factory=list)  # seconds, successful only
    late: list = field(default_factory=list)  # seconds the send was late
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0  # closed loop: wall time of the phase
    errors: list = field(default_factory=list)


class _Conn:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def post(self, payloads: Payloads, i: int) -> str | None:
        """One round trip; ``None`` when the reply is correct, else why not."""
        try:
            self.conn.request("POST", "/transpose", body=payloads.bodies[i],
                              headers=payloads.headers)
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            return f"{type(exc).__name__}: {exc}"
        if resp.status != 200:
            return f"HTTP {resp.status}: {data[:200]!r}"
        if data != payloads.expected[i]:
            return "reply differs from numpy's transpose"
        return None

    def close(self) -> None:
        self.conn.close()


def poisson_schedule(rate: float, duration: float, seed: int) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``duration``."""
    rng = np.random.default_rng(seed)
    n = int(rate * duration * 1.5) + 16
    t = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return t[t < duration]


def _run(conns: list[_Conn], worker) -> None:
    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(conns: list[_Conn], payloads: Payloads, schedule: np.ndarray,
              rec=None) -> Result:
    """Send ``schedule``'s arrivals; with a recorder, one span per request."""
    res = Result(attempted=len(schedule))
    lock = threading.Lock()
    nxt = [0]
    t0 = perf_counter() + 0.05

    def worker(conn: _Conn) -> None:
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if i >= len(schedule):
                return
            due = t0 + schedule[i]
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            sent = perf_counter()
            if rec is None:
                why = conn.post(payloads, i % len(payloads))
            else:
                with rec.op("op.http_post"):
                    why = conn.post(payloads, i % len(payloads))
            done = perf_counter()
            with lock:
                res.late.append(sent - due)
                if why is None:
                    res.latencies.append(done - due)
                else:
                    res.failed += 1
                    res.errors.append(why)

    _run(conns, worker)
    return res


def closed_loop(conns: list[_Conn], payloads: Payloads, duration: float) -> Result:
    """Each connection sends whole passes over the payloads back to back
    until ``duration`` has passed."""
    res = Result()
    lock = threading.Lock()
    t0 = perf_counter()
    t_end = t0 + duration

    def worker(conn: _Conn) -> None:
        while perf_counter() < t_end:
            for i in range(len(payloads)):
                t = perf_counter()
                why = conn.post(payloads, i)
                dt = perf_counter() - t
                with lock:
                    res.attempted += 1
                    if why is None:
                        res.latencies.append(dt)
                    else:
                        res.failed += 1
                        res.errors.append(why)

    _run(conns, worker)
    res.elapsed = perf_counter() - t0
    return res


def connect(host: str, port: int, n: int) -> list[_Conn]:
    return [_Conn(host, port) for _ in range(n)]
