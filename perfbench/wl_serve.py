"""The ``serve`` workload: ``POST /transpose`` against ``repro serve``
running in its own process, on the default payload of 4 tiles of 256x384
uint8 per request.

Phases after set-up and warm-up: an open loop at a constant rate (latency
from each request's due time gives ``op_ms_p50``), then a closed loop from
``nproc`` connections (``throughput_gb_s``).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import urllib.request
from time import perf_counter

import layers
import ledger
import loadgen
from common import (ROOT, eq37_bytes, log, median, nearest_rank, nproc, peak_rss_mib,
                    ratio)
from ops import Tally

M, N, DTYPE, TILES = 256, 384, "uint8", 4

#: open-loop requests per second (x4 tiles = 240 matrices/s): about 22% of
#: the closed-loop capacity this generator measures with two connections
#: on the 2-core reference host (~1100 matrices/s, every reply checked).
#: Rates near half of capacity doubled the run-to-run spread of the
#: latency metrics; at this rate queues stay short and the latency
#: measured is the serving path's, not a backlog's.  Constant, so that a
#: faster server shows up as lower latency, never as more offered load.
RATE = 60.0

#: distinct request bodies per run (cycled)
PAYLOADS = 8

#: share of the timed phase spent in the open loop; the rest is closed loop
OPEN_SHARE = 0.8

COLD_SETUPS = 5

#: seconds of one open-loop chunk in the traced mode's rotation
CHUNK_S = 1.0

_LISTEN = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """``python -m repro serve`` in a child process on an ephemeral port."""

    def __init__(self, native_dir, extra_env: dict | None = None):
        env = dict(os.environ, REPRO_NATIVE_DIR=str(native_dir), **(extra_env or {}))
        self.t_start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-seconds", "170"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        for line in self.proc.stdout:
            found = _LISTEN.search(line)
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                break
        else:
            self.proc.wait(timeout=30)
            raise RuntimeError("repro serve exited before listening")
        self.url = f"http://{self.host}:{self.port}"

    def get(self, path: str) -> str:
        with urllib.request.urlopen(self.url + path, timeout=30) as resp:
            return resp.read().decode()

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.proc.pid)

    def stop(self) -> bool:
        """SIGTERM, drain, and whether the server reported a clean drain."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return False
        summary = [ln for ln in out.splitlines() if ln.startswith("shutdown summary")]
        if summary:
            log(f"  {summary[-1]}")
        return self.proc.returncode == 0


def _scrape(server: Server) -> dict:
    """Counters and latency histograms from ``/metrics``, plan-cache and
    native counters from ``/statusz``."""
    counters, hist = {}, {}
    for line in server.get("/metrics").splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        b = re.match(r'repro_latency_seconds_bucket\{op="([^"]+)",le="([^"]+)"\}', name)
        if b:
            le = math.inf if b.group(2) == "+Inf" else float(b.group(2))
            hist.setdefault(b.group(1), {"buckets": []})["buckets"].append((le, float(value)))
            continue
        s = re.match(r'repro_latency_seconds_(sum|count)\{op="([^"]+)"\}', name)
        if s:
            hist.setdefault(s.group(2), {"buckets": []})[s.group(1)] = float(value)
        elif "{" not in name:
            counters[name] = float(value)
    status = json.loads(server.get("/statusz"))
    return {"counters": counters, "hist": hist, "plan_cache": status["plan_cache"],
            "compiles": status["native"]["compile"]}


def _hist_delta(a: dict, b: dict, op: str) -> dict:
    ha, hb = a["hist"].get(op, {"buckets": []}), b["hist"][op]
    before = dict(ha["buckets"])
    return {"buckets": [(le, c - before.get(le, 0.0)) for le, c in hb["buckets"]],
            "sum": hb["sum"] - ha.get("sum", 0.0), "count": hb["count"] - ha.get("count", 0.0)}


def _hist_p50_ms(h: dict) -> float:
    """Median of a cumulative log-bucket histogram, interpolated
    geometrically inside the bucket that holds it."""
    half = h["count"] / 2.0
    lo_le, lo_c = 0.0, 0.0
    for le, c in sorted(h["buckets"]):
        if c >= half:
            if lo_le <= 0 or math.isinf(le):
                return (le if not math.isinf(le) else lo_le) * 1e3
            frac = (half - lo_c) / (c - lo_c) if c > lo_c else 1.0
            return lo_le * (le / lo_le) ** frac * 1e3
        lo_le, lo_c = le, c
    raise ValueError("empty histogram")


def _cold_start(work, payloads) -> tuple[Server, float | None]:
    """Start a server on an empty artifact directory and time it until the
    first request comes back transposed (start, plan build, compile);
    no time when that request fails."""
    server = Server(work.fresh("native"))
    conn = loadgen.connect(server.host, server.port, 1)[0]
    try:
        why = conn.post(payloads, 0)
    finally:
        conn.close()
    if why is not None:
        log(f"  first request failed: {why}")
        return server, None
    return server, perf_counter() - server.t_start


def _tally(res: loadgen.Result, tally: Tally) -> None:
    tally.attempted += res.attempted
    tally.failed += res.failed
    for why in sorted(set(res.errors)):
        log(f"  request failed: {why}")


def run(workload: str, seed: int, seconds: float, trace: bool, work) -> dict:
    payloads = loadgen.Payloads(seed, M, N, DTYPE, TILES, PAYLOADS)
    tally = Tally()
    setups, server, clean, rec = [], None, True, None
    try:
        for _ in range(1 if trace else COLD_SETUPS):
            if server is not None:
                clean &= server.stop()
            server, dt = _cold_start(work, payloads)
            tally.attempted += 1
            if dt is None:
                tally.failed += 1
            else:
                setups.append(dt)
        log(f"  cold set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}")
        conns = loadgen.connect(server.host, server.port, nproc())
        try:
            # warm-up: every group size the coalescer forms builds its plan
            _open_phase(conns, payloads, 1.5, seed + 1, tally)
            if trace:
                out, rec, traced_clean = _traced(server, conns, payloads, seed, seconds,
                                                 tally, work)
                clean &= traced_clean
            else:
                ol = _open_phase(conns, payloads, seconds * OPEN_SHARE, seed, tally)
                cl = loadgen.closed_loop(conns, payloads, seconds * (1 - OPEN_SHARE))
                _tally(cl, tally)
                lat = ol.latencies
                # p90 is printed, not in the result: inram-large and stream
                # run too few operations for a tail, and every workload
                # reports the same metrics
                log(f"  open loop {len(lat)} requests at {RATE}/s: p90 "
                    f"{nearest_rank(lat, 90) * 1e3:.3f} ms, generator late p90 "
                    f"{nearest_rank(ol.late, 90) * 1e3:.3f} ms; closed loop "
                    f"{len(cl.latencies)} requests, "
                    f"{len(cl.latencies) * TILES / cl.elapsed:.0f} matrices/s")
                out = {
                    "setup_s": (median(setups), "s"),
                    "throughput_gb_s": (len(cl.latencies) * eq37_bytes(M, N, 1, TILES)
                                        / cl.elapsed / 1e9, "GB/s"),
                    "op_ms_p50": (median(lat) * 1e3, "ms"),
                    "peak_rss_mb": (server.peak_rss_mib(), "MiB"),
                }
        finally:
            for c in conns:
                c.close()
    finally:
        if server is not None:
            clean &= server.stop()
    return {"tally": tally, "correct": clean, "metrics": out, "recorder": rec}


def _open_phase(conns, payloads, seconds, seed, tally, rec=None) -> loadgen.Result:
    sched = loadgen.poisson_schedule(RATE, seconds, seed)
    with rec.recording() if rec is not None else contextlib.nullcontext():
        ol = loadgen.open_loop(conns, payloads, sched, rec)
    _tally(ol, tally)
    return ol


def _traced(server, conns, payloads, seed, seconds, tally, work):
    """Per-layer metrics.  Open-loop chunks go in turn to the server
    (untraced, then with the benchmark's client spans) and to a second
    server started with ``REPRO_TRACE=1``, so all three modes share the
    same stretches of host load."""
    from repro.core.batched import BatchedTransposePlan

    rec = ledger.Recorder()
    lat = {"base": [], "spans": [], "repro": []}
    late = []
    traced_server = Server(work.fresh("native"), {"REPRO_TRACE": "1"})
    tconns = loadgen.connect(traced_server.host, traced_server.port, len(conns))
    try:
        _open_phase(tconns, payloads, 1.5, seed + 1, tally)
        before = _scrape(server)
        for i in range(max(1, round(seconds / 3 / CHUNK_S))):
            for j, (mode, cs, r) in enumerate((("base", conns, None), ("spans", conns, rec),
                                                ("repro", tconns, None))):
                res = _open_phase(cs, payloads, CHUNK_S, 1000 * seed + 3 * i + j, tally, r)
                lat[mode] += res.latencies
                if mode == "base":
                    late += res.late
        after = _scrape(server)
    finally:
        for c in tconns:
            c.close()
        clean = traced_server.stop()

    ops = len(lat["base"]) + len(lat["spans"])
    qw = _hist_delta(before, after, "serve.queue_wait")
    ex = _hist_delta(before, after, "serve.execute")
    e2e = _hist_delta(before, after, "serve.e2e")
    dc = {k: after["counters"].get(k, 0) - before["counters"].get(k, 0)
          for k in ("repro_serve_completed_total", "repro_serve_batches_total",
                    "repro_serve_batch_size_sum", "repro_serve_batch_size_count")}
    client = lat["base"] + lat["spans"]
    client_p50 = median(client) * 1e3
    base_p50 = median(lat["base"]) * 1e3
    cache = {k: {"hits": x["plan_cache"]["hits"], "misses": x["plan_cache"]["misses"],
                 "evictions": x["plan_cache"]["evictions"],
                 "build_s": x["plan_cache"]["build_seconds"], "compiles": x["compiles"]}
             for k, x in (("before", before), ("after", after))}
    m = {
        "serve.queue_wait_ms_p50": (_hist_p50_ms(qw), "ms"),
        "serve.execute_ms_p50": (_hist_p50_ms(ex), "ms"),
        # the serve.batch_size histogram observes tiles per executed group
        "serve.tiles_per_group": (ratio(dc["repro_serve_batch_size_sum"],
                                        dc["repro_serve_batch_size_count"]), "count"),
        "serve.http_ms_p50": (client_p50 - _hist_p50_ms(e2e), "ms"),
        "serve.gen_late_ms_p90": (nearest_rank(late, 90) * 1e3, "ms"),
        **layers.cache_metrics(cache["before"], cache["after"], ops),
        # server time outside queue wait and execution (staging, hand-off)
        "ledger.unattributed_frac": (ratio(e2e["sum"] - qw["sum"] - ex["sum"], sum(client)),
                                     "ratio"),
        "trace.overhead_frac": ((median(lat["spans"]) * 1e3 - base_p50) / base_p50, "ratio"),
        "trace.repro_trace_overhead_frac": (
            (median(lat["repro"]) * 1e3 - base_p50) / base_p50, "ratio"),
    }
    log(f"  server: {dc['repro_serve_completed_total']:.0f} requests in "
        f"{dc['repro_serve_batches_total']:.0f} groups "
        f"({m['serve.tiles_per_group'][0]:.2f} tiles per group); client p50 "
        f"{client_p50:.3f} ms = server e2e p50 {_hist_p50_ms(e2e):.3f} ms "
        f"(bucket-interpolated) + HTTP {m['serve.http_ms_p50'][0]:.3f} ms "
        "(difference of medians)")

    # layers measured in this process on the served shape
    t0 = perf_counter()
    plan = BatchedTransposePlan(M, N, "C")
    m["core.plan_build_s"] = (perf_counter() - t0, "s")
    m["core.plan_map_mb"] = (plan.scratch_bytes / 2**20, "MiB")
    del plan
    m.update(layers.pass_metrics(layers.roofline(f"{M}x{N} u8", M, N, DTYPE)))
    m["native.compile_s"] = (layers.cold_compile_s(M, N, 1, work.fresh("native")), "s")
    return m, rec, clean
