"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs one round of each check with one output deliberately corrupted after
the program produced it, and exits non-zero unless every check counts
exactly that one operation as failed (and passes the untouched ones), and
unless a kind whose every operation fails leaves the timing metrics not
measured.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import ledger  # noqa: E402
import loadgen  # noqa: E402
import wl_inram  # noqa: E402
import wl_stream  # noqa: E402
from common import WorkDir  # noqa: E402
from ops import Tally  # noqa: E402


def check_inram() -> bool:
    """The first forward transpose of the round has one element flipped."""
    cases = [wl_inram.Case(3, *spec) for spec in wl_inram.SMALL]
    corrupted = []

    def call(case, m, n):
        wl_inram._small_call(case, m, n)
        if not corrupted:
            case.buf[7:8] += 1
            corrupted.append(case.label)

    tally = Tally()
    rec = ledger.Recorder()
    for case in cases:
        case.round_trip(call, tally, rec)
    # the failed forward op ends its case's round; the other cases run both
    want = (2 * len(cases) - 1, 1)
    got = (tally.attempted, tally.failed)
    print(f"in-RAM check: attempted/failed {got}, expected {want}")
    return got == want and all(c.is_original() for c in cases)


def check_file(work: WorkDir) -> bool:
    """A file differing in one byte from its reference is caught."""
    a, b = work.path / "a.bin", work.path / "b.bin"
    data = np.arange(3 << 20, dtype=np.uint8)
    data.tofile(a)
    data[123457] ^= 0x40
    data.tofile(b)
    same_self, same_other = wl_stream._same(a, a), wl_stream._same(a, b)
    print(f"file check: identical files equal {same_self}, "
          f"one flipped byte equal {same_other}")
    return same_self and not same_other


class _FakeHTTP:
    """Stands in for the server: replies with numpy's transpose of the
    request, with one byte flipped when ``corrupt`` is set."""

    def __init__(self, corrupt: bool):
        self.corrupt, self.status = corrupt, 200

    def request(self, method, url, body, headers):
        k, m, n = (int(headers[h]) for h in ("X-Repro-Batch", "X-Repro-Rows", "X-Repro-Cols"))
        A = np.frombuffer(body, np.uint8).reshape(k, m, n)
        out = bytearray(np.ascontiguousarray(A.transpose(0, 2, 1)).tobytes())
        if self.corrupt:
            out[5] ^= 1
        self.body = bytes(out)

    def getresponse(self):
        return self

    def read(self):
        return self.body

    def close(self):
        pass


def check_reply() -> bool:
    """A reply that differs from numpy's transpose fails its request."""
    p = loadgen.Payloads(3, 4, 6, "uint8", 2, 1)
    conn = loadgen._Conn.__new__(loadgen._Conn)
    conn.conn = _FakeHTTP(corrupt=False)
    good = conn.post(p, 0)
    conn.conn = _FakeHTTP(corrupt=True)
    bad = conn.post(p, 0)
    print(f"reply check: correct reply -> {good!r}, flipped byte -> {bad!r}")
    return good is None and bad is not None


def check_tally() -> bool:
    """A kind whose every operation fails leaves the timing metrics not
    measured (NaN), rather than timing only the kinds that worked."""
    partial, empty = Tally(), Tally()
    partial.record("fast", 0.001, 1000, True)
    partial.record("slow", 0.0, 1000, False)
    got = [v for t in (partial, empty) for v, _ in t.e2e().values()]
    print(f"tally check: one kind always failing, or no operation -> {got}")
    return all(math.isnan(v) for v in got)


if __name__ == "__main__":
    with WorkDir() as work:
        os.environ["REPRO_NATIVE_DIR"] = str(work.fresh("native"))
        results = [check_inram(), check_file(work), check_reply(), check_tally()]
    print("selftest", "ok" if all(results) else "FAILED")
    sys.exit(0 if all(results) else 1)
