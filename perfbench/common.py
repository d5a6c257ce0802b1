"""Shared pieces of the benchmark: inputs from a seed, statistics, the run
record, peak RSS, the Eq. 37 byte count and the memcpy ceiling.

Nothing here imports ``repro`` at module level, so the benchmark can print
its run record (and fail cleanly) even when the program is missing.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

#: root of the checkout the benchmark runs in (the parent of perfbench/)
ROOT = Path(__file__).resolve().parents[1]

#: everything the benchmark writes goes below this directory of the checkout
WORK_ROOT = ROOT / ".perfbench_work"

_M1 = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(_M1)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pattern(seed: int, idx: np.ndarray, dtype) -> np.ndarray:
    """The input value at flat positions ``idx`` of a seeded matrix.

    A multiply/xor-shift hash of ``(seed, index)``, so the benchmark can
    regenerate any block of the original matrix, and so of its transpose,
    without keeping a copy: the references are computed here, apart from
    the program.  Values fit the dtype exactly (24 bits for float32).
    """
    x = idx.astype(np.uint64) + np.uint64((seed + 1) * _M1 % 2**64)
    x *= _MIX2
    x ^= x >> np.uint64(29)
    x *= _MIX1
    x ^= x >> np.uint64(32)
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        bits = 24 if dtype.itemsize == 4 else 53
        return (x >> np.uint64(64 - bits)).astype(dtype)
    return (x >> np.uint64(64 - 8 * dtype.itemsize)).astype(dtype)


def matrix(seed: int, rows: int, cols: int, dtype, r0: int = 0, r1: int | None = None):
    """Rows ``[r0, r1)`` of the seeded ``rows x cols`` matrix."""
    r1 = rows if r1 is None else r1
    idx = np.arange(r0 * cols, r1 * cols, dtype=np.uint64)
    return pattern(seed, idx, dtype).reshape(r1 - r0, cols)


def transposed_rows(seed: int, rows: int, cols: int, dtype, j0: int, j1: int):
    """Rows ``[j0, j1)`` of the ``cols x rows`` transpose of the seeded
    ``rows x cols`` matrix, computed as ``A[:, j0:j1].T``."""
    i = np.arange(rows, dtype=np.uint64)[:, None] * np.uint64(cols)
    j = np.arange(j0, j1, dtype=np.uint64)[None, :]
    return np.ascontiguousarray(pattern(seed, i + j, dtype).T)


def eq37_bytes(m: int, n: int, itemsize: int, k: int = 1) -> int:
    """Eq. 37: a transposition of ``k`` ``m x n`` matrices reads and writes
    each element once, ``2 k m n sizeof(T)`` bytes."""
    return 2 * k * m * n * itemsize


# -- statistics ----------------------------------------------------------------


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``; NaN (not
    measured) when there is no sample, e.g. every operation failed."""
    s = sorted(values)
    if not s:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1]


def median(values) -> float:
    """Median of ``values``; NaN (not measured) when there is no sample."""
    s = sorted(values)
    if not s:
        return math.nan
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def mean(values) -> float:
    """Mean of ``values``; NaN (not measured) when there is no sample."""
    s = list(values)
    return sum(s) / len(s) if s else math.nan


def ratio(a: float, b: float) -> float:
    """``a / b``; NaN (not measured) when ``b`` is 0."""
    return a / b if b else math.nan


# -- process facts ---------------------------------------------------------------


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_times() -> list[int]:
    """The guest's aggregate CPU times (``/proc/stat``), for
    :func:`steal_share`."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_times` readings: how much of a run's spread is the host's."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d[:8]) if sum(d[:8]) else 0.0


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _compiler() -> str:
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if not cc:
        return "none"
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return cc
    first = out.stdout.splitlines()[0] if out.stdout else ""
    return first or cc


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def source_digest() -> str:
    """SHA-256 over the program's sources (``src/``, paths and contents).

    A checkout without git history still ties its numbers to the exact
    code that produced them."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Commit, source digest and host fingerprint printed beside the metrics."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "host": {
            "cpu": _cpu_model(),
            "nproc": nproc(),
            "caches": _cache_sizes(),
            "compiler": _compiler(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


# -- scratch space ------------------------------------------------------------------


class WorkDir:
    """A private directory below the checkout, removed on close."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=WORK_ROOT))
        self._n = 0

    def fresh(self, stem: str) -> Path:
        """A new, empty subdirectory (one per cold set-up)."""
        self._n += 1
        p = self.path / f"{stem}{self._n}"
        p.mkdir()
        return p

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- memcpy ceiling -----------------------------------------------------------------


def memcpy_gb_s(nbytes: int, seconds: float = 0.3) -> float:
    """``np.copyto`` bandwidth on two ``nbytes`` buffers, counted like
    Eq. 37 (read + write), as the median of repeats over ``seconds``."""
    a = np.ones(nbytes, dtype=np.uint8)
    b = np.empty_like(a)
    np.copyto(b, a)
    rates = []
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or len(rates) < 5:
        t0 = perf_counter()
        np.copyto(b, a)
        rates.append(2 * nbytes / (perf_counter() - t0) / 1e9)
    return median(rates)


def log(msg: str) -> None:
    """Human-readable progress on stderr (stdout ends with the result)."""
    print(msg, file=sys.stderr, flush=True)
