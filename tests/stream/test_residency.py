"""Bounded-residency proof: a streamed transpose of a file many times the
window size must keep peak RSS near the window, and stay byte-exact.

Runs in a subprocess so the ``VmHWM`` high-water mark reflects only the
streamed run, not whatever the pytest session touched earlier.  File size
scales with ``REPRO_STREAM_TEST_BYTES`` (default 96 MiB — the CI stream
job raises it to 1 GiB and tightens nothing else).  One thread and two
run under the same cap: the workers split each column-band copy's I/O
block between them, so the threaded copies hold no more pages at once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

#: default file size: 12x the window, big enough that an unbounded memmap
#: walk would blow the cap, small enough for the tier-1 suite
DEFAULT_TEST_BYTES = 96 * 1024 * 1024

_CHILD = r"""
import json, os, sys
import numpy as np

src_dir, path, total_bytes = sys.argv[1], sys.argv[2], int(sys.argv[3])
n_threads = int(sys.argv[4])
sys.path.insert(0, src_dir)

def vm_hwm_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM")

# Analytic pattern A[i, j] = i * n + j (uint32): every element's value is
# its row-major flat index, so any block of the transposed file can be
# verified without materialising the original.
n = 4096
m = total_bytes // (n * 4)
write_block = 256
with open(path, "wb") as fh:
    for i0 in range(0, m, write_block):
        i1 = min(m, i0 + write_block)
        block = (
            np.arange(i0 * n, i1 * n, dtype=np.int64) % (1 << 32)
        ).astype(np.uint32)
        fh.write(block.tobytes())

window = total_bytes // 12
before = vm_hwm_kib()
from repro.stream import transpose_file_inplace
stats = transpose_file_inplace(
    path, m, n, np.uint32, window_bytes=window, n_threads=n_threads
)
after = vm_hwm_kib()

# Blockwise byte-exact check: transposed flat index k holds value
# (k % m) * n + (k // m).
ok = True
check = np.empty(0)
with open(path, "rb") as fh:
    per = 1 << 20
    for k0 in range(0, m * n, per):
        count = min(per, m * n - k0)
        got = np.frombuffer(fh.read(count * 4), dtype=np.uint32)
        k = np.arange(k0, k0 + count, dtype=np.int64)
        want = (((k % m) * n + k // m) % (1 << 32)).astype(np.uint32)
        if not np.array_equal(got, want):
            ok = False
            break

print(json.dumps({
    "before_kib": before, "after_kib": after, "window": window,
    "bands": stats["bands"], "exact": ok,
}))
"""


@pytest.mark.parametrize("n_threads", [1, 2])
def test_streamed_rss_stays_near_window(tmp_path, n_threads):
    total = int(os.environ.get("REPRO_STREAM_TEST_BYTES", DEFAULT_TEST_BYTES))
    src_dir = str(Path(__file__).resolve().parents[2] / "src")
    script = tmp_path / "residency_child.py"
    script.write_text(_CHILD)
    data = tmp_path / "big.bin"
    out = subprocess.run(
        [sys.executable, str(script), src_dir, str(data), str(total),
         str(n_threads)],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    assert rep["exact"], "streamed transpose is not byte-exact"
    assert rep["bands"] >= 3, rep

    # Peak RSS growth over the pre-transpose baseline: one band (a row
    # band's mapped pages or the column buffer, each <= window) + the
    # column buffer held across row passes + gather index/temporary
    # arrays (int64 indices over uint32 data ~= 2x the band) + the
    # transient I/O block, plus fixed interpreter/numpy slack.  An unbounded memmap walk would grow by
    # ~total_bytes and blow through this cap.
    delta_bytes = (rep["after_kib"] - rep["before_kib"]) * 1024
    cap = 5 * rep["window"] + 48 * 1024 * 1024
    assert delta_bytes <= cap, (
        f"peak RSS grew {delta_bytes / 1e6:.0f} MB; "
        f"cap {cap / 1e6:.0f} MB (window {rep['window'] / 1e6:.0f} MB)"
    )
    assert cap < total, "cap must be meaningfully below the file size"
