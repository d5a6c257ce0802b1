"""Out-of-core streaming subsystem: bounded-window banded execution.

The paper's ``O(max(m, n))`` auxiliary bound makes the decomposition
viable on matrices that do not fit in RAM; this package makes that real
for file-backed matrices:

* :class:`~repro.stream.window.ResidentWindow` — byte-budgeted band
  access over an ``np.memmap`` with explicit per-band flush ordering
  (``REPRO_STREAM_WINDOW`` sets the default budget);
* :class:`~repro.stream.executor.BandedExecutor` — runs each
  decomposition pass band-by-band through schedules pre-proven by
  :func:`repro.analysis.racecheck.check_banded_schedule`, with
  thread chunk parallelism inside a band and compiled native kernels
  when available;
* :func:`~repro.stream.api.transpose_file_inplace` — the end-to-end
  entry point (the CLI's ``repro transpose-file --stream`` and the
  serving layer's ``POST /transpose-file`` both route here);
* :func:`~repro.stream.api.naive_transpose_copy` — the two-file
  out-of-place baseline the streaming benchmark gates against.

See docs/STREAMING.md for the window model, the flush-ordering contract
and the zero-copy ingress protocol.
"""

from .api import naive_transpose_copy, transpose_file_inplace
from .executor import BandedExecutor, BandedScheduleError
from .window import (
    DEFAULT_WINDOW_BYTES,
    ResidentWindow,
    default_window_bytes,
    parse_bytes,
)

__all__ = [
    "ResidentWindow",
    "BandedExecutor",
    "BandedScheduleError",
    "transpose_file_inplace",
    "naive_transpose_copy",
    "default_window_bytes",
    "parse_bytes",
    "DEFAULT_WINDOW_BYTES",
]
