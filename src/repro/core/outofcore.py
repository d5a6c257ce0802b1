"""Out-of-core in-place transposition of file-backed matrices.

The ``O(max(m, n))`` auxiliary bound is exactly what makes the
decomposition usable when the matrix itself does not fit in RAM.  This
module keeps the original public surface —
``transpose_file_inplace(path, m, n, dtype, order)`` — but the execution
now routes through :mod:`repro.stream`: the file is processed band by
band under a byte-budgeted resident window instead of one unbounded
memmap walk, each band is flushed (``msync`` + page drop) before the
next loads, and the schedule is pre-proven race-free by
:func:`repro.analysis.racecheck.check_banded_schedule`.

Observability parity with the in-RAM paths: the streamed run emits an
``op.stream.*`` span, per-pass ``pass.*`` spans and band spans, and
records ``stream.transpose`` bytes-moved metrics.  Failure semantics are
deterministic — on a pass failure every band already stored has been
synced, the mapping is flushed best-effort, and the error propagates
(the old path's ``finally: del buf`` silently skipped the flush).
"""

from __future__ import annotations

import os

__all__ = ["transpose_file_inplace"]


def transpose_file_inplace(
    path: str | os.PathLike,
    m: int,
    n: int,
    dtype,
    order: str = "C",
    *,
    algorithm: str = "auto",
    window_bytes: int | None = None,
    n_threads: int = 1,
) -> None:
    """Transpose the ``m x n`` matrix stored in a raw binary file, in place.

    Parameters
    ----------
    path:
        File holding exactly ``m * n`` elements of ``dtype`` in ``order``
        storage.  Rewritten in place; afterwards it holds the ``n x m``
        transpose in the same order.
    algorithm:
        ``"auto"`` (C2R, see :func:`~repro.core.transpose.choose_algorithm`),
        ``"c2r"`` or ``"r2c"``.
    window_bytes:
        Resident byte budget per band (default ``REPRO_STREAM_WINDOW`` or
        256 MiB); files smaller than the window run as a single band.
    n_threads:
        Chunk parallelism within a band (worker threads).

    Raises :class:`ValueError` when the file size does not match the shape.
    """
    # Late import: repro.stream depends on core/parallel/analysis; binding
    # it at call time keeps the core package import graph acyclic.
    from ..stream import transpose_file_inplace as _streamed

    _streamed(
        path, m, n, dtype, order,
        algorithm=algorithm,
        window_bytes=window_bytes,
        n_threads=n_threads,
    )
