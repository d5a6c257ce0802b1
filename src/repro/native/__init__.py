"""Compiled per-plan native kernels (``backend="native"``).

For an eligible plan this package generates C source specialized to the
concrete ``(algorithm, m, n, itemsize)`` — gather tables, magic-division
constants and loop extents baked in as literals — compiles it once with the
system C compiler, and exposes the resulting shared object as a
:class:`~repro.native.kernel.NativeKernel` whose entry points the plan
executors call instead of the numpy gathers.

Policy lives here; mechanism lives in the submodules:

:mod:`repro.native.codegen`
    Eligibility rules and C source generation.
:mod:`repro.native.kernel`
    Toolchain discovery, compilation, artifact caching, ctypes loading.

Resolution contract (:func:`kernel_for_plan`, the one resolver: plans
resolve their own kernel, and the pass engine's in-RAM and streamed callers
reach it through the plan cache's entry for the shape,
:func:`repro.parallel.engine.native_kernel`):

* ``REPRO_NATIVE=0`` disables the backend silently — no metric, no warning.
* Buffers with fewer than ``REPRO_NATIVE_MIN_ELEMS`` (default 16384)
  elements stay on numpy silently: compile time and call overhead would
  swamp any win.
* An ineligible shape/dtype increments ``native.unsupported`` and falls
  back silently (this is a static property of the plan, not a failure).
* A missing compiler or failed compile increments ``native.fallback`` and
  emits a one-time :class:`RuntimeWarning`; execution proceeds on numpy.
  This is never an error — a machine without a toolchain runs the full
  suite, just slower.
* A compile that ran the compiler increments ``native.compile`` (loading
  an artifact already on disk does not).  Every loaded kernel charges the
  artifact's on-disk size to the plan's slot in the plan cache (eviction
  then unlinks the ``.so`` via the plan's eviction hook).

Kernels are memoized on the plan object per itemsize, so a cached plan
compiles at most once per dtype width it ever sees, and the artifact is
shared content-addressed across identical plans.
"""

from __future__ import annotations

import os
import threading
import warnings

from .codegen import (
    MAX_AB,
    SUPPORTED_ITEMSIZES,
    KernelSpec,
    PassInfo,
    generate_source,
    ineligible_reason,
    pass_symbol,
)
from .kernel import (
    CompileError,
    NativeKernel,
    compile_spec,
    compiler_available,
    find_compiler,
)

__all__ = [
    "MAX_AB",
    "SUPPORTED_ITEMSIZES",
    "KernelSpec",
    "PassInfo",
    "generate_source",
    "ineligible_reason",
    "pass_symbol",
    "CompileError",
    "NativeKernel",
    "compile_spec",
    "compiler_available",
    "find_compiler",
    "enabled",
    "min_elems",
    "available",
    "unavailable_reason",
    "kernel_for_plan",
    "release_plan_kernels",
    "record_fallback",
]

#: Default element-count floor below which auto-selection stays on numpy.
DEFAULT_MIN_ELEMS = 16_384

_warned_once = False
_warn_lock = threading.Lock()


def _metrics_registry():
    from ..runtime import metrics

    return metrics.registry


def enabled() -> bool:
    """False when ``REPRO_NATIVE=0`` opts the process out entirely."""
    return os.environ.get("REPRO_NATIVE", "1") != "0"


def min_elems() -> int:
    """Auto-selection floor: buffers smaller than this stay on numpy."""
    try:
        return int(os.environ.get("REPRO_NATIVE_MIN_ELEMS", DEFAULT_MIN_ELEMS))
    except ValueError:
        return DEFAULT_MIN_ELEMS


def available() -> bool:
    """True when this process can compile native kernels at all."""
    return enabled() and compiler_available()


def unavailable_reason() -> str | None:
    """Why :func:`available` is False, or ``None`` when it is True."""
    if not enabled():
        return "disabled by REPRO_NATIVE=0"
    if not compiler_available():
        return "no C compiler available"
    return None


def record_fallback(reason: str) -> None:
    """Count a numpy fallback and warn once per process.

    Used when native execution was *expected* (compiler present or backend
    explicitly requested) but could not be delivered.  The warning fires
    once; the ``native.fallback`` counter increments on every occurrence so
    CI can assert the fallback path actually ran, and while tracing a
    ``native.fallback`` instant records the reason under the active
    request's trace.
    """
    global _warned_once
    _metrics_registry().inc("native.fallback")
    from ..trace.spans import tracer

    if tracer.enabled:
        tracer.event("native.fallback", reason=reason)
    with _warn_lock:
        if _warned_once:
            return
        _warned_once = True
    warnings.warn(
        f"native transpose backend unavailable ({reason}); "
        "falling back to numpy",
        RuntimeWarning,
        stacklevel=3,
    )


def kernel_for_plan(plan, itemsize: int) -> NativeKernel | None:
    """The compiled kernel for ``plan`` at ``itemsize``, or ``None``.

    ``plan`` is any object with ``dec`` and ``algorithm``; only those are
    read, never a plan's gather maps (the kernel computes its own indices).

    Memoized on the plan object (one slot per itemsize), so repeated
    executes of a cached plan pay a dict lookup.  ``None`` is memoized too:
    an ineligible shape or a failed compile is not retried, though the
    fallback *metric* still fires per call so operators see the ongoing
    cost.  Never raises.
    """
    cache = plan.__dict__.get("_native_kernels")
    if cache is not None:
        hit = cache.get(itemsize, _MISS)
        if hit is not _MISS:
            if hit is None and cache.get(("why", itemsize)) == "fallback":
                _metrics_registry().inc("native.fallback")
            return hit
    lock = plan.__dict__.setdefault("_native_lock", threading.Lock())
    with lock:
        cache = plan.__dict__.setdefault("_native_kernels", {})
        hit = cache.get(itemsize, _MISS)
        if hit is not _MISS:
            return hit
        kernel, why = _build_kernel(plan, itemsize)
        cache[itemsize] = kernel
        if kernel is None:
            cache[("why", itemsize)] = why
    if kernel is not None:
        # Charged outside the native lock: the byte adjustment can evict
        # plans — possibly this one — and eviction hooks re-enter the
        # native layer to release kernels.
        from ..runtime import plan_cache

        plan_cache.charge(plan, kernel.artifact_bytes)
    return kernel


_MISS = object()

def _build_kernel(plan, itemsize: int):
    """Compile the kernel for ``plan``; returns ``(kernel, why_none)``."""
    reg = _metrics_registry()
    reason = ineligible_reason(plan.dec, itemsize)
    if reason is not None:
        reg.inc("native.unsupported")
        return None, "unsupported"
    try:
        spec = generate_source(plan.dec, plan.algorithm, itemsize)
        kernel = compile_spec(spec)
    except CompileError as exc:
        record_fallback(str(exc))
        return None, "fallback"
    if kernel.compiled:  # not a load of an artifact already on disk
        reg.inc("native.compile")
    return kernel, None


def release_plan_kernels(plan) -> None:
    """Unlink every artifact compiled for ``plan`` (plan-cache eviction)."""
    lock = plan.__dict__.get("_native_lock")
    if lock is None:
        return
    with lock:
        cache = plan.__dict__.get("_native_kernels")
        if not cache:
            return
        kernels = [k for k in cache.values() if isinstance(k, NativeKernel)]
    for kernel in kernels:
        kernel.release()
