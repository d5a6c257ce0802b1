"""Compile and load generated per-plan kernels.

Toolchain discovery honors ``$CC`` exclusively when it is set (so CI's
no-compiler leg can pin ``CC=/nonexistent`` and prove the fallback path),
otherwise probes ``cc``/``gcc``/``clang`` on PATH via :func:`shutil.which`.
The unit's two translation units (the passes, and the streamed band
copies) compile concurrently with ``cc -c -O2 -fsplit-loops
-fvect-cost-model=dynamic -fPIC`` (retried at plain ``-O2``, and
remembered, if the compiler fails on the two GCC passes) and link into one
shared object, loaded with :mod:`ctypes`.

Artifacts land in ``REPRO_NATIVE_DIR`` (or a per-process temp directory
cleaned at exit) under a content hash of the generated source, so identical
plans — across threads, plan-cache evict/rebuild cycles, or single/batched
variants of one shape — compile at most once per directory.  The compile
writes to a unique temp name and ``os.replace``-s it into place, which
keeps concurrent first-compiles (two threads, or two processes sharing a
directory) down to one visible ``.so``.

:meth:`NativeKernel.release` unlinks the artifact but never ``dlclose``-s:
on Linux unlinking a mapped shared object is safe, while unmapping code
another thread may be executing is not.  Eviction from the plan cache
therefore reclaims disk immediately and address space at process exit.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
from hashlib import sha256

import numpy as np

from .codegen import (
    COPY_PHASES,
    KernelSpec,
    copy_symbol,
    pass_symbol,
    ring_elems,
    split_units,
)

__all__ = [
    "NativeKernel",
    "CompileError",
    "NativeScratchError",
    "find_compiler",
    "compiler_available",
    "compile_spec",
]

#: probe order when $CC is unset
_DEFAULT_COMPILERS = ("cc", "gcc", "clang")

#: optimisation flags.  -O2 compiles a generated unit
#: in about two thirds of -O3's time, but plain -O2 ran C2R's row shuffle
#: (its table gathers) 10-40% slower; with these two of -O3's passes the
#: passes of ``benchmarks/bench_orientation.py``'s shapes match -O3 but one
#: (``benchmarks/bench_cflags.py``).  -fpeel-loops mends that one (the
#: coprime row shuffle) but runs 4096x6000 u8's row shuffle 40% slower.
_OPT_FLAGS = ("-O2", "-fsplit-loops", "-fvect-cost-model=dynamic")
#: what a compiler that fails on the GCC passes is retried with
_PLAIN_OPT = ("-O2",)

_lock = threading.Lock()
_which_cache: dict[tuple[str | None, str | None], str | None] = {}
#: compilers that failed with _OPT_FLAGS and then compiled at _PLAIN_OPT;
#: they get _PLAIN_OPT from the start
_plain_opt: set[str] = set()
_workdir: str | None = None


class CompileError(RuntimeError):
    """A toolchain was present but failed to produce a loadable object."""


class NativeScratchError(MemoryError):
    """Scratch ``malloc`` failed inside a generated pass.

    A pass that cannot allocate its staging buffer returns before moving a
    single element, so the failure position is exact: every pass before
    ``pass_index`` (and every tile before ``tile``) completed, nothing at or
    after it ran.  The numpy fallback resumes from exactly there.
    """

    def __init__(self, pass_index: int, tile: int = 0):
        super().__init__(
            "native kernel scratch allocation failed "
            f"(pass {pass_index}, tile {tile})"
        )
        self.pass_index = pass_index
        self.tile = tile


def find_compiler() -> str | None:
    """Absolute path of the C compiler to use, or ``None``.

    ``$CC``, when set, is authoritative — an unresolvable ``$CC`` means "no
    compiler", it does not fall through to the PATH probe.  Results are
    memoized per ``(CC, PATH)`` so the auto-backend check in every
    ``transpose_inplace`` call stays cheap.
    """
    env_cc = os.environ.get("CC")
    key = (env_cc, os.environ.get("PATH"))
    with _lock:
        if key in _which_cache:
            return _which_cache[key]
    if env_cc is not None:
        found = shutil.which(env_cc)
    else:
        found = None
        for cand in _DEFAULT_COMPILERS:
            found = shutil.which(cand)
            if found:
                break
    with _lock:
        _which_cache[key] = found
    return found


def compiler_available() -> bool:
    """True when a usable C compiler is on this machine."""
    return find_compiler() is not None


def workdir() -> str:
    """Artifact directory: ``REPRO_NATIVE_DIR`` or a per-process tempdir
    removed at interpreter exit."""
    env_dir = os.environ.get("REPRO_NATIVE_DIR")
    if env_dir:
        os.makedirs(env_dir, exist_ok=True)
        return env_dir
    global _workdir
    with _lock:
        if _workdir is None:
            _workdir = tempfile.mkdtemp(prefix="repro-native-")
            atexit.register(shutil.rmtree, _workdir, ignore_errors=True)
        return _workdir


def _artifact_path(source: str) -> str:
    digest = sha256(source.encode()).hexdigest()[:16]
    return os.path.join(workdir(), f"repro_native_{digest}.so")


def _compile_cc(source: str, out_path: str, cc: str) -> None:
    """Compile ``source`` to ``out_path`` with :data:`_OPT_FLAGS`.  A
    compiler that fails there is retried once at :data:`_PLAIN_OPT`, and
    remembered when that works: the GCC passes are unknown to some
    compilers, so the choice follows what the compiler did, not what it
    is called."""
    with _lock:
        plain = cc in _plain_opt
    if plain:
        _compile_cc_at(source, out_path, cc, _PLAIN_OPT)
        return
    try:
        _compile_cc_at(source, out_path, cc, _OPT_FLAGS)
    except CompileError:
        # a fault in the source fails here too
        _compile_cc_at(source, out_path, cc, _PLAIN_OPT)
        with _lock:
            _plain_opt.add(cc)


def _compile_cc_at(source: str, out_path: str, cc: str, flags) -> None:
    """Compile the unit's two translation units (:func:`split_units`: the
    passes and drivers, and the band copies) concurrently to objects, then
    link them into one shared object: the copies add their compile time
    beside the passes', not after it."""
    dirpath = os.path.dirname(out_path)
    made: list[str] = []
    objs: list[str] = []
    procs: list[subprocess.Popen] = []

    def temp(suffix: str) -> str:
        fd, path = tempfile.mkstemp(suffix=suffix, dir=dirpath)
        os.close(fd)
        made.append(path)
        return path

    try:
        for unit in split_units(source):
            c_path, obj = temp(".c"), temp(".o")
            with open(c_path, "w") as fh:
                fh.write(unit)
            objs.append(obj)
            procs.append(subprocess.Popen(
                [cc, "-c", *flags, "-fPIC", "-fno-strict-aliasing", c_path,
                 "-o", obj],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            ))
        failed = []
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failed.append(f"{cc} failed ({proc.returncode}): {err.strip()[:500]}")
        if failed:
            raise CompileError(failed[0])
        tmp_so = temp(".so")
        link = subprocess.run(
            [cc, "-shared", *objs, "-o", tmp_so],
            capture_output=True, text=True, timeout=120,
        )
        if link.returncode != 0:
            raise CompileError(
                f"{cc} failed ({link.returncode}): {link.stderr.strip()[:500]}"
            )
        os.replace(tmp_so, out_path)  # atomic: racers see one artifact
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for path in made:
            try:
                os.unlink(path)
            except OSError:
                pass


def compile_spec(spec: KernelSpec) -> "NativeKernel":
    """Compile (or reuse) the artifact for ``spec`` and load it.

    Raises :class:`CompileError` when no compiler is available or the
    compile fails; callers translate that into the numpy fallback.  The
    kernel's ``compiled`` is True only when this call ran the compiler,
    not when it loaded an artifact already on disk.
    """
    path = _artifact_path(spec.source)
    compiled = not os.path.exists(path)
    if compiled:
        cc = find_compiler()
        if cc is None:
            raise CompileError("no C compiler available")
        _compile_cc(spec.source, path, cc)
    kernel = NativeKernel(spec, path)
    kernel.compiled = compiled
    return kernel


class NativeKernel:
    """A loaded per-plan shared object and its typed entry points.

    All entry points take the raw buffer address (ctypes releases the GIL
    for the duration of the call, so the thread backend gets true
    parallelism out of per-pass range calls) and return 0 on success or 1
    when scratch allocation failed before any element moved.
    """

    def __init__(self, spec: KernelSpec, path: str):
        self.spec = spec
        self.path = path
        try:
            self.artifact_bytes = os.path.getsize(path)
        except OSError:
            self.artifact_bytes = 0
        self._released = False
        #: whether :func:`compile_spec` ran the compiler for this load
        self.compiled = False
        self._lock = threading.Lock()
        lib = ctypes.CDLL(path)
        self._run = lib.repro_run
        self._run.argtypes = [ctypes.c_void_p]
        self._run.restype = ctypes.c_int
        self._run_batch = lib.repro_run_batch
        self._run_batch.argtypes = [ctypes.c_void_p, ctypes.c_int64]
        self._run_batch.restype = ctypes.c_int
        self._pass_fns = []
        self._pass_batch_fns = []
        self._copy_fns = []
        for p in spec.passes:
            fn = getattr(lib, pass_symbol(p.kind))
            fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
            fn.restype = ctypes.c_int
            self._pass_fns.append(fn)
            bfn = getattr(lib, pass_symbol(p.kind) + "_batch")
            bfn.argtypes = [ctypes.c_void_p, ctypes.c_int64]
            bfn.restype = ctypes.c_int
            self._pass_batch_fns.append(bfn)
            copies = {}
            for phase in COPY_PHASES:
                sym = copy_symbol(p.kind, phase)
                if sym is None:
                    break
                cfn = getattr(lib, sym)
                cfn.argtypes = [
                    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                    ctypes.c_void_p,
                ]
                cfn.restype = ctypes.c_int
                copies[phase] = cfn
            self._copy_fns.append(copies)
        #: bytes of one worker's band-copy scratch ring
        self.ring_bytes = ring_elems(spec.itemsize) * spec.itemsize
        self._lib = lib  # keep the CDLL (and its mapping) alive

    @property
    def passes(self):
        return self.spec.passes

    # -- execution ---------------------------------------------------------

    def run(self, addr: int) -> None:
        """All passes over one ``m x n`` tile at buffer address ``addr``."""
        rc = self._run(addr)
        if rc != 0:
            raise NativeScratchError(rc - 1)

    def run_batch(self, addr: int, k: int) -> None:
        """All passes over ``k`` consecutive tiles."""
        rc = self._run_batch(addr, k)
        if rc != 0:
            npasses = len(self._pass_fns)
            gpi = rc - 1
            raise NativeScratchError(gpi % npasses, gpi // npasses)

    def run_pass(self, idx: int, addr: int, lo: int, hi: int) -> None:
        """Pass ``idx`` over ``[lo, hi)`` of its parallel axis."""
        if self._pass_fns[idx](addr, lo, hi) != 0:
            raise NativeScratchError(idx)

    def run_pass_batch(self, idx: int, addr: int, k: int) -> None:
        """Pass ``idx`` over the full axis of ``k`` consecutive tiles."""
        rc = self._pass_batch_fns[idx](addr, k)
        if rc != 0:
            raise NativeScratchError(idx, rc - 1)

    def copy_scratch(self, idx: int, workers: int) -> np.ndarray:
        """The scratch of both copy phases of one band of pass ``idx``:
        one ring per worker.  Allocated before the band loads, so a failed
        allocation (:class:`MemoryError`) has moved nothing."""
        return np.empty(max(1, workers) * self.ring_bytes, dtype=np.uint8)

    def run_pass_banded(
        self, idx: int, phase: str, map_addr: int, band_addr: int,
        lo: int, hi: int, r0: int, r1: int, ring_addr: int,
    ) -> None:
        """One worker's share of a band copy of pass ``idx``.

        ``phase`` is ``"load"`` (mapping -> band buffer) or ``"store"``
        (band buffer -> mapping); the pass is applied on the way.
        ``map_addr`` is the full ``m x n`` matrix, ``band_addr`` the buffer
        holding band ``[lo, hi)`` (global column groups or columns) of
        every row at the band's own width, ``[r0, r1)`` the mapped rows
        this call reads (load) or writes (store), and ``ring_addr`` this
        worker's ring of :meth:`copy_scratch`.
        """
        fn = self._copy_fns[idx].get(phase)
        if fn is None:
            raise ValueError(
                f"pass {idx} ({self.spec.passes[idx].kind}) has no banded "
                f"entry point for {phase!r}; a row band is permuted in place"
            )
        if fn(map_addr, band_addr, lo, hi, r0, r1, ring_addr) != 0:
            raise NativeScratchError(idx)

    # -- lifecycle ---------------------------------------------------------

    def release(self) -> None:
        """Unlink the on-disk artifact (idempotent).  The mapping stays
        valid for in-flight calls; disk is reclaimed now, address space at
        process exit."""
        with self._lock:
            if self._released:
                return
            self._released = True
        try:
            os.unlink(self.path)
        except OSError:
            pass

    @property
    def released(self) -> bool:
        return self._released

    def __repr__(self) -> str:
        s = self.spec
        return (
            f"NativeKernel({s.algorithm} {s.m}x{s.n} itemsize={s.itemsize}, "
            f"{self.artifact_bytes}B @ {self.path})"
        )
