"""The compiled native kernel backend.

Differential correctness against the numpy executors over a
dtype x order x shape lattice, plan-cache byte accounting of the ``.so``
artifacts (including eviction unlinking them), concurrent first-compile,
the all-or-nothing scratch allocation, and every leg of the fallback
resolution contract (``REPRO_NATIVE=0``, no compiler, min-elems floor,
explicit backend requests).

Tests that need a real toolchain are skipped on machines without one; the
fallback tests pin ``CC`` to a nonexistent path so they run everywhere.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import native
from repro.core.batched import batched_transpose_inplace
from repro.core.c2r import c2r_transpose
from repro.core.plan import TransposePlan
from repro.core.r2c import r2c_transpose
from repro.core.transpose import transpose_inplace
from repro.native.kernel import NativeKernel
from repro.parallel import ParallelTranspose
from repro.runtime import metrics, plan_cache
from repro.stream import transpose_file_inplace

requires_toolchain = pytest.mark.skipif(
    not native.available(), reason="no C toolchain on this machine"
)


@pytest.fixture(autouse=True)
def _clean_state():
    """Known-clean plan cache and metrics around every test."""
    cache = plan_cache.get_plan_cache()
    saved = (cache.max_bytes, cache.enabled)
    plan_cache.clear()
    cache.reset_stats()
    metrics.reset()
    yield
    cache.configure(max_bytes=saved[0], enabled=saved[1])
    plan_cache.clear()
    cache.reset_stats()
    metrics.reset()


@pytest.fixture
def _unsanitized(monkeypatch):
    """The shadow-memory sanitizer forces numpy (it must see every index),
    so under ``REPRO_SANITIZE=1`` a test that asserts the compiled kernels
    ran (a compile, a kernel call, an artifact) would see none.  Those
    tests take this fixture through :data:`needs_native_run`; every other
    test here runs sanitized under ``REPRO_SANITIZE=1``, and
    :class:`TestSanitizedNative` turns the sanitizer on itself."""
    from repro.analysis import racecheck

    monkeypatch.setattr(racecheck.sanitizer, "enabled", False)


#: marks a test that asserts native execution happened
needs_native_run = pytest.mark.usefixtures("_unsanitized")


def _counters() -> dict:
    return metrics.registry.snapshot()["counters"]


#: "auto" runs C2R; R2C is reached only by asking for it, so every
#: differential below runs both explicitly
ALGORITHMS = ("c2r", "r2c")


def _expected(buf: np.ndarray, m: int, n: int, order: str) -> np.ndarray:
    """Ground truth via out-of-place numpy reshape."""
    if order == "C":
        return np.ascontiguousarray(buf.reshape(m, n).T).ravel()
    return np.asfortranarray(buf.reshape(m, n, order="F").T).ravel(order="F")


# ---------------------------------------------------------------------------
# differential lattice
# ---------------------------------------------------------------------------


@requires_toolchain
class TestDifferential:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "m,n", [(31, 47), (48, 36), (64, 64), (256, 384)]
    )
    def test_native_matches_numpy_across_shapes(self, m, n, order):
        proto = np.arange(m * n, dtype=np.float64)
        for alg in ALGORITHMS:
            nat = transpose_inplace(
                proto.copy(), m, n, order, algorithm=alg, backend="native"
            )
            ref = transpose_inplace(
                proto.copy(), m, n, order, algorithm=alg, backend="numpy"
            )
            np.testing.assert_array_equal(nat, ref)
            np.testing.assert_array_equal(nat, _expected(proto, m, n, order))

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.float32, np.float64, np.complex128]
    )
    @pytest.mark.parametrize("order,m,n", [("C", 256, 384), ("F", 48, 36)])
    def test_native_matches_numpy_across_dtypes(self, dtype, order, m, n):
        proto = np.arange(m * n).astype(dtype)
        for alg in ALGORITHMS:
            nat = transpose_inplace(
                proto.copy(), m, n, order, algorithm=alg, backend="native"
            )
            ref = transpose_inplace(
                proto.copy(), m, n, order, algorithm=alg, backend="numpy"
            )
            np.testing.assert_array_equal(nat, ref)

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_both_decompositions(self, algorithm):
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        nat = transpose_inplace(
            proto.copy(), m, n, algorithm=algorithm, backend="native"
        )
        np.testing.assert_array_equal(nat, _expected(proto, m, n, "C"))

    @needs_native_run
    def test_auto_backend_selects_native_above_floor(self):
        m, n = 256, 384  # 98304 elements >= the 16384 default floor
        proto = np.arange(m * n, dtype=np.float64)
        out = transpose_inplace(proto.copy(), m, n)
        np.testing.assert_array_equal(out, _expected(proto, m, n, "C"))
        assert _counters().get("native.compile", 0) == 1

    @needs_native_run
    def test_batched_native_matches_numpy(self):
        k, m, n = 3, 64, 48
        proto = np.arange(k * m * n, dtype=np.float64)
        tiles = proto.copy().reshape(k, m, n)
        expected = np.ascontiguousarray(tiles.transpose(0, 2, 1)).ravel()
        for alg in ALGORITHMS:
            nat = batched_transpose_inplace(
                proto.copy(), m, n, algorithm=alg, backend="native"
            )
            ref = batched_transpose_inplace(
                proto.copy(), m, n, algorithm=alg, backend="numpy"
            )
            np.testing.assert_array_equal(nat, ref)
            np.testing.assert_array_equal(nat, expected)
        assert _counters().get("native.compile", 0) == 2

    @needs_native_run
    def test_parallel_native_matches_interpreter(self):
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        expected = _expected(proto, m, n, "C")
        # C order: c2r runs on the (m, n) view, r2c on the (n, m) view
        for alg, (vm, vn) in (("c2r", (m, n)), ("r2c", (n, m))):
            with ParallelTranspose(2, native="auto") as pt:
                nat = getattr(pt, alg)(proto.copy(), vm, vn)
            with ParallelTranspose(2, native="off") as pt:
                ref = getattr(pt, alg)(proto.copy(), vm, vn)
            np.testing.assert_array_equal(nat, ref)
            np.testing.assert_array_equal(nat, expected)
        # the native chunks actually engaged (one kernel per algorithm)
        assert _counters().get("native.compile", 0) == 2


# ---------------------------------------------------------------------------
# the column shuffle: a column skew plus one static row permutation
# ---------------------------------------------------------------------------


def _restricted(proto: np.ndarray, m: int, n: int, alg: str) -> np.ndarray:
    """The numpy restricted formulation (Eqs. 32-35) of ``alg`` on the
    row-major ``m x n`` view."""
    fn = c2r_transpose if alg == "c2r" else r2c_transpose
    return fn(proto.copy(), m, n, variant="restricted")


def _distinct(m: int, n: int, dtype) -> np.ndarray:
    """``m * n`` elements of ``dtype``, pairwise distinct where the width
    allows and pseudo-random bytes where it does not."""
    dt = np.dtype(dtype)
    if dt.itemsize >= 4:
        return np.arange(m * n).astype(dt)
    rng = np.random.default_rng(m * 7919 + n)
    return rng.integers(0, 1 << (8 * dt.itemsize), m * n).astype(dt)


def _run_band_copies(kernel, dec, V: np.ndarray, bands: int, workers: int) -> None:
    """Every pass of ``kernel`` over ``V`` as the streamed executor runs
    it: the row pass in place, each column-facing pass band by band
    through a band-sized buffer, loaded and stored in mapped-row blocks
    split as ``workers`` workers split them."""
    from repro.parallel.partition import balanced_chunks

    m = dec.m
    scratch = kernel.alloc_scratch()
    blocks = [
        (share.start + b.start, share.start + b.stop)
        for share in balanced_chunks(m, workers)
        for b in balanced_chunks(share.stop - share.start, 2)
    ]
    for i, p in enumerate(kernel.passes):
        if p.axis == "rows":
            kernel.run_pass(i, V.ctypes.data, 0, p.extent)
            continue
        unit = dec.b if p.axis == "groups" else 1
        for bnd in balanced_chunks(p.extent, min(bands, p.extent)):
            B = np.empty((m, (bnd.stop - bnd.start) * unit), dtype=V.dtype)
            for phase in ("load", "store"):
                for r0, r1 in blocks:
                    kernel.run_pass_banded(
                        i, phase, V.ctypes.data, B.ctypes.data,
                        bnd.start, bnd.stop, r0, r1, scratch.ctypes.data,
                    )


def _run_chunked(kernel, addr: int, threads: int) -> None:
    """Every pass over the schedule's ``threads`` column/row chunks."""
    from repro.parallel.partition import balanced_chunks

    for i, p in enumerate(kernel.passes):
        for ch in balanced_chunks(p.extent, threads):
            kernel.run_pass(i, addr, ch.start, ch.stop)


@requires_toolchain
class TestColumnShuffle:
    """The compiled column shuffle streams each stripe of columns through
    a ring (the skew, Eq. 32/35) and permutes whole sub-rows by cycle
    following (Eq. 33/34); the narrow-group rotation (Eq. 23/36, ``b *
    itemsize < 64``) runs through the same ring in units of one group.
    Every pass must equal the restricted numpy form byte for byte,
    whatever the stripe, chunk and band geometry."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize(
        "m,n,dtype",
        [
            (7, 13, np.float64),  # m below the stripe width, c = 1
            (1, 300, np.float32),  # one row
            (300, 1, np.float32),  # one column
            (130, 257, np.uint8),  # c = 1, stripes of 128 one-byte columns
            (96, 300, np.uint16),
            (200, 700, np.float32),  # m above the stripe width
            (150, 1000, np.float64),
            (300, 96, np.complex128),  # itemsize 16
            (1536, 1024, np.float32),  # 4 KiB row pitch
            (2000, 100, np.float64),  # tall and narrow: b = 1, two stripes
            (300, 600, np.uint8),  # a = 1, b = 2: row-reversed stripes
            (256, 384, np.uint8),  # b = 3: one memcpy per group
        ],
    )
    def test_byte_identical_to_restricted(self, m, n, dtype, alg, threads):
        from repro.core.indexing import Decomposition
        from repro.native.codegen import generate_source
        from repro.native.kernel import compile_spec

        proto = _distinct(m, n, dtype)
        kernel = compile_spec(
            generate_source(Decomposition.of(m, n), alg, proto.itemsize)
        )
        buf = proto.copy()
        _run_chunked(kernel, buf.ctypes.data, threads)
        ref = _restricted(proto, m, n, alg)
        assert buf.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize(
        "m,n,dtype,bands",
        [
            (200, 1000, np.float32, 3),  # 334/333/333: no band a stripe multiple
            (150, 700, np.uint8, 4),
            (40, 500, np.complex128, 3),
        ],
    )
    def test_bands_off_the_stripe_grid(self, m, n, dtype, bands, alg):
        from repro.core.indexing import Decomposition
        from repro.native.codegen import generate_source
        from repro.native.kernel import compile_spec

        dec = Decomposition.of(m, n)
        proto = _distinct(m, n, dtype)
        kernel = compile_spec(generate_source(dec, alg, proto.itemsize))
        V = proto.copy().reshape(m, n)
        _run_band_copies(kernel, dec, V, bands, workers=2)
        assert V.tobytes() == _restricted(proto, m, n, alg).tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    @needs_native_run
    def test_threaded_transposer_matches_restricted(
        self, alg, threads, tmp_path, monkeypatch
    ):
        # an empty artifact directory, so the kernel compiles here
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = 1536, 1024  # 4 KiB row pitch, native-sized
        proto = np.arange(m * n, dtype=np.float32)
        buf = proto.copy()
        with ParallelTranspose(threads) as pt:
            getattr(pt, alg)(buf, m, n)
        assert buf.tobytes() == _restricted(proto, m, n, alg).tobytes()
        assert _counters().get("native.compile", 0) == 1


# ---------------------------------------------------------------------------
# plan-cache accounting of compiled artifacts
# ---------------------------------------------------------------------------


@requires_toolchain
@requires_toolchain
class TestBandedEntryPoints:
    """``run_pass_banded``: the band copies of the column-facing passes,
    which apply the pass between the matrix and a band-sized buffer,
    compose to the same permutation as the full-width entry points — the
    contract the out-of-core ``BandedExecutor`` runs on."""

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    @pytest.mark.parametrize("m,n", [(12, 18), (12, 96), (31, 47)])
    def test_banded_composes_to_full_pass(self, m, n, algorithm):
        from repro.core.indexing import Decomposition
        from repro.native.codegen import generate_source
        from repro.native.kernel import compile_spec

        dec = Decomposition.of(m, n)
        kernel = compile_spec(generate_source(dec, algorithm, 8))
        ref = np.arange(m * n, dtype=np.uint64).reshape(m, n)
        for i, p in enumerate(kernel.passes):
            kernel.run_pass(i, ref.ctypes.data, 0, p.extent)
        got = np.arange(m * n, dtype=np.uint64).reshape(m, n)
        for workers in (1, 3):
            got[...] = np.arange(m * n, dtype=np.uint64).reshape(m, n)
            _run_band_copies(kernel, dec, got, 3, workers)
            np.testing.assert_array_equal(got, ref)

    def test_row_pass_has_no_banded_variant(self):
        from repro.core.indexing import Decomposition
        from repro.native.codegen import generate_source
        from repro.native.kernel import compile_spec

        kernel = compile_spec(
            generate_source(Decomposition.of(12, 18), "c2r", 8)
        )
        idx = next(
            i for i, p in enumerate(kernel.passes) if p.axis == "rows"
        )
        for phase in ("load", "store"):
            with pytest.raises(ValueError, match="no banded entry point"):
                kernel.run_pass_banded(idx, phase, 0, 0, 0, 1, 0, 1, 0)


class TestArtifactAccounting:
    @needs_native_run
    def test_so_bytes_charged_to_plan_cache_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        cache = plan_cache.get_plan_cache()
        transpose_inplace(proto.copy(), m, n, backend="numpy")
        plan_only_bytes = cache.current_bytes
        transpose_inplace(proto.copy(), m, n, backend="native")
        artifacts = list(tmp_path.glob("repro_native_*.so"))
        assert len(artifacts) == 1
        delta = cache.current_bytes - plan_only_bytes
        assert delta == artifacts[0].stat().st_size > 0

    @needs_native_run
    def test_plans_sharing_an_artifact_compile_once(self, tmp_path, monkeypatch):
        # float32 and int32 plans of one shape, and the F-order plan of the
        # swapped shape, are three plans over one decomposition: one .so
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = 256, 384
        for dtype, shape, order in (
            (np.float32, (m, n), "C"),
            (np.int32, (m, n), "C"),
            (np.float32, (n, m), "F"),
        ):
            buf = np.arange(m * n).astype(dtype)
            transpose_inplace(buf, *shape, order, backend="native")
        assert len(plan_cache.get_plan_cache()) == 3
        assert len(list(tmp_path.glob("repro_native_*.so"))) == 1
        assert _counters().get("native.compile", 0) == 1

    @needs_native_run
    def test_clear_unlinks_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        proto = np.arange(256 * 384, dtype=np.float64)
        transpose_inplace(proto.copy(), 256, 384, backend="native")
        assert list(tmp_path.glob("*.so"))
        plan_cache.clear()
        assert not list(tmp_path.glob("*.so"))

    @needs_native_run
    def test_eviction_under_byte_budget_unlinks_artifact(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        cache = plan_cache.get_plan_cache()
        proto_a = np.arange(256 * 384, dtype=np.float64)
        proto_b = np.arange(192 * 320, dtype=np.float64)
        transpose_inplace(proto_a.copy(), 256, 384, backend="native")
        transpose_inplace(proto_b.copy(), 192, 320, backend="native")
        assert len(list(tmp_path.glob("*.so"))) == 2
        evictions_before = cache.stats()["evictions"]
        # A budget smaller than either entry: everything evictable goes
        # (the cache keeps at most the single most-recent entry).
        cache.configure(max_bytes=1)
        assert cache.stats()["evictions"] > evictions_before
        assert len(list(tmp_path.glob("*.so"))) <= 1
        plan_cache.clear()
        assert not list(tmp_path.glob("*.so"))

    @needs_native_run
    def test_concurrent_first_compile_produces_one_artifact(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        expected = _expected(proto, m, n, "C")
        barrier = threading.Barrier(2)
        failures: list[Exception] = []

        def work():
            try:
                buf = proto.copy()
                barrier.wait(timeout=30)
                transpose_inplace(buf, m, n, backend="native")
                np.testing.assert_array_equal(buf, expected)
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures
        assert len(list(tmp_path.glob("repro_native_*.so"))) == 1
        assert _counters().get("native.compile", 0) == 1

    def test_release_is_idempotent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = 256, 384
        transpose_inplace(
            np.arange(m * n, dtype=np.float64), m, n, backend="native"
        )
        plan = plan_cache.get_single_plan(
            m, n, "C", "auto", np.dtype(np.float64)
        )
        kernel = native.kernel_for_plan(plan, 8)
        assert kernel is not None and not kernel.released
        kernel.release()
        assert kernel.released
        kernel.release()  # second call is a no-op
        assert not list(tmp_path.glob("*.so"))


# ---------------------------------------------------------------------------
# plans without maps: the native path never builds the O(mn) gather maps
# ---------------------------------------------------------------------------


class TestPlanFootprint:
    # Above REPRO_NATIVE_MIN_ELEMS.  A round trip runs one algorithm both
    # ways, through two distinct cached single plans (one per direction);
    # each test covers both algorithms.
    m, n = 256, 384

    def _map_bytes(self, algorithm: str) -> int:
        """Gather-map bytes of one direction of the round trip."""
        plan = TransposePlan(self.m, self.n, "C", algorithm)
        plan.execute(np.zeros(self.m * self.n, np.float32), backend="numpy")
        return plan.scratch_bytes

    @requires_toolchain
    @needs_native_run
    def test_parallel_round_trips_stay_cached_under_tight_budget(
        self, tmp_path, monkeypatch
    ):
        """A budget below one direction's map bytes still holds both
        directions: with no maps, each plan costs only its ``.so``."""
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = self.m, self.n
        cache = plan_cache.get_plan_cache()
        proto = np.arange(m * n, dtype=np.float32)
        expected = _expected(proto, m, n, "C")
        for alg in ALGORITHMS:
            plan_cache.clear()
            cache.reset_stats()
            metrics.reset()
            cache.configure(max_bytes=self._map_bytes(alg) - 1)
            with ParallelTranspose(2) as pt:
                run = getattr(pt, alg)
                # C order: c2r runs on the (rows, cols) view, r2c on the swap
                there, back = ((m, n), (n, m)) if alg == "c2r" else ((n, m), (m, n))
                buf = proto.copy()
                run(buf, *there)  # warm-up: build and compile both
                run(buf, *back)
                before = cache.stats()
                compiles = _counters().get("native.compile", 0)
                for _ in range(3):
                    run(buf, *there)
                    np.testing.assert_array_equal(buf, expected)
                    run(buf, *back)
                    np.testing.assert_array_equal(buf, proto)
            after = cache.stats()
            assert after["misses"] == before["misses"], alg
            assert after["evictions"] == before["evictions"] == 0, alg
            assert after["hits"] - before["hits"] == 6, alg
            assert _counters().get("native.compile", 0) == compiles == 2, alg
            plans = [plan for plan, _ in cache._plans.values()]
            assert len(plans) == 2, alg
            assert {plan.algorithm for plan in plans} == {alg}
            assert all(plan.scratch_bytes == 0 for plan in plans), alg

    def test_numpy_execute_builds_and_charges_maps(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        m, n = self.m, self.n
        cache = plan_cache.get_plan_cache()
        proto = np.arange(m * n, dtype=np.float32)
        for alg in ALGORITHMS:
            plan_cache.clear()
            plan = plan_cache.get_single_plan(
                m, n, "C", alg, np.dtype(np.float32)
            )
            assert plan.scratch_bytes == 0
            assert cache.current_bytes == 0
            buf = proto.copy()
            transpose_inplace(buf, m, n, algorithm=alg)
            np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
            assert plan.scratch_bytes == self._map_bytes(alg) > 0
            assert cache.current_bytes == plan.scratch_bytes
            # the other direction: its own maps
            transpose_inplace(buf, n, m, algorithm=alg)
            assert len(cache) == 2
            assert cache.current_bytes == sum(
                p.scratch_bytes for p, _ in cache._plans.values()
            ) > plan.scratch_bytes


# ---------------------------------------------------------------------------
# one scratch allocation per call, before any element moves
# ---------------------------------------------------------------------------


def _scratch_case(case: str, tmp_path):
    """``(run, contents)`` for one native entry point over a fresh input:
    ``run()`` transposes it, ``contents()`` is its bytes now."""
    m, n = 256, 384  # gcd 128: all three passes run natively
    if case == "stream":
        # 150k native-sized elements through a 64 KiB window: many bands
        m, n = 300, 500
        path = tmp_path / "m.bin"
        np.arange(m * n, dtype=np.float32).tofile(path)
        return (
            lambda: transpose_file_inplace(
                path, m, n, np.float32, window_bytes=64 * 1024, n_threads=2
            ),
            path.read_bytes,
        )
    k = 3 if case == "batched" else 1
    buf = np.arange(k * m * n, dtype=np.float64)
    if case == "batched":
        def run():
            batched_transpose_inplace(buf, m, n, backend="native")
    elif case == "parallel":
        def run():
            with ParallelTranspose(2) as pt:
                pt.c2r(buf, m, n)
    else:
        def run():
            transpose_inplace(buf, m, n, algorithm=case, backend="native")
    return run, buf.tobytes


_SCRATCH_CASES = ["c2r", "r2c", "batched", "parallel", "stream"]


@requires_toolchain
@needs_native_run
class TestScratchAllocation:
    """Every native call allocates its kernels' scratch once, before the
    first pass, and no kernel entry point allocates: a failed allocation
    raises :class:`MemoryError` with the input exactly as it was, and is
    not a native fallback (nothing is redone on numpy)."""

    @staticmethod
    def _fail_allocation(monkeypatch) -> list:
        calls: list = []

        def failing(self, slots=1):
            calls.append(slots)
            raise MemoryError("injected scratch allocation failure")

        monkeypatch.setattr(NativeKernel, "alloc_scratch", failing)
        return calls

    @pytest.mark.parametrize("case", _SCRATCH_CASES)
    def test_failed_allocation_raises_with_input_untouched(
        self, case, tmp_path, monkeypatch
    ):
        run, contents = _scratch_case(case, tmp_path)
        before = contents()
        fallbacks = _counters().get("native.fallback", 0)
        calls = self._fail_allocation(monkeypatch)
        with pytest.raises(MemoryError, match="injected"):
            run()
        assert calls == [2 if case in ("parallel", "stream") else 1]
        assert contents() == before
        assert _counters().get("native.fallback", 0) == fallbacks


# ---------------------------------------------------------------------------
# sanitizer x native: sanitized runs must force numpy
# ---------------------------------------------------------------------------


class TestSanitizedNative:
    """``REPRO_SANITIZE=1`` must force the numpy fallback for native
    requests: compiled kernels bypass the shadow-memory hooks, so a
    sanitized run that silently used one would validate nothing.  Both the
    single and batched executors must refuse the kernel, run the hooked
    gathers, and leave an observable ``native.fallback`` record."""

    @pytest.fixture(autouse=True)
    def _sanitized(self, monkeypatch):
        from repro.analysis import racecheck

        was = racecheck.sanitizer.enabled
        racecheck.enable()
        monkeypatch.setattr(native, "_warned_once", True)  # silence
        yield
        racecheck.sanitizer.enabled = was

    def test_single_sanitized_native_records_shadow_coverage(self):
        from repro.analysis.racecheck import sanitizer

        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        before = sanitizer.stats()["passes_checked"]
        buf = proto.copy()
        transpose_inplace(buf, m, n, backend="native")
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert sanitizer.stats()["passes_checked"] > before
        assert _counters().get("native.fallback", 0) >= 1
        assert _counters().get("native.compile", 0) == 0

    def test_batched_sanitized_native_records_shadow_coverage(self):
        from repro.analysis.racecheck import sanitizer

        k, m, n = 3, 64, 48
        proto = np.arange(k * m * n, dtype=np.float64)
        before = sanitizer.stats()["passes_checked"]
        buf = proto.copy()
        batched_transpose_inplace(buf, m, n, backend="native")
        tiles = proto.copy().reshape(k, m, n)
        expected = np.ascontiguousarray(tiles.transpose(0, 2, 1)).ravel()
        np.testing.assert_array_equal(buf, expected)
        assert sanitizer.stats()["passes_checked"] > before
        assert _counters().get("native.fallback", 0) >= 1
        assert _counters().get("native.compile", 0) == 0

    def test_batched_sanitizer_catches_out_of_range_gather(self):
        from repro.analysis.racecheck import SanitizerError
        from repro.core.batched import BatchedTransposePlan

        k, m, n = 2, 12, 18
        plan = BatchedTransposePlan(m, n)
        kind, idx = plan._steps[0]
        bad = idx.copy()
        bad[-1] = m * n + 3  # past the last tile's end
        plan._steps[0] = (kind, bad)
        with pytest.raises(SanitizerError) as exc:
            plan.execute(np.arange(k * m * n, dtype=np.int64))
        assert exc.value.kind == "out-of-bounds read"


# ---------------------------------------------------------------------------
# optimisation flags
# ---------------------------------------------------------------------------


@requires_toolchain
class TestCompileFlags:
    def test_compiler_rejecting_gcc_passes_gets_plain_o2(
        self, tmp_path, monkeypatch
    ):
        """A compiler that fails on ``-fsplit-loops`` is retried at plain
        ``-O2``, once: the next unit goes straight to plain ``-O2``.  Each
        unit compiles as two translation units (the passes and the band
        copies)."""
        import stat

        from repro.core.indexing import Decomposition
        from repro.native import kernel as K
        from repro.native.codegen import generate_source

        real = K.find_compiler()
        log = tmp_path / "calls.log"
        fake = tmp_path / "fakecc"
        fake.write_text(
            "#!/bin/sh\n"
            f'echo "$*" >> "{log}"\n'
            'for a in "$@"; do\n'
            '  if [ "$a" = -fsplit-loops ]; then\n'
            '    echo "fakecc: unknown argument: $a" >&2; exit 1\n'
            "  fi\n"
            "done\n"
            f'exec "{real}" "$@"\n'
        )
        fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("CC", str(fake))
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "so"))
        monkeypatch.setattr(K, "_plain_opt", set())

        def o2_calls() -> tuple[int, int]:
            lines = log.read_text().splitlines() if log.exists() else []
            rejected = sum("-fsplit-loops" in ln for ln in lines)
            plain = sum(
                " -O2 " in f" {ln} " and "-fsplit-loops" not in ln
                for ln in lines
            )
            return rejected, plain

        for k, (m, n) in enumerate([(12, 18), (14, 21)]):
            spec = generate_source(Decomposition.of(m, n), "c2r", 8)
            kern = K.compile_spec(spec)
            proto = np.arange(m * n, dtype=np.float64)
            buf = proto.copy()
            for i, p in enumerate(kern.passes):
                kern.run_pass(i, buf.ctypes.data, 0, p.extent)
            assert buf.tobytes() == _restricted(proto, m, n, "c2r").tobytes()
            assert o2_calls() == (2, 2 * (k + 1)), log.read_text()
        assert K._plain_opt == {str(fake)}


# ---------------------------------------------------------------------------
# fallback resolution contract
# ---------------------------------------------------------------------------


class TestFallbackContract:
    def test_no_compiler_falls_back_with_warning_and_metric(
        self, monkeypatch
    ):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(native, "_warned_once", False)
        m, n = 160, 128
        proto = np.arange(m * n, dtype=np.float64)
        buf = proto.copy()
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            transpose_inplace(buf, m, n, backend="native")
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert _counters().get("native.fallback", 0) == 1
        assert _counters().get("native.compile", 0) == 0
        # the failed resolution is memoized, but the metric still fires
        transpose_inplace(proto.copy(), m, n, backend="native")
        assert _counters().get("native.fallback", 0) == 2

    def test_repro_native_0_is_silent_for_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(native, "_warned_once", False)
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        buf = proto.copy()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transpose_inplace(buf, m, n)
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert _counters().get("native.fallback", 0) == 0
        assert _counters().get("native.compile", 0) == 0

    def test_repro_native_0_with_explicit_request_records_fallback(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(native, "_warned_once", True)
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        buf = proto.copy()
        transpose_inplace(buf, m, n, backend="native")
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert _counters().get("native.fallback", 0) == 1

    @requires_toolchain
    @needs_native_run
    def test_min_elems_floor_gates_auto_but_not_explicit(self):
        m, n = 32, 48  # 1536 elements, far below the 16384 floor
        proto = np.arange(m * n, dtype=np.float64)
        transpose_inplace(proto.copy(), m, n)  # auto: stays on numpy
        assert _counters().get("native.compile", 0) == 0
        buf = proto.copy()
        transpose_inplace(buf, m, n, backend="native")  # explicit: compiles
        assert _counters().get("native.compile", 0) == 1
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))

    @requires_toolchain
    @needs_native_run
    def test_min_elems_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_MIN_ELEMS", "100")
        m, n = 32, 48
        transpose_inplace(np.arange(m * n, dtype=np.float64), m, n)
        assert _counters().get("native.compile", 0) == 1

    def test_native_requires_plan_cache_path(self):
        proto = np.arange(64 * 96, dtype=np.float64)
        with pytest.raises(ValueError, match="cached-plan path"):
            transpose_inplace(
                proto, 64, 96, use_plan_cache=False, backend="native"
            )

    def test_unknown_backend_rejected(self):
        proto = np.arange(64 * 96, dtype=np.float64)
        with pytest.raises(ValueError, match="backend"):
            transpose_inplace(proto, 64, 96, backend="fortran")

    def test_unavailable_reason_strings(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native.unavailable_reason() == "disabled by REPRO_NATIVE=0"
        monkeypatch.setenv("REPRO_NATIVE", "1")
        monkeypatch.setenv("CC", "/nonexistent/cc")
        assert native.unavailable_reason() == "no C compiler available"
        assert not native.available()


# ---------------------------------------------------------------------------
# toolchains
# ---------------------------------------------------------------------------


@requires_toolchain
@needs_native_run
class TestToolchains:
    def test_profile_reports_native_backend(self):
        from repro.trace.profile import profile_shape

        prof = profile_shape(256, 384, repeats=1, backend="native")
        assert prof.backend == "native"
        prof = profile_shape(256, 384, repeats=1, backend="numpy")
        assert prof.backend == "numpy"
