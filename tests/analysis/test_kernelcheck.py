"""Kernel verifier: clean kernels certify on odd/prime/degenerate shapes
for both algorithms, every advertised check runs, and corrupted
translation units are detected."""

from __future__ import annotations

import re

import pytest

from repro.analysis.kernelcheck import (
    DEFAULT_CONFIGS,
    NativeReport,
    verify_kernel,
    verify_native,
)
from repro.core.plan import TransposePlan
from repro.native.codegen import generate_source

ODD_SHAPES = [(7, 13), (13, 7), (1, 17), (17, 1)]

#: "auto" resolves to C2R, so tests that must see both kernels ask for each
ALGORITHMS = ("c2r", "r2c")


def source_for(m, n, *, order="C", algorithm="auto", itemsize=8):
    plan = TransposePlan(m, n, order=order, algorithm=algorithm)
    return generate_source(plan.dec, plan.algorithm, itemsize).source


class TestCleanKernels:
    @pytest.mark.parametrize("m,n", ODD_SHAPES)
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_odd_and_prime_shapes_certify(self, m, n, algorithm):
        rep = verify_kernel(m, n, algorithm=algorithm, thread_counts=(2,))
        assert rep.ok, [c.as_dict() for c in rep.failures]
        assert rep.algorithm == algorithm

    def test_f_order_and_narrow_itemsize_certify(self):
        for algorithm in ALGORITHMS:
            rep = verify_kernel(12, 18, order="F", algorithm=algorithm,
                                itemsize=2, thread_counts=(2,))
            assert rep.ok, [c.as_dict() for c in rep.failures]
            rep = verify_kernel(6, 4, algorithm=algorithm, itemsize=4,
                                thread_counts=(2,))
            assert rep.ok, [c.as_dict() for c in rep.failures]

    def test_all_advertised_checks_present(self):
        for algorithm in ALGORITHMS:
            self._assert_advertised_checks(algorithm)

    def _assert_advertised_checks(self, algorithm):
        rep = verify_kernel(12, 18, algorithm=algorithm, thread_counts=(2, 4))
        names = [c.name for c in rep.checks]
        for expected in (
            "parse",
            "symbols",
            "layout",
            "plan-constants",
            "plan-composition",
            "algebra-equivalence",
            "batch-run",
        ):
            assert expected in names
        for letter in "MNABC":
            assert f"fastdiv-{letter}" in names
        for i, pname in enumerate(rep.passes):
            assert f"pass{i}-{pname}-exec" in names
            assert f"pass{i}-{pname}-semantics" in names
            assert f"pass{i}-{pname}-chunks-t2" in names
            assert f"pass{i}-{pname}-chunks-t4" in names
        # 12x18 has c = gcd = 6 > 1, so the plan carries a rotate pass
        assert len(rep.passes) == 3

    def test_report_as_dict_shape(self):
        rep = verify_kernel(7, 13, thread_counts=(2,))
        d = rep.as_dict()
        assert d["ok"] is True
        assert d["failures"] == []
        assert d["checks"] == len(rep.checks)
        assert d["m"] == 7 and d["n"] == 13

    def test_algebra_equivalence_detail_names_the_relation(self):
        rep = verify_kernel(7, 13, algorithm="c2r", thread_counts=(2,))
        alg = next(c for c in rep.checks if c.name == "algebra-equivalence")
        assert "transposition_source_map" in alg.detail
        rep = verify_kernel(7, 13, algorithm="r2c", thread_counts=(2,))
        alg = next(c for c in rep.checks if c.name == "algebra-equivalence")
        assert "inverse" in alg.detail


class TestCorruptedKernels:
    def test_unparseable_source_fails_parse(self):
        rep = verify_kernel(7, 13, source="int64_t f( {", thread_counts=(2,))
        assert not rep.ok
        assert rep.checks[-1].name == "parse"

    def test_missing_symbol_fails(self):
        for alg in ALGORITHMS:
            src = source_for(7, 13, algorithm=alg)
            broken = src.replace("repro_run_batch", "repro_run_hatch")
            rep = verify_kernel(7, 13, algorithm=alg, source=broken,
                                thread_counts=(2,))
            assert not rep.ok
            fail = next(c for c in rep.checks if not c.ok)
            assert fail.name == "symbols"
            assert "repro_run_batch" in fail.detail

    def test_wrong_plan_constant_fails(self):
        for alg in ALGORITHMS:
            src = source_for(7, 13, algorithm=alg)
            broken = re.sub(
                r"#define M INT64_C\((\d+)\)",
                lambda mo: f"#define M INT64_C({int(mo.group(1)) + 1})",
                src,
                count=1,
            )
            assert broken != src
            rep = verify_kernel(7, 13, algorithm=alg, source=broken,
                                thread_counts=(2,))
            assert not rep.ok
            assert any(
                not c.ok and c.name == "plan-constants" for c in rep.checks
            ), alg

    def test_corrupted_fastdiv_multiplier_fails(self):
        for alg in ALGORITHMS:
            src = source_for(12, 18, algorithm=alg)
            mo = re.search(
                r"#define DIV_M\(x\) \(\(int64_t\)\(\(\(uint64_t\)\(x\) \* "
                r"UINT64_C\((\d+)\)",
                src,
            )
            assert mo is not None
            lit = mo.group(1)
            broken = src.replace(
                f"UINT64_C({lit})", f"UINT64_C({int(lit) * 3})", 1
            )
            rep = verify_kernel(12, 18, algorithm=alg, source=broken,
                                thread_counts=(2,))
            assert not rep.ok
            assert any(
                not c.ok and c.name == "fastdiv-M" for c in rep.checks
            ), alg

    def test_corrupted_gather_is_caught_by_pass_semantics(self):
        # swap the c2r algorithm's source for the r2c kernel of the same
        # decomposition: parses, has the symbols, but computes the inverse
        # permutation — the per-pass layout/semantics checks must object.
        wrong = source_for(7, 13, algorithm="r2c")
        rep = verify_kernel(7, 13, algorithm="c2r", source=wrong,
                            thread_counts=(2,))
        assert not rep.ok


class TestVerifyNative:
    def test_sweep_over_odd_shapes_both_algorithms(self):
        configs = [(m, n, "C", 8) for m, n in ODD_SHAPES]
        rep = verify_native(configs, thread_counts=(2,))
        assert isinstance(rep, NativeReport)
        assert rep.ok
        assert len(rep.kernels) == 2 * len(configs)
        seen = {(k.m, k.n, k.algorithm) for k in rep.kernels}
        assert (7, 13, "c2r") in seen and (13, 7, "r2c") in seen

    def test_sweep_skips_ineligible_configs_with_reason(self):
        # itemsize 3 is not a width the codegen emits kernels for
        rep = verify_native([(6, 4, "C", 3)], thread_counts=(2,))
        assert rep.kernels == []
        assert len(rep.skipped) == 2
        assert all(s["reason"] for s in rep.skipped)
        assert rep.ok  # skipped-only sweeps are vacuously ok

    def test_progress_callback_receives_lines(self):
        lines = []
        verify_native([(6, 4, "C", 4)], thread_counts=(2,),
                      progress=lines.append)
        assert len(lines) == 2
        assert all("kernelcheck 6x4" in ln for ln in lines)

    def test_as_dict_aggregates(self):
        rep = verify_native([(7, 13, "C", 8)], thread_counts=(2,))
        d = rep.as_dict()
        assert d["ok"] is True
        assert d["kernels"] == 2
        assert d["checks"] == sum(len(k.checks) for k in rep.kernels)
        assert len(d["reports"]) == 2

    def test_default_configs_cover_the_ci_lattice(self):
        shapes = {(m, n) for m, n, _, _ in DEFAULT_CONFIGS}
        assert (256, 384) in shapes  # bench-smoke shape
        assert any(order == "F" for _, _, order, _ in DEFAULT_CONFIGS)
        sizes = {i for _, _, _, i in DEFAULT_CONFIGS}
        assert {1, 2, 4, 8, 16} <= sizes

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_column_shuffle_certified_off_the_stripe_grid(self, algorithm):
        # 16-byte elements skew in 32-column stripes; m > 32 on both sides,
        # so whole stripes run, and the banded certificate's bands (c0 > 0)
        # and chunks start at columns that are not multiples of 32
        from repro.core.indexing import Decomposition
        from repro.parallel.partition import balanced_chunks

        assert (48, 100, "C", 16) in DEFAULT_CONFIGS
        rep = verify_kernel(48, 100, algorithm=algorithm, itemsize=16,
                            thread_counts=(2, 3))
        assert rep.ok, [c.as_dict() for c in rep.failures]
        col = next(p for p in rep.passes if "column_shuffle" in p)
        names = {c.name for c in rep.checks}
        idx = rep.passes.index(col)
        assert {f"pass{idx}-{col}-banded", f"pass{idx}-{col}-chunks-t3"} <= names
        dec = (Decomposition.of(48, 100) if algorithm == "c2r"
               else Decomposition.of(100, 48))
        assert dec.m > 32
        starts = {
            b.start + ch.start
            for b in balanced_chunks(dec.n, 3)
            for ch in balanced_chunks(b.stop - b.start, 2)
        }
        assert any(s % 32 for s in starts)
        assert any(b.start > 0 for b in balanced_chunks(dec.n, 3))
