"""Permutation verifier: the certificates themselves, and that they are
*discriminating* — a wrong map must fail, not just a right map pass."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.algebra import (
    composed_source_map,
    transposition_source_map,
    verify_lattice,
    verify_shape,
)


class TestReferencePermutation:
    def test_transposition_source_map_matches_numpy(self):
        m, n = 6, 8
        A = np.arange(m * n, dtype=np.int64)
        expected = A.reshape(m, n).T.ravel()
        assert np.array_equal(A[transposition_source_map(m, n)], expected)

    def test_source_map_is_a_permutation(self):
        src = transposition_source_map(9, 14)
        assert np.array_equal(np.sort(src), np.arange(9 * 14))


class TestComposition:
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    @pytest.mark.parametrize(
        "m,n",
        [(1, 1), (1, 7), (7, 1), (4, 6), (6, 4), (32, 32), (9, 14), (30, 42)],
    )
    def test_composed_passes_equal_transposition(self, m, n, algorithm):
        assert np.array_equal(
            composed_source_map(m, n, algorithm), transposition_source_map(m, n)
        )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            composed_source_map(4, 6, "zigzag")


class TestVerifyShape:
    @pytest.mark.parametrize(
        "m,n", [(1, 1), (2, 3), (4, 6), (12, 18), (13, 13), (16, 24), (31, 7)]
    )
    def test_representative_shapes_prove_clean(self, m, n):
        report = verify_shape(m, n)
        assert report.ok, [c.as_dict() for c in report.failures]
        assert report.checks, "a shape report must contain certificates"

    def test_report_shape_metadata(self):
        report = verify_shape(4, 6)
        d = report.as_dict()
        assert (d["m"], d["n"]) == (4, 6)
        assert d["ok"] is True and d["failures"] == []

    def test_certificates_cover_all_layers(self):
        names = {c.name for c in verify_shape(12, 18).checks}
        for fragment in (
            "decomposition",
            "bijective",
            "inversion",
            "composition",
            "fastdiv",
        ):
            assert any(fragment in name for name in names), (fragment, names)

    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_shapes_prove_clean(self, m, n):
        assert verify_shape(m, n, plan_objects=False).ok


class TestDiscrimination:
    """A verifier that cannot fail proves nothing: break each layer and
    watch the matching certificate trip."""

    def test_broken_composition_is_detected(self, monkeypatch):
        from repro.analysis import algebra

        def broken(m, n, algorithm):
            src = transposition_source_map(m, n).copy()
            if src.size >= 2:
                src[0], src[1] = src[1], src[0]
            return src

        monkeypatch.setattr(algebra, "composed_source_map", broken)
        report = algebra.verify_shape(4, 6, fastdiv=False, plan_objects=False)
        assert not report.ok
        assert any("composition" in c.name for c in report.failures)

    def test_broken_gather_map_is_detected(self, monkeypatch):
        from repro.analysis import algebra
        from repro.core import equations as eq

        real = eq.dprime_inverse_v

        def broken(dec, i, j):
            out = real(dec, i, j).copy()
            out[...] = 0  # constant map: wildly non-bijective
            return out

        monkeypatch.setattr(algebra.eq, "dprime_inverse_v", broken)
        report = algebra.verify_shape(4, 6, fastdiv=False, plan_objects=False)
        assert not report.ok


class TestOddAndPrimeShapes:
    """Non-square, prime, and degenerate shapes through the full analyze
    certificate stack — both algorithms, including the built-plan
    cross-check and corrupted-plan detection."""

    @pytest.mark.parametrize("m,n", [(7, 13), (13, 7), (1, 17), (17, 1)])
    def test_full_certificates_prove_clean(self, m, n):
        report = verify_shape(m, n, plan_objects=True)
        assert report.ok, [c.as_dict() for c in report.failures]
        names = {c.name for c in report.checks}
        # the plan-object cross-check covers order x algorithm explicitly
        for order in ("C", "F"):
            for algorithm in ("c2r", "r2c"):
                assert f"plan-object-{order}-{algorithm}" in names
        assert "composition-c2r" in names and "composition-r2c" in names

    @pytest.mark.parametrize("m,n", [(7, 13), (1, 17)])
    def test_corrupted_plan_is_detected(self, m, n, monkeypatch):
        from repro.core.plan import TransposePlan

        real = TransposePlan._apply_step

        def corrupted(V, idx):
            real(V, idx)
            # poison one cell with a value outside the permutation domain:
            # every plan step is a permutation, so the poison survives to
            # the final buffer no matter how later steps shuffle it
            V.reshape(-1)[0] = -1

        monkeypatch.setattr(
            TransposePlan, "_apply_step", staticmethod(corrupted)
        )
        report = verify_shape(m, n, fastdiv=False, plan_objects=True)
        assert not report.ok
        assert all(
            c.name.startswith("plan-object-") for c in report.failures
        ), [c.as_dict() for c in report.failures]
        # every order x algorithm variant runs the corrupted step
        assert len(report.failures) == 4


class TestVerifyLattice:
    def test_small_lattice_proves_clean(self):
        report = verify_lattice(12, 12)
        assert report.ok, report.failures
        assert report.shapes == 144
        assert report.checks > 0

    def test_progress_callback_reports_done_of_total(self):
        seen = []
        verify_lattice(3, 4, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(4, 12), (8, 12), (12, 12)]
