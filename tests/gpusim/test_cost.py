"""Tests for the GPU cost models: the paper's orderings must hold."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.cost import (
    auto_cost,
    c2r_cost,
    paper_heuristic,
    r2c_cost,
    skinny_cost,
    sung_cost,
)
from repro.gpusim.device import TESLA_K20C
from repro.gpusim.traces import (
    cached_row_gather_efficiency,
    fine_rotate_fraction,
    row_gather_efficiency,
    subrow_efficiency,
)
from repro.core.indexing import Decomposition


def _median(vals):
    return float(np.median(np.asarray(vals)))


class TestTraceEfficiencies:
    def test_gather_efficiency_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for m, n in [(977, 1009), (4096, 8192), (13, 100000)]:
            dec = Decomposition.of(m, n)
            for s in (4, 8):
                e = row_gather_efficiency(dec, s, TESLA_K20C, rng)
                assert 0.0 < e <= 1.0

    def test_doubles_gather_more_efficiently_than_floats(self):
        """Section 5.2: 64-bit rows transpose faster because the
        unstructured row-shuffle reads are more efficient."""
        wins = 0
        trials = 0
        for m, n in [(977, 14009), (5003, 12007), (9001, 17011), (3001, 19013)]:
            dec = Decomposition.of(m, n)
            e8 = row_gather_efficiency(dec, 8, TESLA_K20C, np.random.default_rng(9))
            e4 = row_gather_efficiency(dec, 4, TESLA_K20C, np.random.default_rng(9))
            trials += 1
            wins += e8 > e4
        assert wins == trials

    def test_short_rows_are_cache_resident(self):
        rng = np.random.default_rng(2)
        short = Decomposition.of(20000, 1200)
        longr = Decomposition.of(20000, 19001)
        e_short = cached_row_gather_efficiency(short, 8, TESLA_K20C, rng)
        e_long = cached_row_gather_efficiency(longr, 8, TESLA_K20C, rng)
        assert e_short > e_long

    def test_subrow_efficiency_perfect_when_aligned(self):
        # 16 doubles per 128-byte line: n multiple of 16 -> aligned
        assert subrow_efficiency(100, 1600, 8, TESLA_K20C) == 1.0
        assert subrow_efficiency(100, 1601, 8, TESLA_K20C) < 1.0

    def test_fine_rotate_fraction_bounds_and_skip(self):
        # b large vs group width -> most groups skip the fine pass
        dec = Decomposition.of(4, 25600)  # c=4, b=6400 >> w=16
        f = fine_rotate_fraction(dec, 8, TESLA_K20C)
        assert f < 0.01
        # b=1 -> rotation changes every column -> every group processed
        dec = Decomposition.of(25600, 16)
        assert fine_rotate_fraction(dec, 8, TESLA_K20C) == 1.0


class TestTransposeCosts:
    def test_pass_structure_reflects_gcd(self):
        coprime = c2r_cost(4999, 5003, 8)
        names = [p.name for p in coprime.passes]
        assert not any("pre-rotate" in nm for nm in names)
        shared = c2r_cost(5000, 5004, 8)
        assert any("pre-rotate" in p.name for p in shared.passes)

    def test_throughput_positive_and_below_streaming(self):
        c = c2r_cost(10000, 12000, 8)
        assert 0 < c.throughput < TESLA_K20C.achievable_bandwidth

    def test_table2_orderings(self):
        """C2R(double) > C2R(float) > Sung(float) in the median — the
        Table 2 ordering."""
        rng = np.random.default_rng(3)
        d, f, s = [], [], []
        for _ in range(40):
            m = int(rng.integers(1000, 20000))
            n = int(rng.integers(1000, 20000))
            d.append(c2r_cost(m, n, 8).throughput_gbps)
            f.append(c2r_cost(m, n, 4).throughput_gbps)
            s.append(sung_cost(m, n, 4)[0].throughput_gbps)
        assert _median(d) > _median(f) > _median(s)
        # rough factors: double/float ~1.3, float/sung ~2.5 in the paper
        assert 1.05 < _median(d) / _median(f) < 2.0
        assert _median(f) / _median(s) > 1.5

    def test_fig4_band_small_n_is_faster(self):
        slow = c2r_cost(20001, 15013, 8).throughput_gbps
        fast = c2r_cost(20001, 1501, 8).throughput_gbps
        assert fast > slow * 1.1

    def test_fig5_band_small_m_is_faster(self):
        slow = r2c_cost(15013, 20001, 8).throughput_gbps
        fast = r2c_cost(1501, 20001, 8).throughput_gbps
        assert fast > slow * 1.1

    def test_r2c_mirrors_c2r(self):
        a = c2r_cost(1501, 20001, 8).throughput_gbps
        b = r2c_cost(20001, 1501, 8).throughput_gbps
        assert a == pytest.approx(b, rel=0.05)

    def test_heuristic_picks_the_faster_side(self):
        m, n = 20001, 1501
        assert auto_cost(m, n, 8).throughput_gbps == pytest.approx(
            c2r_cost(m, n, 8).throughput_gbps
        )
        assert auto_cost(n, m, 8).throughput_gbps == pytest.approx(
            r2c_cost(n, m, 8).throughput_gbps
        )

    @pytest.mark.parametrize(
        "m, n, expected",
        [(20001, 1501, "c2r"), (1501, 20001, "r2c"), (9001, 9001, "r2c"),
         (2, 1, "c2r"), (1, 2, "r2c"), (1, 1, "r2c")],
    )
    def test_paper_heuristic_is_section_5_2(self, m, n, expected):
        """Section 5.2: "if m > n, use the C2R algorithm, otherwise use the
        R2C algorithm"; ``auto_cost`` models exactly that side."""
        assert paper_heuristic(m, n) == expected
        side = c2r_cost if expected == "c2r" else r2c_cost
        assert auto_cost(m, n, 8).seconds == side(m, n, 8).seconds


class TestSkinnyCost:
    def test_beats_general_transpose(self):
        """Fig. 7: the skinny specialization outruns the general kernel."""
        rng = np.random.default_rng(4)
        skinny, general = [], []
        for _ in range(30):
            S = int(rng.integers(2, 32))
            N = int(rng.integers(10**4, 10**6))
            skinny.append(skinny_cost(N, S, 8).throughput_gbps)
            general.append(auto_cost(N, S, 8).throughput_gbps)
        assert _median(skinny) > _median(general)

    def test_magnitudes_near_paper(self):
        """Median in the 30-50 GB/s class, max in the ~50-60 class
        (paper: 34.3 median, 51 max)."""
        rng = np.random.default_rng(5)
        vals = []
        for _ in range(120):
            S = int(rng.integers(2, 32))
            N = int(rng.integers(10**4, 10**7))
            vals.append(skinny_cost(N, S, 8).throughput_gbps)
        med = _median(vals)
        assert 25 < med < 55
        assert max(vals) < 70

    def test_coprime_skips_rotation(self):
        c = skinny_cost(10**5, 7, 8)  # gcd(7, 10**5) = 1
        assert not any("rotate (on-chip)" in p.name for p in c.passes)
        c = skinny_cost(10**5, 8, 8)
        assert any("rotate (on-chip)" in p.name for p in c.passes)


class TestSungCost:
    def test_best_case_calibration(self):
        """The author-reported best case (~20.8 GB/s on 7200 x 1800)."""
        cost, plan = sung_cost(7200, 1800, 4)
        assert plan.tile_rows == 32 and plan.tile_cols == 72
        assert 17 < cost.throughput_gbps < 25

    def test_degenerate_tiles_are_slow(self):
        good, _ = sung_cost(7200, 1800, 4)
        bad, plan = sung_cost(10007, 10009, 4)  # prime dims -> 1x1 tiles
        assert plan.degenerate
        assert bad.throughput_gbps < good.throughput_gbps / 5

    def test_sung_median_well_below_c2r_float(self):
        rng = np.random.default_rng(6)
        c2r, sung = [], []
        for _ in range(40):
            m = int(rng.integers(1000, 20000))
            n = int(rng.integers(1000, 20000))
            c2r.append(c2r_cost(m, n, 4).throughput_gbps)
            cost, plan = sung_cost(m, n, 4)
            if not plan.degenerate:
                sung.append(cost.throughput_gbps)
        assert _median(c2r) > 1.5 * _median(sung)
