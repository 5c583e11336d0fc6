"""Tests for selectivity and selectivity curves (paper §4.1.2, Figs 1/3/4)."""

import math

import numpy as np
import pytest

from repro.metrics.selectivity import (
    mean_selectivity_curve,
    partner_volumes,
    per_rank_selectivity,
    selectivity,
    selectivity_curve,
)

from helpers import make_matrix


class TestPerRank:
    def test_single_dominant_partner(self):
        m = make_matrix(4, [(0, 1, 10000), (0, 2, 1), (0, 3, 1)])
        assert per_rank_selectivity(m)[0] == 1

    def test_equal_partners(self):
        # four equal partners: 90% needs all four (3 cover only 75%)
        m = make_matrix(5, [(0, d, 100) for d in (1, 2, 3, 4)])
        assert per_rank_selectivity(m)[0] == 4

    def test_exact_threshold_boundary(self):
        # 9 partners of 10% each + one of 10%: top 9 cover exactly 90%
        m = make_matrix(11, [(0, d, 100) for d in range(1, 11)])
        assert per_rank_selectivity(m)[0] == 9

    def test_share_parameter(self):
        m = make_matrix(5, [(0, d, 100) for d in (1, 2, 3, 4)])
        assert per_rank_selectivity(m, share=0.5)[0] == 2

    def test_silent_ranks_absent(self):
        m = make_matrix(4, [(0, 1, 100)])
        assert set(per_rank_selectivity(m)) == {0}

    def test_self_traffic_ignored(self):
        m = make_matrix(4, [(0, 0, 10**9), (0, 1, 10)])
        assert per_rank_selectivity(m)[0] == 1

    def test_invalid_share(self):
        m = make_matrix(3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            per_rank_selectivity(m, share=0.0)


class TestAppLevel:
    def test_mean_over_ranks(self):
        m = make_matrix(
            6,
            [(0, 1, 100)]  # rank 0: selectivity 1
            + [(1, d, 100) for d in (2, 3, 4)],  # rank 1: selectivity 3
        )
        assert selectivity(m) == pytest.approx(2.0)

    def test_no_p2p_is_nan(self):
        assert math.isnan(selectivity(make_matrix(4, [])))

    def test_lulesh_band(self, lulesh64_p2p):
        # paper: 4.5 for LULESH@64
        assert 3.5 <= selectivity(lulesh64_p2p) <= 5.5


class TestCurves:
    def test_partner_volumes_sorted_descending(self, lulesh64_p2p):
        vols = partner_volumes(lulesh64_p2p, 0)
        assert np.all(np.diff(vols) <= 0)
        assert len(vols) >= 7  # corner rank of a 4x4x4 halo

    def test_selectivity_curve_monotone_to_one(self):
        m = make_matrix(5, [(0, d, v) for d, v in [(1, 50), (2, 30), (3, 20)]])
        curve = selectivity_curve(m, 0)
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == pytest.approx(1.0)
        assert curve[0] == pytest.approx(0.5)

    def test_empty_curve_for_silent_rank(self):
        m = make_matrix(3, [(0, 1, 10)])
        assert len(selectivity_curve(m, 2)) == 0

    def test_mean_curve_pads_with_one(self):
        m = make_matrix(
            5, [(0, 1, 100), (1, 2, 50), (1, 3, 50)]
        )  # rank 0 has 1 partner, rank 1 has 2
        curve = mean_selectivity_curve(m)
        assert len(curve) == 2
        assert curve[0] == pytest.approx((1.0 + 0.5) / 2)
        assert curve[-1] == pytest.approx(1.0)

    def test_mean_curve_max_partners(self, lulesh64_p2p):
        curve = mean_selectivity_curve(lulesh64_p2p, max_partners=5)
        assert len(curve) == 5

    def test_mean_curve_empty(self):
        assert len(mean_selectivity_curve(make_matrix(3, []))) == 0

    def test_mean_curve_consistent_with_selectivity(self, lulesh64_p2p):
        """The curve's 90% crossing tracks the scalar metric within a step."""
        curve = mean_selectivity_curve(lulesh64_p2p)
        crossing = int(np.searchsorted(curve, 0.9 - 1e-9)) + 1
        assert abs(crossing - selectivity(lulesh64_p2p)) <= 2.5

    @pytest.mark.parametrize("max_partners", [0, -1])
    def test_mean_curve_rejects_max_partners_below_one(self, max_partners):
        m = make_matrix(3, [(0, 1, 10), (0, 2, 5)])
        with pytest.raises(ValueError, match="max_partners must be None or >= 1"):
            mean_selectivity_curve(m, max_partners=max_partners)

    def test_mean_curve_one_partner(self):
        m = make_matrix(3, [(0, 1, 30), (0, 2, 10)])
        assert mean_selectivity_curve(m, max_partners=1).tolist() == [0.75]
