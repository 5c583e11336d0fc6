"""Tests for rank distance / rank locality (paper Eq. 1-2, §4.1.1)."""

import math

import numpy as np
import pytest

from repro.cache import cached_matrix, cached_trace
from repro.metrics.locality import (
    distance_histogram,
    locality_from_distance,
    pair_distances,
    rank_distance,
    rank_locality,
)
from repro.metrics.summary import mpi_level_metrics

from helpers import make_matrix


class TestPairDistances:
    def test_self_pairs_excluded(self):
        m = make_matrix(4, [(0, 0, 100), (0, 1, 50)])
        dist, w = pair_distances(m)
        assert dist.tolist() == [1]
        assert w.tolist() == [50]

    def test_distance_is_absolute(self):
        m = make_matrix(5, [(4, 1, 10), (1, 4, 10)])
        dist, _ = pair_distances(m)
        assert dist.tolist() == [3, 3]


class TestRankDistance:
    def test_neighbour_traffic_distance_one(self):
        m = make_matrix(8, [(r, r + 1, 100) for r in range(7)])
        assert rank_distance(m) <= 1.0
        assert rank_locality(m) == 1.0

    def test_weighted_by_volume(self):
        # 95% of bytes at distance 1, 5% at distance 7: the 90% quantile
        # stays near 1.
        m = make_matrix(8, [(0, 1, 9500), (0, 7, 500)])
        assert rank_distance(m) < 2.0

    def test_far_heavy_traffic_pushes_quantile(self):
        m = make_matrix(8, [(0, 1, 100), (0, 7, 9900)])
        assert rank_distance(m) > 5.0
        assert rank_locality(m) < 0.2

    def test_empty_matrix_is_nan(self):
        m = make_matrix(4, [])
        assert math.isnan(rank_distance(m))
        assert math.isnan(rank_locality(m))

    def test_self_only_traffic_is_nan(self):
        m = make_matrix(4, [(1, 1, 100)])
        assert math.isnan(rank_distance(m))

    def test_share_parameter(self):
        m = make_matrix(10, [(0, 1, 50), (0, 9, 50)])
        assert rank_distance(m, share=0.4) < rank_distance(m, share=0.95)

    def test_locality_capped_at_one(self):
        m = make_matrix(4, [(0, 1, 100), (1, 2, 100)])
        assert rank_locality(m) <= 1.0

    def test_locality_from_distance(self):
        assert math.isnan(locality_from_distance(float("nan")))
        assert locality_from_distance(0.0) == 1.0
        assert locality_from_distance(0.5) == 1.0
        assert locality_from_distance(4.0) == 0.25

    @pytest.mark.parametrize("app,ranks", [("LULESH", 64), ("AMG", 27), ("Boxlib_CNS", 64)])
    def test_summary_matches_public_functions(self, app, ranks):
        trace = cached_trace(app, ranks)
        matrix = cached_matrix(trace, include_collectives=False)
        metrics = mpi_level_metrics(trace, matrix)
        assert metrics.has_p2p
        assert metrics.rank_distance_90 == rank_distance(matrix)
        assert metrics.rank_locality_90 == rank_locality(matrix)


class TestHistogram:
    def test_volume_per_distance(self):
        m = make_matrix(6, [(0, 1, 10), (1, 2, 20), (0, 3, 5)])
        dists, vols = distance_histogram(m)
        assert dists.tolist() == [1, 3]
        assert vols.tolist() == [30, 5]

    def test_empty(self):
        dists, vols = distance_histogram(make_matrix(3, []))
        assert len(dists) == 0 and len(vols) == 0

    def test_histogram_total_matches_offdiagonal_bytes(self, lulesh64_p2p):
        _, vols = distance_histogram(lulesh64_p2p)
        m = lulesh64_p2p
        assert vols.sum() == m.nbytes[m.src != m.dst].sum()


class TestOnRealTrace:
    def test_lulesh_locality_band(self, lulesh64_p2p):
        # paper: LULESH@64 rank distance 15.7 (x-face offset 16)
        d = rank_distance(lulesh64_p2p)
        assert 12.0 <= d <= 20.0

    def test_quantile_is_fractional(self, lulesh64_p2p):
        d = rank_distance(lulesh64_p2p)
        assert d == pytest.approx(d)  # finite
        assert not math.isnan(d)
