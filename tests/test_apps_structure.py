"""Per-application structural contracts, one class per generator.

Where ``test_apps.py`` checks the shared generator machinery, this module
pins each application's *specific* communication structure at every
calibrated scale — the properties the paper's analyses depend on.
Rank counts above 300 are exercised in the benchmark suite instead.
"""

import math

import numpy as np
import pytest

from repro.apps.registry import generate_trace
from repro.comm.matrix import matrix_from_trace
from repro.comm.stats import trace_stats
from repro.core.events import CollectiveEvent, CollectiveOp
from repro.metrics.dimensionality import grid_shape, locality_by_dimension
from repro.metrics.locality import rank_distance
from repro.metrics.peers import peers, peers_per_rank
from repro.metrics.selectivity import per_rank_selectivity, selectivity


def p2p(app, ranks, variant=""):
    return matrix_from_trace(
        generate_trace(app, ranks, variant=variant), include_collectives=False
    )


def collectives(trace):
    return [ev for ev in trace.events if isinstance(ev, CollectiveEvent)]


def collective_ops(app, ranks):
    return {ev.op for ev in collectives(generate_trace(app, ranks))}


class TestAMG:
    def test_full_connectivity_at_tiny_scale(self):
        # (2,2,2) open halo: every rank touches all 7 others
        m = p2p("AMG", 8)
        assert np.all(peers_per_rank(m) == 7)

    def test_center_rank_has_26_stencil_partners_at_27(self):
        m = p2p("AMG", 27)
        dsts, _ = m.row(13)  # center of the (3,3,3) grid
        assert len(dsts) == 26

    def test_coarse_levels_add_partners_at_216(self):
        m = p2p("AMG", 216)
        assert peers(m) > 26  # stencil alone would cap at 26

    def test_pure_p2p(self):
        trace = generate_trace("AMG", 27)
        assert not collectives(trace)

    def test_3d_class(self):
        loc = locality_by_dimension(p2p("AMG", 216))
        assert loc[3] == 1.0

    def test_face_neighbours_dominate(self):
        m = p2p("AMG", 27)
        # rank 13's three heaviest partners are face neighbours (offsets
        # 1, 3, 9 on the (3,3,3) grid)
        dsts, nbytes = m.row(13)
        top = dsts[np.argsort(nbytes)[::-1][:6]]
        offsets = {abs(int(d) - 13) for d in top}
        assert offsets == {1, 3, 9}


class TestAMRMiniapp:
    def test_peers_band(self):
        assert 20 <= peers(p2p("AMR_Miniapp", 64)) <= 64

    def test_has_small_collective_share(self):
        stats = trace_stats(generate_trace("AMR_Miniapp", 64))
        assert 0.0 < stats.collective_share < 0.01

    def test_uses_allreduce(self):
        assert collective_ops("AMR_Miniapp", 64) == {CollectiveOp.ALLREDUCE}

    def test_scattered_but_windowed(self):
        # refinement neighbourhoods cluster: the 90% distance is well below
        # the uniform-random 0.68 N
        d = rank_distance(p2p("AMR_Miniapp", 64))
        assert d < 0.6 * 64


class TestBigFFT:
    @pytest.mark.parametrize("ranks", [9, 100])
    def test_no_p2p(self, ranks):
        assert p2p("BigFFT", ranks).num_pairs == 0

    def test_alltoall_only(self):
        assert collective_ops("BigFFT", 9) == {CollectiveOp.ALLTOALL}

    def test_full_matrix_is_uniform_alltoall(self):
        m = matrix_from_trace(generate_trace("BigFFT", 9))
        assert m.num_pairs == 81  # all pairs incl. self shares
        off = m.nbytes[m.src != m.dst]
        assert off.max() - off.min() <= 1  # even split

    def test_wire_volume_is_n_times_logical(self):
        stats = trace_stats(generate_trace("BigFFT", 9))
        ratio = stats.collective_wire_bytes / stats.collective_logical_bytes
        assert ratio == pytest.approx(9.0, rel=0.01)


class TestBoxlibCNS:
    def test_everyone_talks_to_everyone(self):
        assert peers(p2p("Boxlib_CNS", 64)) == 63

    def test_but_few_partners_matter(self):
        assert selectivity(p2p("Boxlib_CNS", 64)) < 10

    def test_no_dimensional_structure(self):
        loc = locality_by_dimension(p2p("Boxlib_CNS", 64))
        assert max(loc.values()) < 0.5

    def test_variant_same_pattern_different_time(self):
        a = generate_trace("Boxlib_CNS", 256)
        b = generate_trace("Boxlib_CNS", 256, variant="b")
        assert a.meta.execution_time > b.meta.execution_time
        ma, mb = (matrix_from_trace(t, include_collectives=False) for t in (a, b))
        assert np.array_equal(ma.src, mb.src)


class TestBoxlibMultiGridC:
    @pytest.mark.parametrize("ranks", [64, 256])
    def test_peers_pinned_at_26(self, ranks):
        assert peers(p2p("Boxlib_MultiGrid_C", ranks)) == 26

    def test_morton_scatters_linear_distance(self):
        # the 90% distance exceeds the largest row-major stencil offset
        m = p2p("Boxlib_MultiGrid_C", 64)
        assert rank_distance(m) > 21  # max |offset| of a (4,4,4) stencil

    def test_tiny_allreduce_share(self):
        stats = trace_stats(generate_trace("Boxlib_MultiGrid_C", 64))
        assert stats.collective_share < 0.001


class TestMOCFE:
    @pytest.mark.parametrize("ranks,expected", [(64, 12), (256, 20)])
    def test_partner_counts(self, ranks, expected):
        assert peers(p2p("MOCFE", ranks)) == expected

    def test_collective_dominated(self):
        stats = trace_stats(generate_trace("MOCFE", 64))
        assert stats.collective_share > 0.9

    def test_mix_of_alltoall_and_allreduce(self):
        assert collective_ops("MOCFE", 64) == {
            CollectiveOp.ALLTOALL,
            CollectiveOp.ALLREDUCE,
        }

    def test_worst_locality_in_study(self):
        d = rank_distance(p2p("MOCFE", 256))
        assert d > 0.6 * 256  # scattered uniformly


class TestNekbone:
    def test_halo_peers(self):
        assert 18 <= peers(p2p("Nekbone", 64)) <= 27

    def test_tiny_messages(self):
        """Nekbone's published packet counts imply ~400 B messages at 64
        ranks — the trace must consist of very many small sends."""
        trace = generate_trace("Nekbone", 64)
        m = matrix_from_trace(trace, include_collectives=False)
        mean_message = m.total_bytes / m.total_messages
        assert mean_message < 2048

    def test_collective_share_swings_with_scale(self):
        s64 = trace_stats(generate_trace("Nekbone", 64)).collective_share
        s256 = trace_stats(generate_trace("Nekbone", 256)).collective_share
        assert s64 < 0.01 < 0.4 < s256 < 0.6


class TestCrystalRouter:
    def test_hypercube_partners_at_100(self):
        m = p2p("CrystalRouter", 100)
        assert set(m.row(0)[0].tolist()) == {1, 2, 4, 8, 16, 32, 64}

    def test_peers_log2(self):
        for ranks in (10, 100):
            expected = math.ceil(math.log2(ranks))
            assert abs(peers(p2p("CrystalRouter", ranks)) - expected) <= 1

    def test_xor_symmetry(self):
        m = p2p("CrystalRouter", 100)
        pairs = set(zip(m.src.tolist(), m.dst.tolist()))
        assert all((d, s) in pairs for s, d in pairs)


class TestCMC2D:
    def test_no_p2p(self):
        assert p2p("CMC_2D", 64).num_pairs == 0

    def test_rooted_collective_mix(self):
        ops = collective_ops("CMC_2D", 64)
        assert ops == {
            CollectiveOp.ALLREDUCE,
            CollectiveOp.BCAST,
            CollectiveOp.REDUCE,
        }

    def test_all_roots_are_rank_zero(self):
        trace = generate_trace("CMC_2D", 64)
        assert all(ev.root == 0 for ev in collectives(trace))

    def test_tiny_volume_long_runtime(self):
        stats = trace_stats(generate_trace("CMC_2D", 64))
        assert stats.total_mb < 20
        assert stats.execution_time > 100
        assert stats.throughput_mb_per_s < 1.0


class TestLULESH:
    def test_corner_rank_has_7_partners(self):
        m = p2p("LULESH", 64)
        assert len(m.row(0)[0]) == 7

    def test_interior_rank_has_26(self):
        m = p2p("LULESH", 64)
        interior = (1 * 4 + 1) * 4 + 1
        assert len(m.row(interior)[0]) == 26

    def test_face_edge_corner_volume_ordering(self):
        m = p2p("LULESH", 64)
        dsts, nbytes = m.row(0)
        by_dst = dict(zip(dsts.tolist(), nbytes.tolist()))
        face, edge, corner = by_dst[16], by_dst[20], by_dst[21]
        assert face > edge > corner

    def test_corner_selectivity_is_three(self):
        sel = per_rank_selectivity(p2p("LULESH", 64))
        assert sel[0] == 3  # three faces carry >90% at a corner


class TestFillBoundary:
    def test_peers_26(self):
        assert peers(p2p("FillBoundary", 125)) == 26

    def test_morton_scatter(self):
        assert rank_distance(p2p("FillBoundary", 125)) > 31  # stencil max offset


class TestMiniFE:
    def test_thinned_stencil(self):
        assert peers(p2p("MiniFE", 144)) < 26  # part of the diagonals dropped

    def test_faces_always_present(self):
        m = p2p("MiniFE", 144)
        shape = grid_shape(144, 3)
        interior = (shape[1] * (1) + 1) * shape[2] + 1  # coord (1,1,1)
        dsts = set(m.row(interior)[0].tolist())
        for offset in (1, shape[2], shape[1] * shape[2]):
            assert interior + offset in dsts
            assert interior - offset in dsts


class TestMultiGridC:
    def test_strided_far_partners(self):
        m = p2p("MultiGrid_C", 125)
        dsts, _ = m.row(62)  # center of (5,5,5): x +- 2 strides exist
        assert 62 + 2 * 25 in set(dsts.tolist())

    def test_distance_beyond_stencil(self):
        assert rank_distance(p2p("MultiGrid_C", 125)) > 26


class TestPARTISN:
    def test_sweep_neighbours_dominate(self):
        m = p2p("PARTISN", 168)
        dsts, nbytes = m.row(30)  # interior rank of the (14,12) grid
        heavy = set(dsts[np.argsort(nbytes)[::-1][:4]].tolist())
        assert heavy == {30 - 1, 30 + 1, 30 - 12, 30 + 12}

    def test_2d_class(self):
        loc = locality_by_dimension(p2p("PARTISN", 168))
        assert loc[2] == 1.0

    def test_background_reaches_everyone(self):
        assert peers(p2p("PARTISN", 168)) == 167

    def test_compute_bound_throughput(self):
        stats = trace_stats(generate_trace("PARTISN", 168))
        assert stats.throughput_mb_per_s < 0.1


class TestSNAP:
    def test_sweep_plus_scattered(self):
        assert peers(p2p("SNAP", 168)) == 48

    def test_no_collectives(self):
        assert not collective_ops("SNAP", 168)

    def test_long_distance_tail(self):
        assert rank_distance(p2p("SNAP", 168)) > 80
