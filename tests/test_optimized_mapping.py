"""Tests for locality-aware mapping optimization (the paper's §7 suggestion)."""

from functools import lru_cache

import numpy as np
import pytest

from repro.apps import app_names, get_app, generate_trace
from repro.comm.matrix import matrix_from_trace
from repro.mapping.base import Mapping
from repro.mapping.optimized import (
    greedy_ordering,
    optimize_mapping,
    refine_mapping,
    spectral_ordering,
    weighted_hop_cost,
)
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D
from repro.validation.suite import build_topology

from helpers import make_matrix
from oracles.mapping import bisection_mapping


def scrambled_ring(n: int, seed: int = 3):
    """A ring whose rank numbering was shuffled: optimizable workload."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = [(int(perm[i]), int(perm[(i + 1) % n]), 1000) for i in range(n)]
    return make_matrix(n, pairs)


class TestOrderings:
    def test_greedy_is_permutation(self):
        m = scrambled_ring(27)
        order = greedy_ordering(m)
        assert sorted(order.tolist()) == list(range(27))

    def test_greedy_covers_isolated_ranks(self):
        m = make_matrix(6, [(0, 1, 100)])  # ranks 2..5 silent
        order = greedy_ordering(m)
        assert sorted(order.tolist()) == list(range(6))

    def test_greedy_places_heavy_pair_adjacent(self):
        m = make_matrix(6, [(0, 5, 10_000), (1, 2, 10)])
        order = greedy_ordering(m).tolist()
        assert abs(order.index(0) - order.index(5)) == 1

    def test_spectral_is_permutation(self):
        m = scrambled_ring(27)
        order = spectral_ordering(m)
        assert sorted(order.tolist()) == list(range(27))

    def test_spectral_recovers_ring_order(self):
        """On a shuffled ring the Fiedler ordering restores adjacency."""
        n = 32
        m = scrambled_ring(n)
        order = spectral_ordering(m).tolist()
        pos = {rank: i for i, rank in enumerate(order)}
        # measure adjacency of communicating pairs in the recovered order
        gaps = []
        for s, d in zip(m.src, m.dst):
            gaps.append(min(abs(pos[int(s)] - pos[int(d)]), n - abs(pos[int(s)] - pos[int(d)])))
        assert float(np.mean(gaps)) <= 2.0

    @pytest.mark.parametrize("app,ranks", [("LULESH", 64), ("AMG", 216)])
    def test_spectral_is_repeatable(self, app, ranks):
        """Both matrices have a degenerate Fiedler eigenspace: from a
        random start, ARPACK returned a different ordering most calls."""
        m = matrix_from_trace(generate_trace(app, ranks))
        first = spectral_ordering(m)
        for _ in range(3):
            np.testing.assert_array_equal(spectral_ordering(m), first)

    def test_spectral_trivial_cases(self):
        assert spectral_ordering(make_matrix(1, [])).tolist() == [0]
        assert spectral_ordering(make_matrix(4, [])).tolist() == [0, 1, 2, 3]


class TestCostAndOptimization:
    def test_weighted_hop_cost_zero_when_colocated(self):
        m = make_matrix(4, [(0, 1, 100)])
        topo = Torus3D((2, 2, 2))
        mapping = Mapping(np.zeros(4, dtype=np.int64), 8)
        assert weighted_hop_cost(m, topo, mapping) == 0.0

    def test_optimized_beats_consecutive_on_scrambled_ring(self):
        m = scrambled_ring(27)
        topo = Torus3D((3, 3, 3))
        base = weighted_hop_cost(m, topo, Mapping.consecutive(27, 27))
        for method in ("greedy", "spectral"):
            opt = optimize_mapping(m, topo, method=method)
            assert weighted_hop_cost(m, topo, opt) < base

    def test_consecutive_method_matches_baseline(self):
        m = scrambled_ring(8)
        topo = Torus3D((2, 2, 2))
        mapping = optimize_mapping(m, topo, method="consecutive")
        assert np.array_equal(mapping.nodes, Mapping.consecutive(8, 8).nodes)

    def test_unknown_method_rejected(self):
        m = scrambled_ring(8)
        with pytest.raises(ValueError):
            optimize_mapping(m, Torus3D((2, 2, 2)), method="magic")

    def test_refine_never_worsens(self):
        m = scrambled_ring(27)
        topo = Torus3D((3, 3, 3))
        start = Mapping.random(27, 27, seed=5)
        refined = refine_mapping(m, topo, start, max_passes=2, seed=0)
        assert weighted_hop_cost(m, topo, refined) <= weighted_hop_cost(
            m, topo, start
        )

    def test_optimized_beats_consecutive_on_real_trace(self, lulesh64_trace):
        """The paper's motivating claim: smart mapping reduces hop cost for
        workloads whose numbering does not match the topology — here we
        scramble LULESH first to emulate an unaligned assignment."""
        matrix = matrix_from_trace(lulesh64_trace, include_collectives=False)
        rng = np.random.default_rng(0)
        scrambled = matrix.remapped(rng.permutation(64))
        topo = Torus3D((4, 4, 4))
        base = weighted_hop_cost(scrambled, topo, Mapping.consecutive(64, 64))
        opt = optimize_mapping(scrambled, topo, method="greedy")
        assert weighted_hop_cost(scrambled, topo, opt) < 0.8 * base


class TestFallbackGuard:
    def test_aligned_workload_keeps_baseline(self, lulesh64_trace):
        matrix = matrix_from_trace(lulesh64_trace, include_collectives=False)
        topo = Torus3D((4, 4, 4))
        guarded = optimize_mapping(matrix, topo, method="bisection", fallback=True)
        base = Mapping.consecutive(64, topo.num_nodes)
        assert np.array_equal(guarded.nodes, base.nodes)

    def test_scrambled_workload_keeps_optimized(self):
        m = scrambled_ring(27)
        topo = Torus3D((3, 3, 3))
        guarded = optimize_mapping(m, topo, method="greedy", fallback=True)
        base = Mapping.consecutive(27, topo.num_nodes)
        assert weighted_hop_cost(m, topo, guarded) < weighted_hop_cost(
            m, topo, base
        )

    def test_guard_never_worse_than_baseline(self, lulesh64_trace):
        matrix = matrix_from_trace(lulesh64_trace, include_collectives=False)
        topo = Torus3D((4, 4, 4))
        base = weighted_hop_cost(
            matrix, topo, Mapping.consecutive(64, topo.num_nodes)
        )
        for method in ("greedy", "spectral", "bisection"):
            guarded = optimize_mapping(matrix, topo, method=method, fallback=True)
            assert weighted_hop_cost(matrix, topo, guarded) <= base


@lru_cache(maxsize=None)
def _smallest_matrix(name: str):
    return matrix_from_trace(generate_trace(name, get_app(name).scales()[0]))


def _ring(ranks: list[int], nbytes: int = 1000) -> list[tuple[int, int, int]]:
    return [(a, b, nbytes) for a, b in zip(ranks, ranks[1:] + ranks[:1])]


class TestBisectionOracle:
    """Slot bisection + one placement == the whole-graph per-topology pass."""

    @pytest.mark.parametrize("ranks_per_node", [1, 2])
    @pytest.mark.parametrize("kind", ["torus3d", "fattree", "dragonfly"])
    @pytest.mark.parametrize("name", app_names())
    def test_registry_apps_match_oracle(self, name, kind, ranks_per_node):
        matrix = _smallest_matrix(name)
        topo = build_topology(kind, matrix.num_ranks)
        fast = optimize_mapping(
            matrix, topo, method="bisection", ranks_per_node=ranks_per_node
        )
        slow = bisection_mapping(matrix, topo, ranks_per_node)
        assert np.array_equal(fast.nodes, slow.nodes)

    @pytest.mark.parametrize(
        "num_ranks,pairs",
        [
            # odd rank count: uneven halves at every level
            (27, _ring([int(r) for r in np.random.default_rng(3).permutation(27)])),
            # isolated ranks 9..15 never communicate
            (16, _ring(list(range(9))) + [(0, 4, 50_000)]),
            # two disconnected components, interleaved rank IDs
            (20, _ring(list(range(0, 20, 2))) + _ring(list(range(1, 20, 2)), 7)),
            # no traffic at all
            (11, []),
        ],
        ids=["odd", "isolated", "two-components", "silent"],
    )
    @pytest.mark.parametrize("ranks_per_node", [1, 2, 3])
    def test_hand_built_graphs_match_oracle(self, num_ranks, pairs, ranks_per_node):
        matrix = make_matrix(num_ranks, pairs)
        for topo in (Torus3D((3, 3, 3)), FatTree(radix=12, stages=2), Dragonfly(4, 2, 2)):
            fast = optimize_mapping(
                matrix, topo, method="bisection", ranks_per_node=ranks_per_node
            )
            slow = bisection_mapping(matrix, topo, ranks_per_node)
            assert np.array_equal(fast.nodes, slow.nodes), topo

    def test_capacity_checked_at_placement(self):
        with pytest.raises(ValueError, match="exceed 8 nodes"):
            optimize_mapping(scrambled_ring(27), Torus3D((2, 2, 2)), method="bisection")
