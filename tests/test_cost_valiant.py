"""Tests for the topology cost model, the Valiant hops oracle, and receive emission."""

import numpy as np
import pytest

from repro.apps.registry import generate_trace
from repro.comm.matrix import matrix_from_trace
from repro.dumpi.parser import loads_trace
from repro.dumpi.writer import dumps_trace
from repro.topology.cost import CostModel, TopologyCost, topology_cost
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D

from oracles.routing import valiant_hops


class TestCostModel:
    def test_price_arithmetic(self):
        model = CostModel(switch_cost=2.0, electrical_link_cost=0.5, optical_link_cost=1.0)
        assert model.price(3, 4, 5) == pytest.approx(6 + 2 + 5)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(switch_cost=-1.0)

    def test_torus_all_electrical(self):
        cost = topology_cost(Torus3D((4, 4, 4)))
        assert cost.switches == 64
        assert cost.optical_links == 0
        assert cost.electrical_links == 3 * 64
        assert cost.optical_share == 0.0

    def test_mesh_counts(self):
        cost = topology_cost(Mesh3D((4, 4, 4)))
        assert cost.electrical_links == Mesh3D((4, 4, 4)).num_links
        assert cost.optical_links == 0

    def test_single_switch_fat_tree(self):
        cost = topology_cost(FatTree(48, 1))
        assert cost.switches == 1
        assert cost.electrical_links == 48
        assert cost.optical_links == 0

    def test_two_stage_fat_tree(self):
        cost = topology_cost(FatTree(48, 2))
        # 24 leaves + 12 top switches; 576 node cables + 576 uplinks
        assert cost.switches == 36
        assert cost.electrical_links == 576
        assert cost.optical_links == 576

    def test_three_stage_fat_tree(self):
        cost = topology_cost(FatTree(48, 3))
        assert cost.num_nodes == 13824
        assert cost.switches == 576 + 576 + 288
        assert cost.total_links == 13824 + 13824 + 13824

    def test_dragonfly_counts(self):
        df = Dragonfly(4, 2, 2)
        cost = topology_cost(df)
        assert cost.switches == 9 * 4
        assert cost.optical_links == 9 * 8 // 2
        assert cost.electrical_links == 72 + 9 * 6

    def test_unknown_topology(self):
        class Fake:
            pass

        with pytest.raises(TypeError):
            topology_cost(Fake())  # type: ignore[arg-type]

    def test_cost_per_node(self):
        cost = TopologyCost("x", 10, 1, 10, 0, 5.0)
        assert cost.cost_per_node == 0.5


class TestValiantRouting:
    @pytest.fixture(scope="class")
    def df(self):
        return Dragonfly(4, 2, 2)

    def test_intra_group_unchanged(self, df):
        src = np.array([0, 0, 3])
        dst = np.array([0, 7, 5])
        assert np.array_equal(
            valiant_hops(df, src, dst), df.hops_array(src, dst)
        )

    def test_cross_group_in_bounds(self, df):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 8, 300)  # group 0
        dst = rng.integers(8, df.num_nodes, 300)
        val = valiant_hops(df, src, dst, rng)
        assert val.min() >= 4  # node + 2 globals + node at minimum
        assert val.max() <= 7  # + up to 3 local detours

    def test_longer_on_average_than_minimal(self, df):
        rng = np.random.default_rng(1)
        src = rng.integers(0, df.num_nodes, 2000)
        dst = rng.integers(0, df.num_nodes, 2000)
        cross = df.crosses_groups(src, dst)
        minimal = df.hops_array(src, dst)[cross].mean()
        valiant = valiant_hops(df, src, dst, rng)[cross].mean()
        assert valiant > minimal + 0.5

    def test_deterministic_given_rng(self, df):
        src = np.array([0, 1, 2])
        dst = np.array([20, 30, 40])
        a = valiant_hops(df, src, dst, np.random.default_rng(7))
        b = valiant_hops(df, src, dst, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestReceiveEmission:
    def test_doubles_p2p_records(self):
        plain = generate_trace("CrystalRouter", 10)
        both = generate_trace("CrystalRouter", 10, emit_receives=True)
        assert len(both) == 2 * len(plain)

    def test_analyses_invariant(self):
        plain = generate_trace("LULESH", 64)
        both = generate_trace("LULESH", 64, emit_receives=True)
        mp = matrix_from_trace(plain)
        mb = matrix_from_trace(both)
        assert mp.total_bytes == mb.total_bytes
        assert mp.total_packets == mb.total_packets

    def test_receives_round_trip_through_dumpi(self):
        trace = generate_trace("MiniFE", 18, emit_receives=True)
        back = loads_trace(dumps_trace(trace))
        assert back.events == trace.events

    def test_receives_mirror_sends(self):
        trace = generate_trace("CrystalRouter", 10, emit_receives=True)
        sends = [(e.caller, e.peer, e.count) for e in trace.events if e.is_send]
        recvs = [(e.peer, e.caller, e.count) for e in trace.events if not e.is_send]
        assert sorted(sends) == sorted(recvs)
