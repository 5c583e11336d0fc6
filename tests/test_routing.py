"""The pluggable routing subsystem: ECMP, Valiant, D-mod-k, UGAL.

Three layers of guarantees are pinned here:

- **structural** — every policy on every topology emits link sequences that
  form a valid walk from source node to destination node (checked via the
  Eulerian-walk characterization in :mod:`repro.routing.validate`), with
  zero hops exactly for same-node pairs;
- **bit-identity** — ``minimal`` is byte-for-byte the topology's built-in
  deterministic routing (so ``routing="minimal"`` defaults change nothing),
  and ``dmodk`` coincides with it on the fat tree whose lane choice *is*
  destination-mod-k;
- **semantics** — Valiant's link-level hop counts match the hops-only
  oracle ``tests/oracles/routing.py::valiant_hops`` seed for seed, Valiant paths
  are longer than minimal on cross-group traffic, UGAL spreads an
  adversarial single-hot-group matrix far below minimal's peak link load,
  and both simulator engines stay bit-identical under every policy.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.routing import ROUTINGS, get_policy
from repro.routing.base import RoutingPolicy
from repro.routing.minimal import MinimalRouting
from repro.routing.validate import link_endpoints, walks_are_valid
from repro.sim.common import prepare_simulation
from repro.sim.engine import run_batched
from repro.sim.reference import run_reference
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D

from helpers import make_matrix
from oracles.routing import valiant_hops

TOPOLOGIES = {
    "torus3d": lambda: Torus3D((4, 3, 2)),
    "fattree": lambda: FatTree(4, 3),
    "dragonfly": lambda: Dragonfly(4, 2, 2),
}


def random_pairs(topology, n=300, seed=7):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, topology.num_nodes, size=n)
    dst = rng.integers(0, topology.num_nodes, size=n)
    # guarantee at least a few same-node pairs for the 0-hop property
    src[:3] = dst[:3]
    return src, dst


def assert_same_incidence(a, b):
    assert np.array_equal(a.pair_index, b.pair_index)
    assert np.array_equal(a.link_id, b.link_id)


class TestRegistry:
    def test_known_policies(self):
        assert ROUTINGS == (
            "minimal",
            "ecmp",
            "valiant",
            "dmodk",
            "ugal",
            "interference_aware",
        )

    def test_get_policy_passes_instances_through(self):
        policy = MinimalRouting()
        assert get_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="minimal"):
            get_policy("shortest")

    def test_capability_flags(self):
        flags = {
            name: (get_policy(name).randomized, get_policy(name).load_aware)
            for name in ROUTINGS
        }
        assert flags == {
            "minimal": (False, False),
            "ecmp": (True, False),
            "valiant": (True, False),
            "dmodk": (False, False),
            "ugal": (True, True),
            "interference_aware": (True, True),
        }

    def test_cache_token_carries_seed_only_when_randomized(self):
        assert get_policy("minimal", seed=5).cache_token() == ("minimal",)
        assert get_policy("ecmp", seed=5).cache_token() == ("ecmp", 5)


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@pytest.mark.parametrize("routing", ROUTINGS)
class TestWalkProperties:
    """Every policy x topology combination emits valid walks."""

    def test_routes_are_valid_walks(self, routing, kind):
        topology = TOPOLOGIES[kind]()
        src, dst = random_pairs(topology)
        policy = get_policy(routing, seed=3)
        inc = policy.route_incidence(topology, src, dst)
        ok = walks_are_valid(topology, src, dst, inc)
        assert ok.all(), f"invalid walks at pairs {np.flatnonzero(~ok)[:5]}"

    def test_zero_hops_iff_same_node(self, routing, kind):
        topology = TOPOLOGIES[kind]()
        src, dst = random_pairs(topology)
        policy = get_policy(routing, seed=3)
        hops = policy.hops_array(topology, src, dst)
        np.testing.assert_array_equal(hops == 0, src == dst)

    def test_hops_array_counts_incidence_rows(self, routing, kind):
        """The closed-form hops shortcuts agree with the actual routes."""
        topology = TOPOLOGIES[kind]()
        src, dst = random_pairs(topology)
        policy = get_policy(routing, seed=3)
        inc = policy.route_incidence(topology, src, dst)
        counted = np.bincount(inc.pair_index, minlength=len(src))
        np.testing.assert_array_equal(
            policy.hops_array(topology, src, dst), counted
        )

    def test_link_ids_in_range(self, routing, kind):
        topology = TOPOLOGIES[kind]()
        src, dst = random_pairs(topology)
        inc = get_policy(routing, seed=3).route_incidence(topology, src, dst)
        assert inc.link_id.min(initial=0) >= 0
        assert inc.link_id.max(initial=0) < topology.num_links
        # every link decodes to two distinct endpoint vertices
        u, v = link_endpoints(topology, inc.link_id)
        assert (u != v).all()


class TestMinimalBitIdentity:
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_matches_topology_builtin(self, kind):
        topology = TOPOLOGIES[kind]()
        src, dst = random_pairs(topology)
        direct = topology.route_incidence(src, dst)
        via = get_policy("minimal").route_incidence(topology, src, dst)
        assert_same_incidence(via, direct)

    def test_seed_never_changes_minimal(self):
        topology = Torus3D((4, 3, 2))
        src, dst = random_pairs(topology)
        a = get_policy("minimal", seed=0).route_incidence(topology, src, dst)
        b = get_policy("minimal", seed=9).route_incidence(topology, src, dst)
        assert_same_incidence(a, b)


class TestECMP:
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_hops_equal_minimal(self, kind):
        """ECMP spreads over *equal-cost* paths — never longer than minimal."""
        topology = TOPOLOGIES[kind]()
        src, dst = random_pairs(topology)
        np.testing.assert_array_equal(
            get_policy("ecmp", seed=1).hops_array(topology, src, dst),
            topology.hops_array(src, dst),
        )

    @pytest.mark.parametrize("kind", ["torus3d", "fattree"])
    def test_spreads_over_distinct_paths(self, kind):
        """Where equal-cost multipath exists, ECMP must actually use it."""
        topology = TOPOLOGIES[kind]()
        src, dst = random_pairs(topology)
        minimal = get_policy("minimal").route_incidence(topology, src, dst)
        ecmp = get_policy("ecmp", seed=1).route_incidence(topology, src, dst)
        assert not np.array_equal(
            np.sort(ecmp.link_id), np.sort(minimal.link_id)
        )

    def test_dragonfly_degenerates_to_minimal(self):
        """The dragonfly minimal path is unique — nothing to spread over."""
        topology = TOPOLOGIES["dragonfly"]()
        src, dst = random_pairs(topology)
        assert_same_incidence(
            get_policy("ecmp", seed=1).route_incidence(topology, src, dst),
            topology.route_incidence(src, dst),
        )

    def test_deterministic_per_seed(self):
        topology = TOPOLOGIES["fattree"]()
        src, dst = random_pairs(topology)
        a = get_policy("ecmp", seed=4).route_incidence(topology, src, dst)
        b = get_policy("ecmp", seed=4).route_incidence(topology, src, dst)
        assert_same_incidence(a, b)
        c = get_policy("ecmp", seed=5).route_incidence(topology, src, dst)
        assert not np.array_equal(c.link_id, a.link_id)


class TestDModK:
    def test_identical_to_minimal_on_fattree(self):
        """The built-in fat-tree lane choice *is* destination-mod-k."""
        topology = TOPOLOGIES["fattree"]()
        src, dst = random_pairs(topology)
        assert_same_incidence(
            get_policy("dmodk").route_incidence(topology, src, dst),
            topology.route_incidence(src, dst),
        )

    @pytest.mark.parametrize("kind", ["torus3d", "dragonfly"])
    def test_falls_back_to_minimal_elsewhere(self, kind):
        topology = TOPOLOGIES[kind]()
        src, dst = random_pairs(topology)
        assert_same_incidence(
            get_policy("dmodk").route_incidence(topology, src, dst),
            topology.route_incidence(src, dst),
        )


class TestValiantOracle:
    """The link-level engine vs the hops-only oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_hops_match_valiant_hops_seed_for_seed(self, seed):
        topology = TOPOLOGIES["dragonfly"]()
        src, dst = random_pairs(topology, n=500)
        oracle = valiant_hops(topology, src, dst, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(
            get_policy("valiant", seed=seed).hops_array(topology, src, dst),
            oracle,
        )

    def test_longer_than_minimal_on_cross_group_traffic(self):
        topology = TOPOLOGIES["dragonfly"]()
        src, dst = random_pairs(topology, n=500)
        cross = topology.crosses_groups(src, dst)
        assert cross.any()
        val = get_policy("valiant", seed=0).hops_array(topology, src, dst)
        minimal = topology.hops_array(src, dst)
        assert val[cross].mean() > minimal[cross].mean()
        # intra-group traffic stays minimal
        np.testing.assert_array_equal(val[~cross], minimal[~cross])

    def test_torus_detour_through_intermediate(self):
        topology = TOPOLOGIES["torus3d"]()
        src, dst = random_pairs(topology, n=500)
        val = get_policy("valiant", seed=0).hops_array(topology, src, dst)
        minimal = topology.hops_array(src, dst)
        assert val.mean() > minimal.mean()

    def test_two_group_dragonfly_falls_back_to_minimal(self):
        """No valid intermediate group exists below three groups."""
        topology = Dragonfly(1, 1, 2)
        assert topology.num_groups == 2
        src, dst = random_pairs(topology, n=12)
        assert_same_incidence(
            get_policy("valiant", seed=0).route_incidence(topology, src, dst),
            topology.route_incidence(src, dst),
        )

    def test_fattree_valiant_matches_minimal_hops(self):
        """Random-core Valiant on a folded Clos never lengthens paths."""
        topology = TOPOLOGIES["fattree"]()
        src, dst = random_pairs(topology)
        np.testing.assert_array_equal(
            get_policy("valiant", seed=0).hops_array(topology, src, dst),
            topology.hops_array(src, dst),
        )


class TestUGAL:
    def adversarial(self, topology):
        """Every node of group 0 talks to every node of group 1."""
        per_group = topology.num_nodes // topology.num_groups
        g0 = np.arange(per_group, dtype=np.int64)
        g1 = g0 + per_group
        src, dst = np.meshgrid(g0, g1, indexing="ij")
        return src.ravel(), dst.ravel()

    def test_spreads_hot_group_traffic(self):
        topology = TOPOLOGIES["dragonfly"]()
        src, dst = self.adversarial(topology)
        weights = np.ones(len(src))
        minimal = get_policy("minimal").route_incidence(topology, src, dst)
        ugal = get_policy("ugal", seed=0).route_incidence(
            topology, src, dst, pair_weights=weights
        )
        _, min_loads = minimal.link_loads(weights)
        _, ugal_loads = ugal.link_loads(weights)
        assert ugal_loads.max() < min_loads.max()

    def test_falls_back_to_minimal_off_dragonfly(self):
        for kind in ("torus3d", "fattree"):
            topology = TOPOLOGIES[kind]()
            src, dst = random_pairs(topology)
            assert_same_incidence(
                get_policy("ugal", seed=0).route_incidence(topology, src, dst),
                topology.route_incidence(src, dst),
            )

    def test_uniform_weights_default(self):
        """Omitting pair_weights means unit weight per pair."""
        topology = TOPOLOGIES["dragonfly"]()
        src, dst = self.adversarial(topology)
        explicit = get_policy("ugal", seed=0).route_incidence(
            topology, src, dst, pair_weights=np.ones(len(src))
        )
        implicit = get_policy("ugal", seed=0).route_incidence(
            topology, src, dst
        )
        assert_same_incidence(explicit, implicit)

    def test_weight_shape_mismatch_rejected(self):
        topology = TOPOLOGIES["dragonfly"]()
        src, dst = self.adversarial(topology)
        with pytest.raises(ValueError, match="pair_weights"):
            get_policy("ugal").route_incidence(
                topology, src, dst, pair_weights=np.ones(3)
            )


class TestSimulatorEquivalencePerPolicy:
    """Both engines consume one SimSetup, so bit-identity holds per policy."""

    @pytest.mark.parametrize("routing", ["ecmp", "valiant", "ugal"])
    def test_batched_matches_reference(self, routing):
        topology = TOPOLOGIES["dragonfly"]()
        rng = np.random.default_rng(0)
        pairs = []
        for src in range(topology.num_nodes):
            for dst in rng.choice(topology.num_nodes, size=3, replace=False):
                if int(dst) != src:
                    pairs.append((src, int(dst), 8192))
        matrix = make_matrix(topology.num_nodes, pairs)
        setup = prepare_simulation(
            matrix,
            topology,
            execution_time=5e-4,
            routing=routing,
            routing_seed=2,
        )
        assert setup is not None
        a, b = run_batched(setup), run_reference(setup)
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
                assert np.array_equal(va, vb), f.name
            else:
                assert va == vb, f.name

    def test_policy_changes_simulated_congestion(self):
        """Valiant's detours really reach the simulator's route tables."""
        topology = TOPOLOGIES["dragonfly"]()
        src, dst = random_pairs(topology, n=64, seed=1)
        keep = src != dst
        pairs = [
            (int(s), int(d), 4096) for s, d in zip(src[keep], dst[keep])
        ]
        matrix = make_matrix(topology.num_nodes, pairs)
        minimal = prepare_simulation(matrix, topology, routing="minimal")
        valiant = prepare_simulation(matrix, topology, routing="valiant")
        assert valiant.total_hops > minimal.total_hops
