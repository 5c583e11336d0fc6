"""Property-based tests over randomized topology instances.

Hypothesis drives random torus boxes, fat-tree stages, and dragonfly
parameters through the metric-space and routing invariants every topology
must satisfy: identity, symmetry, triangle inequality, route-length/hop
agreement, and link-id validity.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D

dims_strategy = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
).filter(lambda d: 2 <= d[0] * d[1] * d[2] <= 216)

dragonfly_strategy = st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3))


def _random_pairs(rng, n, k=60):
    return rng.integers(0, n, k), rng.integers(0, n, k)


def check_metric_axioms(topo, seed=0):
    rng = np.random.default_rng(seed)
    n = topo.num_nodes
    src, dst = _random_pairs(rng, n)

    # identity
    same = rng.integers(0, n, 20)
    assert np.all(topo.hops_array(same, same) == 0)
    # positivity for distinct nodes
    distinct = src != dst
    assert np.all(topo.hops_array(src, dst)[distinct] >= 1)
    # symmetry
    assert np.array_equal(topo.hops_array(src, dst), topo.hops_array(dst, src))
    # diameter bound
    assert topo.hops_array(src, dst).max() <= topo.diameter
    # triangle inequality through random midpoints
    mid = rng.integers(0, n, len(src))
    d_direct = topo.hops_array(src, dst)
    d_via = topo.hops_array(src, mid) + topo.hops_array(mid, dst)
    assert np.all(d_direct <= d_via)


def check_routes(topo, seed=1):
    rng = np.random.default_rng(seed)
    n = topo.num_nodes
    src, dst = _random_pairs(rng, n)
    inc = topo.route_incidence(src, dst)
    counted = np.bincount(inc.pair_index, minlength=len(src))
    assert np.array_equal(counted, topo.hops_array(src, dst))
    if inc.num_incidences:
        assert inc.link_id.min() >= 0


class TestTorusProperties:
    @settings(max_examples=25, deadline=None)
    @given(dims_strategy)
    def test_metric_axioms(self, dims):
        check_metric_axioms(Torus3D(dims))

    @settings(max_examples=25, deadline=None)
    @given(dims_strategy)
    def test_routes(self, dims):
        check_routes(Torus3D(dims))

    @settings(max_examples=25, deadline=None)
    @given(dims_strategy)
    def test_snake_order_adjacency(self, dims):
        topo = Torus3D(dims)
        order = topo.snake_order()
        assert sorted(order.tolist()) == list(range(topo.num_nodes))
        if topo.num_nodes > 1:
            hops = topo.hops_array(order[:-1], order[1:])
            assert np.all(hops == 1)


class TestMeshProperties:
    @settings(max_examples=20, deadline=None)
    @given(dims_strategy)
    def test_metric_axioms(self, dims):
        check_metric_axioms(Mesh3D(dims))

    @settings(max_examples=20, deadline=None)
    @given(dims_strategy)
    def test_routes(self, dims):
        mesh = Mesh3D(dims)
        check_routes(mesh)
        # A link owned by the last coordinate along its dimension would
        # wrap around to coordinate 0: the mesh has no such link.
        rng = np.random.default_rng(5)
        inc = mesh.route_incidence(*_random_pairs(rng, mesh.num_nodes))
        owner, dim = np.divmod(inc.link_id, 3)
        coords = mesh.coordinates(owner)[np.arange(len(owner)), dim]
        assert np.all(coords < np.array(dims)[dim] - 1)

    @settings(max_examples=20, deadline=None)
    @given(dims_strategy)
    def test_mesh_dominates_torus(self, dims):
        mesh, torus = Mesh3D(dims), Torus3D(dims)
        rng = np.random.default_rng(2)
        src, dst = _random_pairs(rng, mesh.num_nodes)
        assert np.all(mesh.hops_array(src, dst) >= torus.hops_array(src, dst))


class TestFatTreeProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([4, 8, 16, 48]))
    def test_metric_axioms(self, stages, radix):
        check_metric_axioms(FatTree(radix, stages))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([4, 8, 48]))
    def test_routes(self, stages, radix):
        check_routes(FatTree(radix, stages))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([4, 8, 16]))
    def test_hops_always_even(self, stages, radix):
        topo = FatTree(radix, stages)
        rng = np.random.default_rng(3)
        src, dst = _random_pairs(rng, topo.num_nodes)
        assert np.all(topo.hops_array(src, dst) % 2 == 0)


class TestDragonflyProperties:
    @settings(max_examples=20, deadline=None)
    @given(dragonfly_strategy)
    def test_metric_axioms(self, ahp):
        check_metric_axioms(Dragonfly(*ahp))

    @settings(max_examples=20, deadline=None)
    @given(dragonfly_strategy)
    def test_routes(self, ahp):
        check_routes(Dragonfly(*ahp))

    @settings(max_examples=20, deadline=None)
    @given(dragonfly_strategy)
    def test_cross_group_exactly_one_global_link(self, ahp):
        topo = Dragonfly(*ahp)
        rng = np.random.default_rng(4)
        src, dst = _random_pairs(rng, topo.num_nodes)
        inc = topo.route_incidence(src, dst)
        global_per_pair = np.bincount(
            inc.pair_index[topo.is_global_link(inc.link_id)], minlength=len(src)
        )
        crosses = topo.crosses_groups(src, dst)
        assert np.array_equal(global_per_pair > 0, crosses)
        assert np.all(global_per_pair <= 1)
