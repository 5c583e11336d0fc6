"""Tests for the 3D torus model, cross-validated against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.topology.torus import Torus3D


def torus_graph(dims):
    """Reference graph with the same wiring, for shortest-path checks."""
    g = nx.Graph()
    X, Y, Z = dims
    for x in range(X):
        for y in range(Y):
            for z in range(Z):
                n = (x * Y + y) * Z + z
                for dim, size in enumerate(dims):
                    coords = [x, y, z]
                    coords[dim] = (coords[dim] + 1) % size
                    m = (coords[0] * Y + coords[1]) * Z + coords[2]
                    if m != n:
                        g.add_edge(n, m)
    return g


class TestStructure:
    def test_node_count(self):
        assert Torus3D((4, 3, 2)).num_nodes == 24

    def test_diameter(self):
        assert Torus3D((4, 4, 4)).diameter == 6
        assert Torus3D((2, 2, 2)).diameter == 3
        assert Torus3D((5, 5, 5)).diameter == 6

    def test_link_count_three_per_node(self):
        t = Torus3D((4, 4, 4))
        assert t.num_links == 3 * 64
        assert t.nominal_links(64) == 192.0
        assert t.nominal_links(10) == 30.0

    def test_coordinates_roundtrip(self):
        t = Torus3D((3, 4, 5))
        nodes = np.arange(60)
        coords = t.coordinates(nodes)
        rebuilt = np.ravel_multi_index(tuple(coords.T), t.dims)
        assert np.array_equal(rebuilt, nodes)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Torus3D((0, 2, 2))
        with pytest.raises(ValueError):
            Torus3D((2, 2))  # type: ignore[arg-type]


class TestHops:
    def test_self_is_zero(self):
        t = Torus3D((4, 4, 4))
        assert t.hops(17, 17) == 0

    def test_neighbour_is_one(self):
        t = Torus3D((4, 4, 4))
        assert t.hops(0, 1) == 1  # +z
        assert t.hops(0, 4) == 1  # +y
        assert t.hops(0, 16) == 1  # +x

    def test_wraparound_shortens(self):
        t = Torus3D((4, 1, 1))
        assert t.hops(0, 3) == 1  # wrap, not 3 steps

    def test_symmetry(self):
        t = Torus3D((3, 4, 5))
        rng = np.random.default_rng(1)
        a = rng.integers(0, 60, 200)
        b = rng.integers(0, 60, 200)
        assert np.array_equal(t.hops_array(a, b), t.hops_array(b, a))

    def test_triangle_inequality(self):
        t = Torus3D((3, 3, 3))
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = rng.integers(0, 27, 3)
            assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (4, 3, 2), (3, 3, 3)])
    def test_matches_networkx_shortest_paths(self, dims):
        t = Torus3D(dims)
        g = torus_graph(dims)
        n = t.num_nodes
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for src in range(n):
            dst = np.arange(n)
            hops = t.hops_array(np.full(n, src), dst)
            for d in range(n):
                expected = 0 if d == src else lengths[src][d]
                assert hops[d] == expected, (dims, src, d)

    def test_out_of_range_rejected(self):
        t = Torus3D((2, 2, 2))
        with pytest.raises(ValueError):
            t.hops(0, 8)


class TestRoutes:
    def test_route_length_equals_hops(self):
        t = Torus3D((4, 3, 3))
        rng = np.random.default_rng(3)
        src = rng.integers(0, 36, 300)
        dst = rng.integers(0, 36, 300)
        inc = t.route_incidence(src, dst)
        hops = t.hops_array(src, dst)
        counted = np.bincount(inc.pair_index, minlength=300)
        assert np.array_equal(counted, hops)

    def test_route_links_are_valid_ids(self):
        t = Torus3D((3, 3, 3))
        inc = t.route_incidence(np.array([0]), np.array([26]))
        assert all(0 <= lid < t.num_links for lid in inc.link_id)

    def test_route_walks_contiguous_links(self):
        """Consecutive route links share an endpoint (a real path)."""
        t = Torus3D((4, 4, 4))
        for src, dst in [(0, 63), (5, 58), (17, 44)]:
            links = t.route_links(src, dst)
            # decode endpoints
            def endpoints(lid):
                node, dim = divmod(lid, 3)
                x, y, z = t.coordinates(np.array([node]))[0]
                coords = [x, y, z]
                other = list(coords)
                other[dim] = (other[dim] + 1) % t.dims[dim]
                return {
                    int(np.ravel_multi_index(coords, t.dims)),
                    int(np.ravel_multi_index(other, t.dims)),
                }

            current = {src}
            for lid in links:
                ends = endpoints(lid)
                assert current & ends, "route link does not touch current node"
                current = ends - current or ends
            assert dst in current | {dst}

    def test_used_links_bounded_by_total(self):
        t = Torus3D((4, 4, 4))
        rng = np.random.default_rng(4)
        src = rng.integers(0, 64, 500)
        dst = rng.integers(0, 64, 500)
        inc = t.route_incidence(src, dst)
        assert len(inc.used_links()) <= t.num_links

    def test_uniform_traffic_uses_most_links(self):
        t = Torus3D((3, 3, 3))
        n = t.num_nodes
        src, dst = np.meshgrid(np.arange(n), np.arange(n))
        inc = t.route_incidence(src.ravel(), dst.ravel())
        # dimension-order routing over all pairs touches every link
        assert len(inc.used_links()) == t.num_links

    def test_empty_route_for_self(self):
        t = Torus3D((2, 2, 2))
        inc = t.route_incidence(np.array([3]), np.array([3]))
        assert inc.num_incidences == 0

    def test_link_loads_aggregation(self):
        t = Torus3D((2, 2, 2))
        src = np.array([0, 0])
        dst = np.array([1, 1])
        inc = t.route_incidence(src, dst)
        ids, loads = inc.link_loads(np.array([10.0, 5.0]))
        assert len(ids) == 1
        assert loads[0] == 15.0

    def test_describe_link(self):
        t = Torus3D((2, 2, 2))
        assert "torus link" in t.describe_link(0)


class TestUniformAverage:
    def test_average_hops_uniform_small(self):
        t = Torus3D((2, 2, 2))
        src, dst = np.divmod(np.arange(64), 8)
        off = src != dst
        # distances from any node: three at 1, three at 2, one at 3
        assert t.hops_array(src[off], dst[off]).mean() == pytest.approx(12 / 7)
