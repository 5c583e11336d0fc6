"""The torus/mesh route walk and the link sets built from it, against oracles.

:meth:`Torus3D.route_incidence_ordered` walks each dimension on 1-D
coordinate columns and writes its rows into arrays allocated once;
``tests/oracles/routing.py`` keeps the ``(k, 3)`` step walk it replaced.
Rows must be byte-identical, in the same order (dimension, then step, then
ascending pair): ``link_loads`` sums floats in row order, the simulator
follows each pair's rows as its hop order, and cached ``.npz`` incidences
stay valid.  The ``bincount`` link sets (``used_links``, ``link_loads``,
the simulator's link compaction, ``Mapping.used_nodes``) must equal their
``np.unique`` formulations.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import spread_matrix
from oracles.routing import (
    link_loads_reference,
    route_incidence_ordered_reference,
    used_links_reference,
)

from repro.cache import cached_route_incidence
from repro.mapping.base import Mapping
from repro.sim.common import prepare_simulation
from repro.topology.base import RouteIncidence, compact_ids
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D

ORDERS = list(itertools.permutations(range(3)))

# Dims of 1 (no links used along them), 2 (one link, tie always forward)
# and even rings (a half-way tie per pair) next to odd ones.
dims_strategy = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
).filter(lambda d: d[0] * d[1] * d[2] >= 2)


def _assert_same_rows(got: RouteIncidence, want: RouteIncidence) -> None:
    for name in ("pair_index", "link_id"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def queries(draw):
    dims = draw(dims_strategy)
    n = dims[0] * dims[1] * dims[2]
    k = draw(st.integers(0, 40))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    if k:  # always some self pairs
        dst[:: max(1, k // 3)] = src[:: max(1, k // 3)]
    return dims, src.astype(np.int64), dst.astype(np.int64)


class TestWalkOracle:
    @settings(max_examples=60, deadline=None)
    @given(queries(), st.sampled_from(ORDERS), st.sampled_from([Torus3D, Mesh3D]))
    def test_rows_byte_identical(self, query, order, cls):
        dims, src, dst = query
        topo = cls(dims)
        _assert_same_rows(
            topo.route_incidence_ordered(src, dst, order),
            route_incidence_ordered_reference(topo, src, dst, order),
        )

    @pytest.mark.parametrize("cls", [Torus3D, Mesh3D])
    @pytest.mark.parametrize("dims", [(4, 6, 2), (12, 12, 12), (1, 2, 8)])
    def test_every_pair_every_order(self, cls, dims):
        topo = cls(dims)
        rng = np.random.default_rng(11)
        src = rng.integers(0, topo.num_nodes, 3000)
        dst = rng.integers(0, topo.num_nodes, 3000)
        for order in ORDERS:
            _assert_same_rows(
                topo.route_incidence_ordered(src, dst, order),
                route_incidence_ordered_reference(topo, src, dst, order),
            )

    @pytest.mark.parametrize("cls", [Torus3D, Mesh3D])
    def test_empty_query(self, cls):
        empty = np.zeros(0, dtype=np.int64)
        _assert_same_rows(
            cls((3, 4, 5)).route_incidence(empty, empty),
            route_incidence_ordered_reference(cls((3, 4, 5)), empty, empty),
        )

    @pytest.mark.parametrize("cls", [Torus3D, Mesh3D])
    def test_self_pairs_have_no_rows(self, cls):
        nodes = np.arange(60, dtype=np.int64)
        assert cls((3, 4, 5)).route_incidence(nodes, nodes).num_incidences == 0

    def test_even_ring_tie_goes_forward(self):
        # 0 -> 2 on a 4-ring is two hops either way; the walk goes +x
        # through the links owned by x=0 and x=1.
        topo = Torus3D((4, 1, 1))
        inc = topo.route_incidence(np.array([0]), np.array([2]))
        assert inc.link_id.tolist() == [0 * 3, 1 * 3]

    def test_mesh_never_wraps(self):
        # 3 -> 0 on a 4-long mesh row goes the long way: three -x hops
        # over the links owned by x=2, 1, 0.  The torus takes the one wrap
        # link owned by x=3 instead.
        src, dst = np.array([3]), np.array([0])
        assert Mesh3D((4, 1, 1)).route_incidence(src, dst).link_id.tolist() == [
            6, 3, 0
        ]
        assert Torus3D((4, 1, 1)).route_incidence(src, dst).link_id.tolist() == [9]


TOPOLOGIES = [Torus3D((4, 3, 5)), Mesh3D((4, 3, 5)), FatTree(8, 3), Dragonfly(4, 2, 2)]


def _incidence(topo, k, seed=3):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, topo.num_nodes, k)
    dst = rng.integers(0, topo.num_nodes, k)
    return topo.route_incidence(src, dst), rng.random(k) * 1e6


class TestLinkSets:
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
    @pytest.mark.parametrize("k", [0, 1, 500])
    def test_used_links_and_loads_match_unique(self, topo, k):
        inc, weights = _incidence(topo, k)
        want = used_links_reference(inc)
        assert inc.used_links().dtype == want.dtype
        assert np.array_equal(inc.used_links(), want)
        # A fresh instance, so link_loads builds its own remap first.
        ids, loads = RouteIncidence(inc.pair_index, inc.link_id).link_loads(weights)
        want_ids, want_loads = link_loads_reference(inc, weights)
        assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
        assert loads.tobytes() == want_loads.tobytes()

    @pytest.mark.parametrize("k", [0, 1, 7, 10_000])
    def test_compact_ids_is_unique_with_inverse(self, k):
        ids = np.random.default_rng(k).integers(0, 500, k)
        got = compact_ids(ids)
        want = np.unique(ids, return_inverse=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
    @pytest.mark.parametrize("routing", ["minimal", "valiant", "ugal"])
    def test_sim_setup_compaction(self, topo, routing):
        matrix = spread_matrix(min(topo.num_nodes, 48), seed=5)
        setup = prepare_simulation(
            matrix, topo, volume_scale=4096, routing=routing, routing_seed=2
        )
        mapping = Mapping.consecutive(matrix.num_ranks, topo.num_nodes)
        src, dst = mapping.node_of(matrix.src), mapping.node_of(matrix.dst)
        crossing = src != dst
        inc = cached_route_incidence(
            topo,
            src[crossing],
            dst[crossing],
            routing=routing,
            seed=2,
            pair_weights=setup.pair_packets,
        )
        order = np.argsort(inc.pair_index, kind="stable")
        ids, inverse = np.unique(inc.link_id[order], return_inverse=True)
        assert np.array_equal(setup.link_ids, ids)
        assert setup.route_links.dtype == np.min_scalar_type(setup.num_links - 1)
        assert np.array_equal(setup.route_links, inverse)
        assert setup.num_links == len(ids)

    def test_mapping_used_nodes(self):
        mapping = Mapping(np.array([5, 2, 2, 9, 5, 0]), 12)
        assert mapping.used_nodes().tolist() == [0, 2, 5, 9]
        assert mapping.used_nodes().dtype == np.int64
        assert mapping.num_used_nodes == 4
