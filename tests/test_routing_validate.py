"""Edge cases of :mod:`repro.routing.validate` — the route walk checker.

The property tests in ``test_routing.py`` sweep every policy × topology
pair through :func:`walks_are_valid`; these tests pin the checker's own
semantics at the boundaries: the 0-hop convention for same-node pairs,
wraparound torus walks (where naive coordinate deltas mislead), and the
rejection of structurally corrupted incidences — each corruption breaking
a different clause of the Eulerian-walk characterization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing import get_policy
from repro.routing.validate import link_endpoints, walks_are_valid
from repro.topology.base import RouteIncidence
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D

TOPOLOGIES = [
    pytest.param(Torus3D((4, 3, 3)), id="torus3d"),
    pytest.param(FatTree(8, 3), id="fattree"),
    pytest.param(Dragonfly(4, 2, 2), id="dragonfly"),
]


def _route(topology, src, dst):
    return get_policy("minimal").route_incidence(
        topology,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
    )


class TestZeroHopRoutes:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_same_node_pairs_have_no_rows_and_validate(self, topology):
        src = np.array([0, 5, topology.num_nodes - 1], dtype=np.int64)
        inc = _route(topology, src, src)
        assert inc.num_incidences == 0
        assert walks_are_valid(topology, src, src, inc).all()

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_mixed_batch_keeps_zero_hop_convention(self, topology):
        # Same-node pairs interleaved with real routes: only the real
        # routes contribute rows, and every pair still validates.
        src = np.array([3, 0, 7, 2], dtype=np.int64)
        dst = np.array([3, 9, 7, 11], dtype=np.int64)
        inc = _route(topology, src, dst)
        assert not np.isin(inc.pair_index, [0, 2]).any()
        assert walks_are_valid(topology, src, dst, inc).all()

    def test_zero_rows_for_distinct_pair_is_invalid(self):
        topology = Torus3D((3, 3, 3))
        empty = RouteIncidence(
            pair_index=np.empty(0, dtype=np.int64),
            link_id=np.empty(0, dtype=np.int64),
        )
        src = np.array([0], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        assert not walks_are_valid(topology, src, dst, empty).any()


class TestTorusWraparound:
    def test_wrap_link_is_the_shortest_x_route(self):
        # On a 4-ring, 0 -> 3 in x is one hop *backwards* through the
        # wraparound link owned by node 3 (links join owner to +dim).
        topology = Torus3D((4, 3, 3))
        src = np.array([0], dtype=np.int64)
        dst = np.array([3 * 9], dtype=np.int64)  # coordinate (3, 0, 0)
        inc = _route(topology, src, dst)
        assert inc.num_incidences == 1
        u, v = link_endpoints(topology, inc.link_id)
        assert {int(u[0]), int(v[0])} == {0, 27}
        assert walks_are_valid(topology, src, dst, inc).all()

    def test_all_dimensions_wrap(self):
        # (0,0,0) -> (3,2,2): every dimension is shorter through the wrap
        # (distance 1+1+1), so the walk uses exactly three wrap links.
        topology = Torus3D((4, 3, 3))
        src = np.array([0], dtype=np.int64)
        dst = np.array([(3 * 3 + 2) * 3 + 2], dtype=np.int64)
        inc = _route(topology, src, dst)
        assert inc.num_incidences == 3
        owners = inc.link_id // 3
        assert not np.isin(0, owners)  # none owned by the source
        assert walks_are_valid(topology, src, dst, inc).all()

    def test_random_wrap_heavy_batch_validates(self):
        topology = Torus3D((4, 3, 3))
        rng = np.random.default_rng(5)
        src = rng.integers(0, topology.num_nodes, size=64)
        dst = rng.integers(0, topology.num_nodes, size=64)
        inc = _route(topology, src, dst)
        assert walks_are_valid(topology, src, dst, inc).all()


class TestCorruptedIncidence:
    """Each corruption violates a different Eulerian-walk clause."""

    @pytest.fixture()
    def valid(self):
        topology = Torus3D((3, 3, 3))
        src = np.array([0], dtype=np.int64)
        dst = np.array([26], dtype=np.int64)  # (2,2,2): multi-hop route
        inc = _route(topology, src, dst)
        assert inc.num_incidences >= 3
        assert walks_are_valid(topology, src, dst, inc).all()
        return topology, src, dst, inc

    def test_dropped_row_breaks_parity(self, valid):
        topology, src, dst, inc = valid
        corrupted = RouteIncidence(
            pair_index=inc.pair_index[1:], link_id=inc.link_id[1:]
        )
        assert not walks_are_valid(topology, src, dst, corrupted).any()

    def test_duplicated_row_breaks_parity(self, valid):
        topology, src, dst, inc = valid
        corrupted = RouteIncidence(
            pair_index=np.concatenate([inc.pair_index, inc.pair_index[:1]]),
            link_id=np.concatenate([inc.link_id, inc.link_id[:1]]),
        )
        assert not walks_are_valid(topology, src, dst, corrupted).any()

    def test_disconnected_substitute_breaks_connectivity(self, valid):
        topology, src, dst, inc = valid
        # Replace one hop with a far-away link: degrees at the walk's
        # endpoints can stay odd, but the edge set splits in two.
        far = _route(
            topology,
            np.array([13], dtype=np.int64),
            np.array([14], dtype=np.int64),
        )
        assert far.num_incidences == 1
        link_id = inc.link_id.copy()
        link_id[1] = far.link_id[0]
        corrupted = RouteIncidence(pair_index=inc.pair_index, link_id=link_id)
        assert not walks_are_valid(topology, src, dst, corrupted).any()

    def test_corruption_is_per_pair(self, valid):
        topology, _, _, inc = valid
        # A second, intact pair in the same batch must keep validating.
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([26, 2], dtype=np.int64)
        batch = _route(topology, src, dst)
        keep = ~(
            (batch.pair_index == 0)
            & (batch.link_id == batch.link_id[batch.pair_index == 0][0])
        )
        corrupted = RouteIncidence(
            pair_index=batch.pair_index[keep], link_id=batch.link_id[keep]
        )
        ok = walks_are_valid(topology, src, dst, corrupted)
        assert not ok[0] and ok[1]


class TestLinkDecoder:
    """A link ID the topology does not have fails loudly, naming the link."""

    def test_mesh_wrap_link_is_rejected(self):
        # Node (3,0,0)'s +x link would wrap to x=0: a torus link only.
        mesh = Mesh3D((4, 3, 3))
        wrap = 27 * 3
        message = r"^link id 81 \(mesh link \+x at \(3,0,0\)\) would wrap around"
        with pytest.raises(ValueError, match=message):
            link_endpoints(mesh, np.array([0, wrap]))
        u, v = link_endpoints(Torus3D((4, 3, 3)), np.array([wrap]))
        assert (int(u[0]), int(v[0])) == (27, 0)

    def test_mesh_walk_over_a_wrap_link_raises(self):
        # The torus route 0 -> (3,0,0) takes the wrap link; checked as a
        # mesh walk it must fail loudly, not validate.
        mesh = Mesh3D((4, 3, 3))
        src, dst = np.array([0]), np.array([27])
        torus_route = Torus3D((4, 3, 3)).route_incidence(src, dst)
        with pytest.raises(ValueError, match="would wrap around"):
            walks_are_valid(mesh, src, dst, torus_route)
        assert walks_are_valid(mesh, src, dst, mesh.route_incidence(src, dst)).all()

    @pytest.mark.parametrize("cls", [Torus3D, Mesh3D])
    @pytest.mark.parametrize("bad", [36 * 3, 36 * 3 + 7, -1])
    def test_out_of_range_link_is_rejected(self, cls, bad):
        topology = cls((4, 3, 3))
        message = rf"^link id {bad} out of range \[0, 108\)"
        with pytest.raises(ValueError, match=message):
            link_endpoints(topology, np.array([1, bad]))
