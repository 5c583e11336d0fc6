"""Full-path Valiant (randomized non-minimal) routing.

Valiant's scheme routes every packet minimally to a uniformly random
*intermediate*, then minimally to its destination — trading path length for
provably balanced load on adversarial traffic.  Routes are link-level:

- **dragonfly** — cross-group pairs detour through a random intermediate
  group drawn by :meth:`Dragonfly.valiant_intermediate_groups`; for equal
  seeds the hop counts reproduce the hops-only oracle in
  ``tests/oracles/routing.py``, which draws through the same sampler.
  The path is: inject, (local detour to the gateway), global link into the
  intermediate group, (local hop between the two gateways there), global
  link into the destination group, (local detour to the destination
  router), eject.  Intra-group pairs stay minimal.
  Dragonflies with fewer than three groups have no valid intermediate, so
  the policy falls back to minimal there.
- **torus** — each pair routes dimension-order to a uniformly random
  intermediate node, then dimension-order to the destination (the two legs
  concatenate into one walk).
- **fat tree** — routing "up to a random core switch, then down" is exactly
  a uniformly random choice of upward lanes, so Valiant here picks random
  ``(lane1, lane2)`` per pair; paths stay shortest (the fat tree's
  non-minimal tier does not exist in the folded-Clos model).

Each query draws from a fresh ``default_rng(seed)``, making routes a pure
function of ``(topology, src, dst, seed)`` — required for cache keying.
"""

from __future__ import annotations

import numpy as np

from ..topology.base import RouteIncidence, Topology
from ..topology.dragonfly import Dragonfly
from ..topology.fattree import FatTree
from ..topology.torus import Torus3D
from .base import RoutingPolicy

__all__ = ["ValiantRouting", "dragonfly_valiant_cross"]


def dragonfly_valiant_cross(
    topology: Dragonfly,
    src: np.ndarray,
    dst: np.ndarray,
    intermediate_groups: np.ndarray,
) -> RouteIncidence:
    """Link-level Valiant paths for *cross-group* pairs only.

    Every pair is assumed to cross groups, and every intermediate group is
    assumed to differ from both endpoint groups (the sampler guarantees
    this).  Shared by the Valiant policy and UGAL's non-minimal candidate
    leg, so both price exactly the same detour paths.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    gi = np.asarray(intermediate_groups, dtype=np.int64)
    gs = topology.group_of(src)
    gd = topology.group_of(dst)
    rs = topology.router_of(src)
    rd = topology.router_of(dst)
    gw1_src, gw1_mid = topology.gateway_routers(gs, gi)
    gw2_mid, gw2_dst = topology.gateway_routers(gi, gd)
    pair_ids = np.arange(len(src), dtype=np.int64)

    pair_chunks: list[np.ndarray] = []
    link_chunks: list[np.ndarray] = []

    def emit(mask: np.ndarray, links: np.ndarray) -> None:
        pair_chunks.append(pair_ids[mask])
        link_chunks.append(links)

    everyone = np.ones(len(src), dtype=bool)
    emit(everyone, src)  # injection node link
    emit(everyone, dst)  # ejection node link
    emit(everyone, topology._global_link_id(gs, gi))
    emit(everyone, topology._global_link_id(gi, gd))

    detour1 = rs != gw1_src
    if detour1.any():
        emit(
            detour1,
            topology._local_link_id(gs[detour1], rs[detour1], gw1_src[detour1]),
        )
    mid_hop = gw1_mid != gw2_mid
    if mid_hop.any():
        emit(
            mid_hop,
            topology._local_link_id(gi[mid_hop], gw1_mid[mid_hop], gw2_mid[mid_hop]),
        )
    detour2 = rd != gw2_dst
    if detour2.any():
        emit(
            detour2,
            topology._local_link_id(gd[detour2], rd[detour2], gw2_dst[detour2]),
        )
    return RouteIncidence(np.concatenate(pair_chunks), np.concatenate(link_chunks))


def _concat_subsets(
    n: int,
    parts: list[tuple[np.ndarray, RouteIncidence]],
) -> RouteIncidence:
    """Merge incidences computed over index subsets of an ``n``-pair batch."""
    pair_chunks = [idx[inc.pair_index] for idx, inc in parts if len(inc.pair_index)]
    link_chunks = [inc.link_id for _, inc in parts if len(inc.link_id)]
    if pair_chunks:
        return RouteIncidence(
            np.concatenate(pair_chunks), np.concatenate(link_chunks)
        )
    empty = np.zeros(0, dtype=np.int64)
    return RouteIncidence(empty, empty.copy())


class ValiantRouting(RoutingPolicy):
    """Minimal to a random intermediate, then minimal to the destination."""

    name = "valiant"
    randomized = True

    def route_incidence(
        self,
        topology: Topology,
        src: np.ndarray,
        dst: np.ndarray,
        pair_weights: np.ndarray | None = None,
    ) -> RouteIncidence:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if isinstance(topology, Dragonfly):
            return self._dragonfly(topology, src, dst)
        if isinstance(topology, Torus3D):
            return self._torus(topology, src, dst)
        if isinstance(topology, FatTree):
            rng = self._rng()
            k = topology.k
            return topology.route_incidence_lanes(
                src,
                dst,
                rng.integers(0, k, size=len(src)),
                rng.integers(0, k, size=len(src)),
            )
        return topology.route_incidence(src, dst)

    def _dragonfly(
        self, topology: Dragonfly, src: np.ndarray, dst: np.ndarray
    ) -> RouteIncidence:
        gs = topology.group_of(src)
        gd = topology.group_of(dst)
        cross = (src != dst) & (gs != gd)
        if topology.num_groups < 3 or not cross.any():
            # No valid intermediate group exists (or nothing crosses
            # groups): such traffic stays minimal and draws nothing from
            # the rng.
            return topology.route_incidence(src, dst)
        rng = self._rng()
        gi = topology.valiant_intermediate_groups(gs[cross], gd[cross], rng)
        idx_cross = np.flatnonzero(cross)
        idx_rest = np.flatnonzero(~cross)
        inc_cross = dragonfly_valiant_cross(
            topology, src[idx_cross], dst[idx_cross], gi
        )
        inc_rest = topology.route_incidence(src[idx_rest], dst[idx_rest])
        return _concat_subsets(
            len(src), [(idx_cross, inc_cross), (idx_rest, inc_rest)]
        )

    def _torus(
        self, topology: Torus3D, src: np.ndarray, dst: np.ndarray
    ) -> RouteIncidence:
        differ = src != dst
        idx = np.flatnonzero(differ)
        if not len(idx):
            empty = np.zeros(0, dtype=np.int64)
            return RouteIncidence(empty, empty.copy())
        rng = self._rng()
        mid = rng.integers(0, topology.num_nodes, size=len(idx))
        # Two dimension-order legs; sharing the intermediate node makes the
        # concatenation a single valid walk (legs may retrace links — that
        # is genuine Valiant behavior and each traversal carries load).
        leg1 = topology.route_incidence(src[idx], mid)
        leg2 = topology.route_incidence(mid, dst[idx])
        return _concat_subsets(len(src), [(idx, leg1), (idx, leg2)])
