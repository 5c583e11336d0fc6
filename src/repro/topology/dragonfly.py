"""Dragonfly topology (paper §2.2.2, Kim et al. [5]).

A dragonfly is parameterized by ``(a, h, p)``: each group has ``a`` routers,
every router connects ``p`` nodes and ``h`` global links; groups are
all-to-all connected through the global links.  The balanced recommendation
``a = 2h = 2p`` (used for all of the paper's configurations) gives
``g = a*h + 1`` groups — exactly one global link per group pair — and
``N = g*a*p`` nodes.

Global links follow the **palm-tree** pattern: global port ``l`` of group
``G`` (ports numbered ``0 .. a*h-1``, router ``l // h`` owns port ``l``)
connects to group ``(G + l + 1) mod g``; the opposite end is port
``a*h - 1 - l`` of the target group.  This assignment is self-consistent and
spreads the links evenly over routers.

Routing is minimal: node → source router → (local hop to the gateway router
owning the right global port, if needed) → global link → (local hop to the
destination router, if needed) → node.  Hop counts therefore span 2 (same
router) to 5 (cross-group with two local detours), matching the paper.
Local links within a group form a complete graph among the ``a`` routers.

The paper notes that "in practice usually adaptive routing is used in
dragonfly networks, which often results in even longer paths" (§7).
Non-minimal routing (Valiant and load-adaptive UGAL route incidences)
lives in :mod:`repro.routing`; its Valiant engine draws intermediate
groups through :meth:`Dragonfly.valiant_intermediate_groups`, so that
remark can be quantified (see the routing ablation benchmark).
"""

from __future__ import annotations

import numpy as np

from .base import RouteIncidence, Topology

__all__ = ["Dragonfly"]


class Dragonfly(Topology):
    """Dragonfly with palm-tree global links and minimal routing."""

    kind = "dragonfly"

    def __init__(self, a: int, h: int, p: int) -> None:
        if a <= 0 or h <= 0 or p <= 0:
            raise ValueError(f"a, h, p must be positive, got ({a},{h},{p})")
        self.a = a
        self.h = h
        self.p = p
        self.num_groups = a * h + 1
        self._num_nodes = self.num_groups * a * p

    def __repr__(self) -> str:
        return f"Dragonfly(a={self.a}, h={self.h}, p={self.p})"

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def diameter(self) -> int:
        # node + local + global + local + node; degenerate with a == 1.
        return 5 if self.a > 1 else 3

    def fingerprint(self) -> tuple:
        return ("dragonfly", self.a, self.h, self.p)

    @property
    def is_balanced(self) -> bool:
        """True for the recommended a = 2h = 2p configuration."""
        return self.a == 2 * self.h and self.a == 2 * self.p

    # -- structure helpers -------------------------------------------------------

    def group_of(self, nodes: np.ndarray) -> np.ndarray:
        return np.asarray(nodes, dtype=np.int64) // (self.a * self.p)

    def router_of(self, nodes: np.ndarray) -> np.ndarray:
        """Router index *within the group* of each node."""
        return (np.asarray(nodes, dtype=np.int64) // self.p) % self.a

    def gateway_routers(
        self, src_group: np.ndarray, dst_group: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Routers holding the two ends of the global link between group pairs.

        Returns ``(router_in_src_group, router_in_dst_group)`` (in-group
        indices) under the palm-tree assignment.  Groups must differ.
        """
        g = self.num_groups
        port = (dst_group - src_group - 1) % g  # 0 .. a*h - 1
        back_port = self.a * self.h - 1 - port
        return port // self.h, back_port // self.h

    # -- hops ---------------------------------------------------------------------

    def hops_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self._check_nodes(src, dst)

        hops = np.zeros(len(src), dtype=np.int64)
        differ = src != dst
        gs = self.group_of(src)
        gd = self.group_of(dst)
        rs = self.router_of(src)
        rd = self.router_of(dst)

        same_group = differ & (gs == gd)
        # same router: node + node = 2; different router: + local = 3
        hops[same_group] = np.where(rs[same_group] == rd[same_group], 2, 3)

        cross = differ & (gs != gd)
        if cross.any():
            gw_src, gw_dst = self.gateway_routers(gs[cross], gd[cross])
            extra = (rs[cross] != gw_src).astype(np.int64) + (
                rd[cross] != gw_dst
            ).astype(np.int64)
            hops[cross] = 3 + extra  # node + global + node (+ local detours)
        return hops

    def walk_hops_lower_bound(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """True walk lower bound: ``min(hops_array, 4)`` for cross-group pairs.

        On a dragonfly ``hops_array`` is the *direct minimal route* length —
        forced through the single global link of the group pair, plus up to
        two local detours — and that is **not** a graph-distance lower
        bound.  A walk crossing two global links costs at least
        ``node + global + global + node = 4`` hops, and when the gateway
        routers of an intermediate group happen to align with the endpoint
        routers, exactly 4 is achievable while the direct route needs 5.
        Valiant draws such routes in practice.  Any cross-group walk uses
        either the one direct global link (>= ``hops_array`` hops) or at
        least two global links (>= 4 hops), so the elementwise minimum is a
        tight true bound.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        bound = self.hops_array(src, dst)
        cross = (src != dst) & (self.group_of(src) != self.group_of(dst))
        bound[cross] = np.minimum(bound[cross], 4)
        return bound

    # -- links ----------------------------------------------------------------------

    @property
    def _local_base(self) -> int:
        return self._num_nodes  # node link ids occupy [0, N)

    @property
    def _links_per_group(self) -> int:
        return self.a * (self.a - 1) // 2

    @property
    def _global_base(self) -> int:
        return self._num_nodes + self.num_groups * self._links_per_group

    @property
    def num_links(self) -> int:
        """Distinct physical links: node + local + global (each counted once)."""
        global_links = self.num_groups * (self.num_groups - 1) // 2
        return self._global_base + global_links

    def _local_link_id(
        self, group: np.ndarray, r1: np.ndarray, r2: np.ndarray
    ) -> np.ndarray:
        """Undirected local link between two in-group routers (r1 != r2)."""
        lo = np.minimum(r1, r2)
        hi = np.maximum(r1, r2)
        # triangular index of the unordered pair (lo, hi) with lo < hi < a
        tri = lo * (2 * self.a - lo - 1) // 2 + (hi - lo - 1)
        return self._local_base + group * self._links_per_group + tri

    def _global_link_id(self, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
        """Undirected global link between two groups (exactly one per pair)."""
        lo = np.minimum(g1, g2)
        hi = np.maximum(g1, g2)
        g = self.num_groups
        tri = lo * (2 * g - lo - 1) // 2 + (hi - lo - 1)
        return self._global_base + tri

    def route_incidence(self, src: np.ndarray, dst: np.ndarray) -> RouteIncidence:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self._check_nodes(src, dst)
        pair_ids = np.arange(len(src), dtype=np.int64)

        gs = self.group_of(src)
        gd = self.group_of(dst)
        rs = self.router_of(src)
        rd = self.router_of(dst)
        differ = src != dst

        pair_chunks: list[np.ndarray] = []
        link_chunks: list[np.ndarray] = []

        def emit(mask: np.ndarray, links: np.ndarray) -> None:
            pair_chunks.append(pair_ids[mask])
            link_chunks.append(links)

        if differ.any():
            emit(differ, src[differ])  # injection node link
            emit(differ, dst[differ])  # ejection node link

        same_group_local = differ & (gs == gd) & (rs != rd)
        if same_group_local.any():
            emit(
                same_group_local,
                self._local_link_id(
                    gs[same_group_local], rs[same_group_local], rd[same_group_local]
                ),
            )

        cross = differ & (gs != gd)
        if cross.any():
            gw_src, gw_dst = self.gateway_routers(gs[cross], gd[cross])
            emit(cross, self._global_link_id(gs[cross], gd[cross]))
            detour_src = cross.copy()
            detour_src[cross] = rs[cross] != gw_src
            if detour_src.any():
                sub = rs[cross] != gw_src
                emit(
                    detour_src,
                    self._local_link_id(gs[cross][sub], rs[cross][sub], gw_src[sub]),
                )
            detour_dst = cross.copy()
            detour_dst[cross] = rd[cross] != gw_dst
            if detour_dst.any():
                sub = rd[cross] != gw_dst
                emit(
                    detour_dst,
                    self._local_link_id(gd[cross][sub], rd[cross][sub], gw_dst[sub]),
                )

        if pair_chunks:
            return RouteIncidence(
                np.concatenate(pair_chunks), np.concatenate(link_chunks)
            )
        empty = np.zeros(0, dtype=np.int64)
        return RouteIncidence(empty, empty.copy())

    def is_global_link(self, link_ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which link IDs are inter-group (global) links."""
        return np.asarray(link_ids, dtype=np.int64) >= self._global_base

    def crosses_groups(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Boolean per pair: does the minimal route use a global link?"""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        return self.group_of(src) != self.group_of(dst)

    def valiant_intermediate_groups(
        self,
        src_groups: np.ndarray,
        dst_groups: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Uniformly random intermediate group per pair, excluding endpoints.

        One bulk draw plus rejection resampling of clashes, tested against
        *both* endpoint groups each round — resampling against one endpoint
        at a time can reintroduce a clash with the other and leak a
        degenerate intermediate.  Requires at least three groups (otherwise
        no valid intermediate exists for a cross-group pair).  The Valiant
        and UGAL engines in :mod:`repro.routing` draw through it, and so
        does the hops-only oracle in ``tests/oracles/routing.py``: for one
        rng state all pick identical intermediate groups.
        """
        g = self.num_groups
        if g < 3:
            raise ValueError(
                f"Valiant needs >= 3 groups for an intermediate, have {g}"
            )
        gi = rng.integers(0, g, size=len(src_groups))
        clash = (gi == src_groups) | (gi == dst_groups)
        while clash.any():
            gi[clash] = rng.integers(0, g, size=int(clash.sum()))
            clash = (gi == src_groups) | (gi == dst_groups)
        return gi

    def nominal_links(self, used_nodes: int) -> float:
        """Per-router link accounting scaled to used nodes (paper §4.2.3).

        Each router owns ``p`` node links, ``a - 1`` local links and ``h``
        global links; per node that is ``(p + a - 1 + h) / p`` — between 3.5
        and 3.8 for the paper's standard configurations.
        """
        if used_nodes < 0:
            raise ValueError("used_nodes must be >= 0")
        used = min(used_nodes, self._num_nodes)
        return used * (self.p + self.a - 1 + self.h) / self.p

    def describe_link(self, link_id: int) -> str:
        link_id = int(link_id)
        if link_id < self._local_base:
            return f"dragonfly node link at node {link_id}"
        if link_id < self._global_base:
            rel = link_id - self._local_base
            group, tri = divmod(rel, self._links_per_group)
            return f"dragonfly local link group {group} pair-index {tri}"
        tri = link_id - self._global_base
        return f"dragonfly global link pair-index {tri}"
