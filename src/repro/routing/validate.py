"""Structural validation of routes produced by any policy.

A :class:`~repro.topology.base.RouteIncidence` lists each route's links as
an unordered multiset (policies emit rows chunked by link type, not in
traversal order), so "is this a real path" cannot be checked by scanning
rows.  Instead we use the Eulerian-walk characterization: a multiset of
edges is traversable as a single walk from ``u`` to ``v`` iff

- the edges form one connected component,
- when ``u != v``: exactly ``u`` and ``v`` have odd degree,
- when ``u == v``: every vertex has even degree (and the route may also be
  empty — zero hops).

To apply it, each topology's opaque link IDs are decoded into their two
endpoint *vertices* (:func:`link_endpoints`): torus and mesh links join
nodes directly; fat tree links join nodes, leaf, mid, and top switches of the
folded Clos; dragonfly links join nodes and per-group routers (triangular
pair indices decoded via precomputed ``triu_indices`` tables).  Node
vertices reuse the node IDs, so a pair's walk endpoints are simply
``(src, dst)``.

This module exists for the test suite (property tests run every policy ×
topology pair through :func:`walks_are_valid`) but is importable product
code so ad-hoc debugging of a new policy can use it too.
"""

from __future__ import annotations

import numpy as np

from ..topology.base import RouteIncidence, Topology
from ..topology.dragonfly import Dragonfly
from ..topology.fattree import FatTree
from ..topology.mesh import Mesh3D
from ..topology.torus import Torus3D

__all__ = ["link_endpoints", "walks_are_valid"]


def _triangular_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) arrays indexed by the triangular pair index used for links."""
    lo, hi = np.triu_indices(n, k=1)
    return lo.astype(np.int64), hi.astype(np.int64)


def link_endpoints(
    topology: Topology, link_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode link IDs into their two endpoint vertex IDs.

    Vertex numbering (per topology instance): node vertices are the node
    IDs ``[0, N)``; switch/router vertices follow.  Raises ``TypeError`` for
    topology types without a decoder, and ``ValueError`` for a torus or
    mesh link ID the topology does not have.
    """
    link_ids = np.asarray(link_ids, dtype=np.int64)
    if isinstance(topology, Torus3D):
        return _torus_endpoints(topology, link_ids)
    if isinstance(topology, FatTree):
        return _fattree_endpoints(topology, link_ids)
    if isinstance(topology, Dragonfly):
        return _dragonfly_endpoints(topology, link_ids)
    raise TypeError(f"no link decoder for topology {type(topology).__name__}")


def _torus_endpoints(
    t: Torus3D, link_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Link node*3+dim joins the owner to its +dim ring neighbour.  A mesh
    # has no link from the last coordinate of a dimension (that would wrap).
    bad = (link_ids < 0) | (link_ids >= 3 * t.num_nodes)
    if bad.any():
        raise ValueError(
            f"link id {int(link_ids[bad][0])} out of range [0, "
            f"{3 * t.num_nodes}) for {t!r}"
        )
    owner, dim = np.divmod(link_ids, 3)
    coords = t.coordinates(owner)
    sizes = np.array(t.dims, dtype=np.int64)
    rows = np.arange(len(owner))
    if isinstance(t, Mesh3D):
        wraps = coords[rows, dim] == sizes[dim] - 1
        if wraps.any():
            link = int(link_ids[wraps][0])
            raise ValueError(
                f"link id {link} ({t.describe_link(link)}) would wrap around: "
                f"{t!r} has no such link"
            )
    coords[rows, dim] = (coords[rows, dim] + 1) % sizes[dim]
    neighbour = (coords[:, 0] * t.dims[1] + coords[:, 1]) * t.dims[2] + coords[:, 2]
    return owner, neighbour


def _fattree_endpoints(
    t: FatTree, link_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Vertices: nodes [0, N), leaves, then mid switches (pod, lane1), then
    # top switches (lane1, lane2).
    n = t.num_nodes
    leaf_v = n
    mid_v = leaf_v + t.num_leaves
    top_v = mid_v + t.num_pods * t.k

    u = np.empty(len(link_ids), dtype=np.int64)
    v = np.empty(len(link_ids), dtype=np.int64)

    node_l = link_ids < t._l1_base
    if node_l.any():
        nodes = link_ids[node_l]
        u[node_l] = nodes
        v[node_l] = leaf_v + t.leaf_of(nodes)

    l1 = (link_ids >= t._l1_base) & (link_ids < t._l2_base)
    if l1.any():
        leaf, lane1 = np.divmod(link_ids[l1] - t._l1_base, t.k)
        pod = leaf // t.k if t.stages >= 3 else np.zeros_like(leaf)
        u[l1] = leaf_v + leaf
        v[l1] = mid_v + pod * t.k + lane1

    l2 = link_ids >= t._l2_base
    if l2.any():
        pod_lane1, lane2 = np.divmod(link_ids[l2] - t._l2_base, t.k)
        pod, lane1 = np.divmod(pod_lane1, t.k)
        u[l2] = mid_v + pod * t.k + lane1
        v[l2] = top_v + lane1 * t.k + lane2
    return u, v


def _dragonfly_endpoints(
    t: Dragonfly, link_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Vertices: nodes [0, N), then routers numbered group * a + router.
    n = t.num_nodes
    router_v = n

    u = np.empty(len(link_ids), dtype=np.int64)
    v = np.empty(len(link_ids), dtype=np.int64)

    node_l = link_ids < t._local_base
    if node_l.any():
        nodes = link_ids[node_l]
        u[node_l] = nodes
        v[node_l] = router_v + t.group_of(nodes) * t.a + t.router_of(nodes)

    local = (link_ids >= t._local_base) & (link_ids < t._global_base)
    if local.any():
        group, tri = np.divmod(link_ids[local] - t._local_base, t._links_per_group)
        lo, hi = _triangular_pairs(t.a)
        u[local] = router_v + group * t.a + lo[tri]
        v[local] = router_v + group * t.a + hi[tri]

    glob = link_ids >= t._global_base
    if glob.any():
        tri = link_ids[glob] - t._global_base
        lo, hi = _triangular_pairs(t.num_groups)
        g1, g2 = lo[tri], hi[tri]
        r1, r2 = t.gateway_routers(g1, g2)
        u[glob] = router_v + g1 * t.a + r1
        v[glob] = router_v + g2 * t.a + r2
    return u, v


def _component_count(edges_u: np.ndarray, edges_v: np.ndarray) -> int:
    """Connected components among the vertices touched by the edges."""
    verts = np.unique(np.concatenate([edges_u, edges_v]))
    index = {int(x): i for i, x in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(edges_u, edges_v):
        ra, rb = find(index[int(a)]), find(index[int(b)])
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(len(verts))})


def walks_are_valid(
    topology: Topology,
    src: np.ndarray,
    dst: np.ndarray,
    inc: RouteIncidence,
) -> np.ndarray:
    """Per-pair boolean: do the pair's incidence rows form one walk src→dst?

    Zero rows are valid exactly when ``src == dst`` (the 0-hop convention).
    Uses the Eulerian-walk characterization described in the module
    docstring; pairs are checked independently.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    u, v = link_endpoints(topology, inc.link_id)

    order = np.argsort(inc.pair_index, kind="stable")
    pairs_sorted = inc.pair_index[order]
    u_sorted, v_sorted = u[order], v[order]
    bounds = np.searchsorted(pairs_sorted, np.arange(len(src) + 1))

    ok = np.empty(len(src), dtype=bool)
    for p in range(len(src)):
        a, b = bounds[p], bounds[p + 1]
        eu, ev = u_sorted[a:b], v_sorted[a:b]
        if a == b:
            ok[p] = src[p] == dst[p]
            continue
        degrees: dict[int, int] = {}
        for x in np.concatenate([eu, ev]):
            degrees[int(x)] = degrees.get(int(x), 0) + 1
        odd = {x for x, d in degrees.items() if d % 2}
        if src[p] == dst[p]:
            parity_ok = not odd
        else:
            parity_ok = odd == {int(src[p]), int(dst[p])}
        endpoints_touched = int(src[p]) in degrees and int(dst[p]) in degrees
        ok[p] = (
            parity_ok and endpoints_touched and _component_count(eu, ev) == 1
        )
    return ok
