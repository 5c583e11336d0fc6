"""Torus/mesh route oracle: the dimension-order walk on ``(k, 3)`` coordinates.

This is :meth:`repro.topology.torus.Torus3D.route_incidence_ordered` as it
was written before the 1-D column walk: the per-dimension signed deltas as
one ``(k, 3)`` array, and the walk copying the coordinates of the pairs
still moving at every step, one chunk of rows per step, concatenated at
the end.  Deltas are the shorter ring direction (ties forward) on a
torus and the direct difference on a mesh, computed here, not through the
topology's own hook.  Link sets use ``np.unique``.

:func:`valiant_hops` is the hops-only Valiant oracle for the dragonfly:
hop counts from the Valiant leg structure alone, which
``get_policy("valiant", seed).hops_array`` reproduces seed for seed.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import RouteIncidence
from repro.topology.dragonfly import Dragonfly
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D


def _deltas(topology: Torus3D, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    cs = topology.coordinates(src)
    cd = topology.coordinates(dst)
    if isinstance(topology, Mesh3D):
        return cd - cs
    sizes = np.array(topology.dims, dtype=np.int64)
    forward = (cd - cs) % sizes
    backward = forward - sizes
    return np.where(forward <= -backward, forward, backward)


def route_incidence_ordered_reference(
    topology: Torus3D,
    src: np.ndarray,
    dst: np.ndarray,
    order: tuple[int, int, int] = (0, 1, 2),
) -> RouteIncidence:
    """Rows by dimension in ``order``, then step, then ascending pair."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    deltas = _deltas(topology, src, dst)
    coords = topology.coordinates(src)
    sizes = np.array(topology.dims, dtype=np.int64)
    _, Y, Z = topology.dims

    pair_chunks: list[np.ndarray] = []
    link_chunks: list[np.ndarray] = []
    pair_ids = np.arange(len(src), dtype=np.int64)
    for dim in order:
        d = deltas[:, dim]
        steps = np.abs(d)
        direction = np.sign(d)
        max_steps = int(steps.max()) if len(steps) else 0
        for step in range(max_steps):
            active = steps > step
            cur = coords[active].copy()
            dirs = direction[active]
            # The link between c and c+1 (mod size) is owned by c.
            owner = cur.copy()
            backward = dirs < 0
            owner[backward, dim] = (owner[backward, dim] - 1) % sizes[dim]
            owner_nodes = (owner[:, 0] * Y + owner[:, 1]) * Z + owner[:, 2]
            pair_chunks.append(pair_ids[active])
            link_chunks.append(owner_nodes * 3 + dim)
            coords[active, dim] = (coords[active, dim] + dirs) % sizes[dim]

    if pair_chunks:
        return RouteIncidence(np.concatenate(pair_chunks), np.concatenate(link_chunks))
    empty = np.zeros(0, dtype=np.int64)
    return RouteIncidence(empty, empty.copy())


def used_links_reference(inc: RouteIncidence) -> np.ndarray:
    return np.unique(inc.link_id)


def link_loads_reference(
    inc: RouteIncidence, pair_weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    ids, inverse = np.unique(inc.link_id, return_inverse=True)
    weights = np.asarray(pair_weights, dtype=np.float64)[inc.pair_index]
    return ids, np.bincount(inverse, weights=weights, minlength=len(ids))


def valiant_hops(
    topology: Dragonfly,
    src: np.ndarray,
    dst: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Hop counts under Valiant (randomized non-minimal) routing.

    Cross-group packets first route minimally to a router in a uniformly
    random *intermediate* group, then minimally to the destination.
    Intra-group traffic stays minimal.  The intermediate leg ends at the
    router where the packet *arrives* in the intermediate group, so the
    path is src-node -> ... -> global -> (local) -> global -> ... -> dst-node.
    Intermediate groups come from
    :meth:`~repro.topology.dragonfly.Dragonfly.valiant_intermediate_groups`,
    the sampler the link-level policy draws from, so both agree for one
    rng state.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    hops = topology.hops_array(src, dst)  # minimal baseline; checks node ids
    gs = topology.group_of(src)
    gd = topology.group_of(dst)
    cross = (src != dst) & (gs != gd)
    if not cross.any():
        return hops

    gi = topology.valiant_intermediate_groups(gs[cross], gd[cross], rng)
    rs = topology.router_of(src)[cross]
    rd = topology.router_of(dst)[cross]
    # leg 1: source router -> gateway to the intermediate group -> arrive at
    # the router holding the back-port in the intermediate group
    gw1_src, gw1_mid = topology.gateway_routers(gs[cross], gi)
    leg1 = 1 + (rs != gw1_src).astype(np.int64) + 1  # node + detour + global
    # leg 2: from the arrival router, reach the gateway to the destination
    # group, cross, detour to the destination router, eject
    gw2_mid, gw2_dst = topology.gateway_routers(gi, gd[cross])
    leg2 = (
        (gw1_mid != gw2_mid).astype(np.int64)  # local move inside intermediate
        + 1  # second global link
        + (rd != gw2_dst).astype(np.int64)
        + 1  # ejection
    )
    out = hops.copy()
    out[cross] = leg1 + leg2
    return out
