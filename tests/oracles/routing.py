"""Torus/mesh route oracle: the dimension-order walk on ``(k, 3)`` coordinates.

This is :meth:`repro.topology.torus.Torus3D.route_incidence_ordered` as it
was written before the 1-D column walk: the per-dimension signed deltas as
one ``(k, 3)`` array, and the walk copying the coordinates of the pairs
still moving at every step, one chunk of rows per step, concatenated at
the end.  Deltas are the shorter ring direction (ties forward) on a
torus and the direct difference on a mesh, computed here, not through the
topology's own hook.  Link sets use ``np.unique``.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import RouteIncidence
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
