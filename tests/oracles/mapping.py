"""Recursive spectral bisection as one whole-graph pass per topology.

The reference for :func:`repro.mapping.optimized.bisection_slots` placed
through :func:`repro.mapping.optimized.place_slots`: every split re-filters
the global symmetric COO through a ``num_ranks`` index array, and the
machine sequence is threaded through the recursion, so nothing is shared
between topologies.  :func:`place_ordering` is the matching reference for
the ordering-based methods (greedy, spectral).
"""

from __future__ import annotations

import numpy as np

from repro.comm.matrix import CommMatrix
from repro.mapping.base import Mapping
from repro.mapping.optimized import _symmetric_coo
from repro.topology.base import Topology
from repro.topology.torus import Torus3D


def place_ordering(
    order: np.ndarray,
    topology: Topology,
    ranks_per_node: int = 1,
) -> Mapping:
    """Place a rank ordering onto physical nodes, locality-preserving.

    ``order[i]`` is the rank at slot ``i``; slots fill nodes
    ``ranks_per_node`` at a time.  On a :class:`Torus3D` slots follow the
    snake traversal (consecutive slots physically adjacent); on other
    topologies they follow node numbering, which is already contiguous per
    leaf switch / dragonfly group.
    """
    order = np.asarray(order, dtype=np.int64)
    n = len(order)
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("ordering must be a bijection on rank IDs")
    slots = np.empty(n, dtype=np.int64)
    slots[order] = np.arange(n, dtype=np.int64)
    node_index = slots // ranks_per_node
    if isinstance(topology, Torus3D):
        sequence = topology.snake_order()
    else:
        sequence = np.arange(topology.num_nodes, dtype=np.int64)
    if int(node_index.max()) >= len(sequence):
        raise ValueError(
            f"{n} ranks at {ranks_per_node}/node exceed "
            f"{topology.num_nodes} nodes"
        )
    return Mapping(sequence[node_index], topology.num_nodes)


def _fiedler_split(
    ranks: np.ndarray,
    coo: tuple[np.ndarray, np.ndarray, np.ndarray],
    num_ranks: int,
    left_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``ranks`` into (left, right) with ``left_size`` on the left,
    minimizing the byte-weighted cut via a Fiedler-vector ordering of the
    induced subgraph.  Falls back to the given order for tiny or
    disconnected parts."""
    n = len(ranks)
    uu, vv, ww = coo
    index = np.full(num_ranks, -1, dtype=np.int64)
    index[ranks] = np.arange(n, dtype=np.int64)
    sel = (index[uu] >= 0) & (index[vv] >= 0)
    W = np.zeros((n, n), dtype=np.float64)
    # symmetric COO entries are unique per (u, v), so assignment == accumulate
    W[index[uu[sel]], index[vv[sel]]] = ww[sel]
    total = W.sum()
    if total == 0 or n <= 2:
        return ranks[:left_size], ranks[left_size:]
    W /= W.max()
    L = np.diag(W.sum(axis=1)) - W
    # deterministic dense solve; parts shrink geometrically so this is the
    # dominant cost only at the first level
    _, vecs = np.linalg.eigh(L)
    fiedler = vecs[:, 1]
    order = np.argsort(fiedler, kind="stable")
    ordered = ranks[order]
    return ordered[:left_size], ordered[left_size:]


def bisection_mapping(
    matrix: CommMatrix,
    topology: Topology,
    ranks_per_node: int = 1,
    seed: int = 0,
) -> Mapping:
    """Recursive spectral-bisection co-mapping (the classic 'smart mapping').

    Both sides are halved recursively: the rank graph by a cut-minimizing
    Fiedler split, the machine by contiguous halves of its hierarchical
    placement sequence (snake curve on tori — geometric halves; numeric
    order on fat trees/dragonflies — pod/leaf/group halves).  Unlike a
    single 1D ordering, the recursion preserves *multidimensional*
    structure: each communicating cluster lands in a compact machine region.
    """
    n = matrix.num_ranks
    coo = _symmetric_coo(matrix)
    rng = np.random.default_rng(seed)
    if isinstance(topology, Torus3D):
        sequence = topology.snake_order()
    else:
        sequence = np.arange(topology.num_nodes, dtype=np.int64)
    num_slots = -(-n // ranks_per_node)
    if num_slots > len(sequence):
        raise ValueError(
            f"{n} ranks at {ranks_per_node}/node exceed {topology.num_nodes} nodes"
        )

    nodes = np.empty(n, dtype=np.int64)
    stack: list[tuple[np.ndarray, int, int]] = [
        (np.arange(n, dtype=np.int64), 0, num_slots)
    ]
    while stack:
        ranks, slot_lo, slot_hi = stack.pop()
        width = slot_hi - slot_lo
        if width == 1 or len(ranks) <= ranks_per_node:
            nodes[ranks] = sequence[slot_lo]
            continue
        left_slots = width // 2
        left_size = min(len(ranks), left_slots * ranks_per_node)
        left, right = _fiedler_split(ranks, coo, n, left_size, rng)
        stack.append((left, slot_lo, slot_lo + left_slots))
        if len(right):
            stack.append((right, slot_lo + left_slots, slot_hi))
    return Mapping(nodes, topology.num_nodes)
