"""Recursive spectral bisection as one whole-graph pass per topology.

The reference for :func:`repro.mapping.optimized.bisection_slots` placed
through :func:`repro.mapping.optimized.place_slots`: every split re-filters
the global symmetric COO through a ``num_ranks`` index array, and the
machine sequence is threaded through the recursion, so nothing is shared
between topologies.  :func:`place_ordering` is the matching reference for
the ordering-based methods (greedy, spectral).

:func:`greedy_ordering_reference` and :func:`refine_mapping_reference` are
the heap and dict-of-lists forms of the vectorized greedy and refine
kernels, on the adjacency :func:`symmetric_weights` builds.
"""

from __future__ import annotations

import heapq

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


def symmetric_weights(matrix: CommMatrix) -> dict[int, list[tuple[int, int]]]:
    """Adjacency (neighbour, bytes) lists of the symmetrized traffic graph.

    Dict-of-sorted-lists form of
    :func:`repro.mapping.optimized._symmetric_csr`; used by the
    ``*_reference`` kernels below.
    """
    adj: dict[int, dict[int, int]] = {}
    for s, d, b in zip(matrix.src, matrix.dst, matrix.nbytes):
        s, d, b = int(s), int(d), int(b)
        if s == d or b == 0:
            continue
        adj.setdefault(s, {}).setdefault(d, 0)
        adj.setdefault(d, {}).setdefault(s, 0)
        adj[s][d] += b
        adj[d][s] += b
    return {u: sorted(nbrs.items()) for u, nbrs in adj.items()}


def greedy_ordering_reference(matrix: CommMatrix) -> np.ndarray:
    """Lazy-deletion max-heap form of ``greedy_ordering`` (O(E log E))."""
    n = matrix.num_ranks
    adj = symmetric_weights(matrix)
    totals = np.zeros(n, dtype=np.int64)
    for u, nbrs in adj.items():
        totals[u] = sum(w for _, w in nbrs)

    placed = np.zeros(n, dtype=bool)
    order: list[int] = []
    attraction = np.zeros(n, dtype=np.int64)
    heap: list[tuple[int, int]] = []  # (-attraction snapshot, rank)

    def place(rank: int) -> None:
        placed[rank] = True
        order.append(rank)
        for nbr, w in adj.get(rank, ()):  # grow the frontier
            if not placed[nbr]:
                attraction[nbr] += w
                heapq.heappush(heap, (-int(attraction[nbr]), nbr))

    remaining = list(np.argsort(-totals, kind="stable"))
    for seed in remaining:
        seed = int(seed)
        if placed[seed]:
            continue
        place(seed)
        while heap:
            neg_snap, cand = heapq.heappop(heap)
            if placed[cand] or -neg_snap != attraction[cand]:
                continue  # stale entry; a fresher one exists (lazy deletion)
            place(cand)
    return np.array(order, dtype=np.int64)


def refine_mapping_reference(
    matrix: CommMatrix,
    topology: Topology,
    mapping: Mapping,
    max_passes: int = 2,
    seed: int = 0,
) -> Mapping:
    """Dict-adjacency form of ``refine_mapping``: same rng draws, same swaps."""
    n = matrix.num_ranks
    nodes = mapping.nodes.copy()
    rng = np.random.default_rng(seed)
    adj = symmetric_weights(matrix)

    def rank_cost(rank: int, node_of: np.ndarray) -> float:
        nbrs = adj.get(rank)
        if not nbrs:
            return 0.0
        others = np.array([x for x, _ in nbrs], dtype=np.int64)
        weights = np.array([w for _, w in nbrs], dtype=np.float64)
        hops = topology.hops_array(
            np.full(len(others), node_of[rank], dtype=np.int64), node_of[others]
        )
        return float((hops * weights).sum())

    for _ in range(max_passes):
        improved = False
        candidates = rng.permutation(n)
        for r1 in candidates:
            r1 = int(r1)
            r2 = int(rng.integers(n))
            if r1 == r2 or nodes[r1] == nodes[r2]:
                continue
            before = rank_cost(r1, nodes) + rank_cost(r2, nodes)
            nodes[r1], nodes[r2] = nodes[r2], nodes[r1]
            after = rank_cost(r1, nodes) + rank_cost(r2, nodes)
            if after < before:
                improved = True
            else:
                nodes[r1], nodes[r2] = nodes[r2], nodes[r1]
        if not improved:
            break
    return Mapping(nodes, mapping.num_nodes)
