"""Locality-aware mapping optimization.

The paper's discussion (§7) argues that the low selectivity of most
workloads means "a significant traffic reduction is possible only by using
an optimized mapping" that places heavily-communicating rank groups on
nearby physical entities.  This module implements that suggested
optimization so its benefit can be quantified (see the mapping ablation
benchmark):

- :func:`greedy_ordering` — heavy-edge traversal: repeatedly append the
  unplaced rank most strongly connected to the already-placed prefix.
- :func:`spectral_ordering` — Fiedler-vector ordering of the symmetrized
  traffic graph (a classic 1D locality embedding).
- :func:`bisection_slots` — recursive spectral bisection of the traffic
  graph onto contiguous halves of the slot range (the strongest).
- :func:`refine_mapping` — pairwise-swap hill climbing on the byte-weighted
  hop objective.
- :func:`optimize_mapping` — the composed entry point.

The kernels run on a CSR adjacency of the symmetrized traffic graph built
with array operations.  The original dict-of-lists/heap implementations
define the semantics; they live in ``tests/oracles/mapping.py``, and the
equivalence suite pins the kernels to them output for output (identical
orderings, identical swap decisions).

Every optimized mapping is a topology-independent **node-slot assignment**
(:func:`optimized_slots`: one slot per rank, ``ranks_per_node`` ranks per
slot) followed by one placement, :func:`place_slots`, which maps slot ``s``
to ``sequence[s]``: on fat trees and dragonflies consecutive node numbering
is already locality-friendly (leaves/groups are contiguous), while on a 3D
torus the sequence is a boustrophedon (snake) traversal so that adjacent
slots land on physically adjacent nodes in *every* dimension.  The slot
assignment is the expensive part, so one is computed per matrix and shared
by every topology (see :func:`repro.cache.cached_mapping`).
"""

from __future__ import annotations

import numpy as np

from ..comm.matrix import CommMatrix
from ..topology.base import Topology
from ..topology.torus import Torus3D
from .base import Mapping

__all__ = [
    "greedy_ordering",
    "spectral_ordering",
    "weighted_hop_cost",
    "refine_mapping",
    "optimize_mapping",
    "optimized_slots",
    "bisection_slots",
    "place_slots",
]


def _symmetric_coo(matrix: CommMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregated symmetric COO ``(u, v, bytes)`` of the traffic graph.

    Self-pairs and zero-byte pairs are dropped; both directions of every
    remaining pair are present, weights summed over duplicates, entries
    sorted by ``(u, v)``.
    """
    n = matrix.num_ranks
    mask = (matrix.src != matrix.dst) & (matrix.nbytes > 0)
    # Widened first: the keys below overflow a narrow rank dtype.
    s = matrix.src[mask].astype(np.int64)
    d = matrix.dst[mask].astype(np.int64)
    b = matrix.nbytes[mask]
    uu = np.concatenate([s, d])
    vv = np.concatenate([d, s])
    ww = np.concatenate([b, b])
    key = uu * n + vv
    unique_keys, inverse = np.unique(key, return_inverse=True)
    w = np.zeros(len(unique_keys), dtype=np.int64)
    np.add.at(w, inverse, ww)
    return unique_keys // n, unique_keys % n, w


def _symmetric_csr(
    matrix: CommMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, indices, weights)`` of the symmetrized graph.

    Row ``u``'s neighbours are ``indices[indptr[u]:indptr[u+1]]``, ascending,
    with summed byte weights — the array form of the oracle's
    dict-of-sorted-lists adjacency.
    """
    n = matrix.num_ranks
    uu, vv, ww = _symmetric_coo(matrix)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(uu, minlength=n))
    return indptr, vv, ww


def greedy_ordering(matrix: CommMatrix) -> np.ndarray:
    """Heavy-edge greedy rank ordering.

    Starts from the rank with the highest total traffic; repeatedly appends
    the unplaced rank with the largest byte volume to the placed set
    (ties broken toward the smallest rank ID).  Disconnected ranks are
    appended in ID order.  Vectorized frontier selection: attraction only
    ever grows, so an argmax over the unplaced frontier reproduces the
    reference max-heap pop exactly.
    """
    n = matrix.num_ranks
    indptr, indices, weights = _symmetric_csr(matrix)
    totals = np.zeros(n, dtype=np.int64)
    nonempty = np.diff(indptr) > 0
    if weights.size:
        totals[nonempty] = np.add.reduceat(weights, indptr[:-1][nonempty])

    placed = np.zeros(n, dtype=bool)
    # attraction[r]: bytes from r to the placed set (grown incrementally)
    attraction = np.zeros(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    seeds = np.argsort(-totals, kind="stable")
    seed_pos = 0

    for pos in range(n):
        # frontier: unplaced ranks attracted to the placed prefix; argmax
        # returns the first (= smallest-ID) maximum, matching the heap's
        # (-attraction, rank) tie-break
        masked = np.where(placed, np.int64(-1), attraction)
        cand = int(masked.argmax())
        if masked[cand] <= 0:
            while placed[seeds[seed_pos]]:
                seed_pos += 1
            cand = int(seeds[seed_pos])
        placed[cand] = True
        order[pos] = cand
        lo, hi = indptr[cand], indptr[cand + 1]
        # growing attraction of already-placed neighbours is harmless: they
        # are masked out of every future argmax
        np.add.at(attraction, indices[lo:hi], weights[lo:hi])
    return order


def spectral_ordering(matrix: CommMatrix) -> np.ndarray:
    """Order ranks by the Fiedler vector of the traffic Laplacian.

    The second-smallest Laplacian eigenvector is the classic relaxation of
    the minimum-linear-arrangement problem: sorting ranks by it places
    heavily-communicating ranks at nearby positions.  Uses SciPy's sparse
    eigensolver (from a fixed start vector, so repeat calls agree) when
    available, dense NumPy otherwise.
    """
    n = matrix.num_ranks
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    mask = matrix.src != matrix.dst
    src = matrix.src[mask].astype(np.int64)
    dst = matrix.dst[mask].astype(np.int64)
    w = matrix.nbytes[mask].astype(np.float64)
    if len(src) == 0:
        return np.arange(n, dtype=np.int64)
    # Scale weights to avoid overflow in the Laplacian.
    w = w / w.max()

    try:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        W = sp.coo_matrix((w, (src, dst)), shape=(n, n))
        W = (W + W.T).tocsr()
        degrees = np.asarray(W.sum(axis=1)).ravel()
        L = sp.diags(degrees) - W
        # Smallest two eigenpairs; sigma shift for robustness near zero.
        # ARPACK otherwise starts from a random vector, and on a degenerate
        # Fiedler eigenspace each start picks a different basis vector; a
        # fixed start makes the ordering repeatable.  Not ``ones``: that is
        # the Laplacian's null-space eigenvector.
        v0 = np.random.default_rng(0).random(n)
        _, vecs = spla.eigsh(
            L.asfptype(), k=2, sigma=-1e-3, which="LM", v0=v0
        )
        fiedler = vecs[:, 1]
    except Exception:  # pragma: no cover - fallback path
        W = np.zeros((n, n), dtype=np.float64)
        np.add.at(W, (src, dst), w)
        W = W + W.T
        L = np.diag(W.sum(axis=1)) - W
        _, vecs = np.linalg.eigh(L)
        fiedler = vecs[:, 1]
    return np.argsort(fiedler, kind="stable").astype(np.int64)


def weighted_hop_cost(
    matrix: CommMatrix, topology: Topology, mapping: Mapping
) -> float:
    """Total byte-weighted hop count: the objective optimized mappings minimize."""
    src_nodes = mapping.node_of(matrix.src)
    dst_nodes = mapping.node_of(matrix.dst)
    hops = topology.hops_array(src_nodes, dst_nodes)
    return float((hops * matrix.nbytes).sum())


def refine_mapping(
    matrix: CommMatrix,
    topology: Topology,
    mapping: Mapping,
    max_passes: int = 2,
    seed: int = 0,
) -> Mapping:
    """Pairwise-swap hill climbing on :func:`weighted_hop_cost`.

    Visits rank pairs in random order and commits a node swap whenever it
    lowers the cost contributed by the two swapped ranks.  Intended as a
    cheap polish after an ordering-based placement; each pass is
    O(num_ranks * sample * partners).  The per-rank cost reads CSR slices
    directly (same neighbour order, hence the same float sums and the same
    swap decisions as the reference).
    """
    n = matrix.num_ranks
    nodes = mapping.nodes.copy()
    rng = np.random.default_rng(seed)

    indptr, indices, weights = _symmetric_csr(matrix)
    weights_f = weights.astype(np.float64)

    def rank_cost(rank: int, node_of: np.ndarray) -> float:
        lo, hi = indptr[rank], indptr[rank + 1]
        if lo == hi:
            return 0.0
        others = indices[lo:hi]
        hops = topology.hops_array(
            np.full(hi - lo, node_of[rank], dtype=np.int64), node_of[others]
        )
        return float((hops * weights_f[lo:hi]).sum())

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


def _positions(order: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``_positions(order)[order[i]] == i``."""
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order), dtype=np.int64)
    return position


def bisection_slots(matrix: CommMatrix, ranks_per_node: int = 1) -> np.ndarray:
    """Recursive spectral bisection: the node slot of every rank.

    Both sides are halved recursively: the rank graph by a cut-minimizing
    Fiedler split of the induced subgraph, the slot range by contiguous
    halves.  :func:`place_slots` turns contiguous slot ranges into compact
    machine regions, so unlike a single 1D ordering the recursion preserves
    *multidimensional* structure: each communicating cluster lands in a
    compact region.

    Each frame carries its own subgraph's edges in frame-local indices and
    partitions them between its two children after the split, so no split
    rescans the whole graph.  A part of at most two ranks, or with no
    internal edges, keeps its given order all the way down, so its ranks
    fill its slots in order in one step.
    """
    n = matrix.num_ranks
    uu, vv, ww = _symmetric_coo(matrix)
    slots = np.empty(n, dtype=np.int64)
    stack = [(np.arange(n, dtype=np.int64), 0, -(-n // ranks_per_node), uu, vv, ww)]
    while stack:
        ranks, slot_lo, slot_hi, u, v, w = stack.pop()
        k = len(ranks)
        width = slot_hi - slot_lo
        # left halves always get full slots, so a part that keeps its order
        # puts its i-th rank in slot slot_lo + i // ranks_per_node, and a
        # one-slot part has k <= ranks_per_node
        if k <= max(2, ranks_per_node) or not len(w):
            slots[ranks] = slot_lo + np.arange(k, dtype=np.int64) // ranks_per_node
            continue
        left_slots = width // 2
        left_size = min(k, left_slots * ranks_per_node)
        W = np.zeros((k, k), dtype=np.float64)
        # symmetric COO entries are unique per (u, v), so assignment == accumulate
        W[u, v] = w
        W /= W.max()
        L = np.diag(W.sum(axis=1)) - W
        # deterministic dense solve; parts shrink geometrically so this is the
        # dominant cost only at the first level
        _, vecs = np.linalg.eigh(L)
        order = np.argsort(vecs[:, 1], kind="stable")
        position = _positions(order)
        pu, pv = position[u], position[v]
        left = (pu < left_size) & (pv < left_size)
        right = (pu >= left_size) & (pv >= left_size)
        ordered = ranks[order]
        stack.append(
            (ordered[:left_size], slot_lo, slot_lo + left_slots,
             pu[left], pv[left], w[left])
        )
        stack.append(
            (ordered[left_size:], slot_lo + left_slots, slot_hi,
             pu[right] - left_size, pv[right] - left_size, w[right])
        )
    return slots


def optimized_slots(
    matrix: CommMatrix, method: str, ranks_per_node: int = 1
) -> np.ndarray:
    """The topology-independent node slot of every rank under ``method``.

    ``"greedy"`` and ``"spectral"`` fill slots in ordering position;
    ``"bisection"`` assigns them by :func:`bisection_slots`.  No producer
    reads a seed, so one assignment serves every topology and seed.
    """
    if method == "greedy":
        return _positions(greedy_ordering(matrix)) // ranks_per_node
    if method == "spectral":
        return _positions(spectral_ordering(matrix)) // ranks_per_node
    if method == "bisection":
        return bisection_slots(matrix, ranks_per_node)
    raise ValueError(f"unknown mapping method {method!r}")


def place_slots(slots: np.ndarray, topology: Topology) -> Mapping:
    """Place node slots onto physical nodes, locality-preserving.

    On a :class:`Torus3D` slots follow the snake traversal (consecutive
    slots physically adjacent, contiguous slot ranges geometrically
    compact); on other topologies they follow node numbering, which is
    already contiguous per leaf switch / dragonfly group.
    """
    if isinstance(topology, Torus3D):
        sequence = topology.snake_order()
    else:
        sequence = np.arange(topology.num_nodes, dtype=np.int64)
    if int(slots.max()) >= len(sequence):
        raise ValueError(
            f"{len(slots)} ranks on {int(slots.max()) + 1} node slots exceed "
            f"{topology.num_nodes} nodes"
        )
    return Mapping(sequence[slots], topology.num_nodes)


def optimize_mapping(
    matrix: CommMatrix,
    topology: Topology,
    method: str = "greedy",
    ranks_per_node: int = 1,
    refine: bool = False,
    seed: int = 0,
    fallback: bool = False,
) -> Mapping:
    """Build a locality-optimized mapping.

    The rank→slot assignment (:func:`optimized_slots`) does not depend on
    the topology; :func:`place_slots` places it, then ``refine`` and
    ``fallback`` work on the placed mapping.

    Parameters
    ----------
    method:
        ``"greedy"`` (heavy-edge ordering), ``"spectral"`` (Fiedler
        ordering), ``"bisection"`` (recursive spectral bisection — the
        strongest), or ``"consecutive"`` (the paper's baseline).
    refine:
        Apply :func:`refine_mapping` hill climbing afterwards.
    fallback:
        Compare against the consecutive baseline on the byte-weighted hop
        objective and keep the cheaper of the two.  Applications whose rank
        numbering already matches the topology (aligned stencils, Morton
        curves) are best left alone — graph optimizers can only disturb
        them, and this guard makes the optimizer safe to apply blindly.
    """
    n = matrix.num_ranks
    if method == "consecutive":
        mapping = Mapping.consecutive(n, topology.num_nodes, ranks_per_node)
    else:
        slots = optimized_slots(matrix, method, ranks_per_node)
        mapping = place_slots(slots, topology)
    if refine:
        mapping = refine_mapping(matrix, topology, mapping, seed=seed)
    if fallback and method != "consecutive":
        baseline = Mapping.consecutive(n, topology.num_nodes, ranks_per_node)
        if weighted_hop_cost(matrix, topology, baseline) <= weighted_hop_cost(
            matrix, topology, mapping
        ):
            return baseline
    return mapping
