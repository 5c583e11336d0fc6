"""Reusable communication-pattern builders for the synthetic mini-apps.

Each builder returns a :class:`~repro.apps.base.Channels` set — weighted
point-to-point rank pairs — for one structural ingredient of an
application's pattern: halo stencils on Cartesian decompositions, strided
multigrid coarse levels, KBA-style 2D sweeps, hypercube exchanges
(crystal-router), scattered AMR-style neighbourhoods, and low-volume
metadata fan-outs.  Apps compose these with relative weights.

All grids are row-major (last dimension fastest), matching both MPI's
Cartesian convention and :func:`repro.metrics.grid_shape`, so an app built
on ``grid_shape(n, 3)`` scores 100% 3D rank locality by construction —
exactly the behaviour the paper reports for the 3D-structured apps.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..metrics.dimensionality import grid_shape, rank_coordinates
from .base import Channels

__all__ = [
    "halo_channels",
    "coarsened_halo_channels",
    "strided_face_channels",
    "sweep2d_channels",
    "hypercube_channels",
    "scattered_channels",
    "biased_scattered_channels",
    "fanout_channels",
    "ring_channels",
    "morton_permutation",
    "permute_channels",
    "scaled_channels",
    "background_channels",
]


def _ranks_of_coords(coords: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Row-major rank of each coordinate row."""
    ranks = np.zeros(len(coords), dtype=np.int64)
    for axis, extent in enumerate(shape):
        ranks = ranks * extent + coords[:, axis]
    return ranks


def _offset_channels(
    shape: tuple[int, ...],
    offsets: list[tuple[int, ...]],
    weights: list[float],
    periodic: bool = False,
) -> Channels:
    """Channels from every rank to each in-bounds offset neighbour."""
    n = int(np.prod(shape))
    all_ranks = np.arange(n, dtype=np.int64)
    coords = rank_coordinates(all_ranks, shape)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    wts: list[np.ndarray] = []
    extents = np.array(shape, dtype=np.int64)
    for off, w in zip(offsets, weights):
        if w <= 0:
            continue
        shifted = coords + np.array(off, dtype=np.int64)
        if periodic:
            shifted = shifted % extents
            valid = np.ones(n, dtype=bool)
        else:
            valid = np.all((shifted >= 0) & (shifted < extents), axis=1)
        if not valid.any():
            continue
        srcs.append(all_ranks[valid])
        dsts.append(_ranks_of_coords(shifted[valid], shape))
        wts.append(np.full(int(valid.sum()), w, dtype=np.float64))
    if not srcs:
        empty = np.zeros(0)
        return Channels(empty, empty.copy(), empty.copy())
    return Channels(np.concatenate(srcs), np.concatenate(dsts), np.concatenate(wts))


def halo_channels(
    shape: tuple[int, ...],
    face_weight: float = 1.0,
    edge_weight: float = 0.0,
    corner_weight: float = 0.0,
    periodic: bool = False,
    corner_keep: float = 1.0,
    edge_keep: float = 1.0,
    rng: np.random.Generator | None = None,
) -> Channels:
    """Nearest-neighbour halo exchange on a Cartesian decomposition.

    Offsets are classified by how many coordinates differ: 1 — faces,
    2 — edges, 3+ — corners; each class gets its own per-message weight
    (in a real stencil halo, faces carry O(n^2) data, edges O(n), corners
    O(1)).  ``corner_keep`` / ``edge_keep`` < 1 randomly drop a fraction of
    corner / edge channels — some apps (e.g. MiniFE's ragged row
    partitioning) only touch part of the full stencil.
    """
    d = len(shape)
    offsets: list[tuple[int, ...]] = []
    weights: list[float] = []
    for off in itertools.product((-1, 0, 1), repeat=d):
        nz = sum(1 for o in off if o)
        if nz == 0:
            continue
        w = {1: face_weight, 2: edge_weight}.get(nz, corner_weight)
        if w <= 0:
            continue
        offsets.append(off)
        weights.append(w)
    ch = _offset_channels(shape, offsets, weights, periodic)
    if corner_keep < 1.0 or edge_keep < 1.0:
        if rng is None:
            raise ValueError("corner_keep/edge_keep < 1 requires an rng")
        coords_s = rank_coordinates(ch.src, shape)
        coords_d = rank_coordinates(ch.dst, shape)
        nz = (coords_s != coords_d).sum(axis=1)
        is_corner = nz >= 3 if d >= 3 else nz >= 2
        is_edge = nz == 2 if d >= 3 else np.zeros(len(ch.src), dtype=bool)
        u = rng.random(len(ch.src))
        drop = (is_corner & (u > corner_keep)) | (is_edge & (u > edge_keep))
        keep = ~drop
        ch = Channels(ch.src[keep], ch.dst[keep], ch.weight[keep])
    return ch


def strided_face_channels(
    shape: tuple[int, ...],
    stride: int,
    weight: float,
    periodic: bool = False,
    axes: tuple[int, ...] | None = None,
) -> Channels:
    """Face-neighbour exchange at a coarse-grid stride (multigrid levels).

    Level ``l`` of a V-cycle exchanges with the rank ``2**l`` positions away
    along each axis; call this once per level with the level's weight.
    ``axes`` restricts the exchange to a subset of dimensions (anisotropic
    coarsening, e.g. semi-coarsening along the slowest axis only).
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    d = len(shape)
    use_axes = tuple(range(d)) if axes is None else axes
    offsets = []
    for axis in use_axes:
        if not 0 <= axis < d:
            raise ValueError(f"axis {axis} out of range for shape {shape}")
        for sign in (-1, 1):
            off = [0] * d
            off[axis] = sign * stride
            offsets.append(tuple(off))
    return _offset_channels(shape, offsets, [weight] * len(offsets), periodic)


def sweep2d_channels(
    num_ranks: int,
    weight: float = 1.0,
    shape: tuple[int, int] | None = None,
) -> Channels:
    """KBA-style 2D transport sweep: exchanges with the 4 grid neighbours.

    Sweeps traverse the 2D processor grid in wavefronts from each corner;
    statically that means every rank exchanges with its x/y neighbours in
    both directions (PARTISN, SNAP).
    """
    if shape is None:
        shape = grid_shape(num_ranks, 2)  # type: ignore[assignment]
    return _offset_channels(
        shape, [(-1, 0), (1, 0), (0, -1), (0, 1)], [weight] * 4, periodic=False
    )


def hypercube_channels(
    num_ranks: int,
    dim_weight_decay: float = 0.8,
) -> Channels:
    """Crystal-router / hypercube exchange: partner ``r XOR 2**k``.

    For non-power-of-two rank counts, out-of-range partners are simply
    skipped (the crystal router folds them); dimension ``k`` carries weight
    ``decay**k``, modelling the typical bias toward low dimensions.
    """
    if num_ranks < 2:
        raise ValueError("hypercube needs >= 2 ranks")
    ranks = np.arange(num_ranks, dtype=np.int64)
    srcs, dsts, wts = [], [], []
    k = 0
    while (1 << k) < num_ranks:
        partner = ranks ^ (1 << k)
        valid = partner < num_ranks
        srcs.append(ranks[valid])
        dsts.append(partner[valid])
        wts.append(np.full(int(valid.sum()), dim_weight_decay**k, dtype=np.float64))
        k += 1
    return Channels(np.concatenate(srcs), np.concatenate(dsts), np.concatenate(wts))


def scattered_channels(
    num_ranks: int,
    partners_per_rank: int,
    rng: np.random.Generator,
    weight_decay: str = "uniform",
    zipf_exponent: float = 1.5,
    total_weight: float = 1.0,
) -> Channels:
    """Unstructured neighbourhoods: each rank picks random distinct partners.

    Models AMR/box-based codes whose neighbours are scattered across the
    rank space (Boxlib CNS, MOCFE, AMR miniapp) — the reason their rank
    locality is poor at every dimensionality.

    ``weight_decay``: ``"uniform"`` gives all partners equal weight;
    ``"zipf"`` weights a rank's k-th partner ``(k+1)**-zipf_exponent``
    (a few dominant partners, a long tail — raises selectivity slowly).
    """
    if partners_per_rank < 1:
        raise ValueError("partners_per_rank must be >= 1")
    if partners_per_rank >= num_ranks:
        partners_per_rank = num_ranks - 1
    srcs = np.repeat(np.arange(num_ranks, dtype=np.int64), partners_per_rank)
    dsts = np.empty(num_ranks * partners_per_rank, dtype=np.int64)
    for r in range(num_ranks):
        # sample without replacement, excluding self
        choices = rng.choice(num_ranks - 1, size=partners_per_rank, replace=False)
        choices = choices + (choices >= r)
        dsts[r * partners_per_rank : (r + 1) * partners_per_rank] = choices
    if weight_decay == "uniform":
        w = np.full(len(srcs), 1.0)
    elif weight_decay == "zipf":
        per_rank = (np.arange(partners_per_rank) + 1.0) ** -zipf_exponent
        w = np.tile(per_rank, num_ranks)
    else:
        raise ValueError(f"unknown weight_decay {weight_decay!r}")
    w *= total_weight / w.sum()
    return Channels(srcs, dsts, w)


def fanout_channels(
    num_ranks: int,
    num_hubs: int,
    total_weight: float,
    rng: np.random.Generator | None = None,
) -> Channels:
    """Metadata fan-out through hub ranks.

    ``num_hubs`` evenly-spaced hub ranks exchange a small message with every
    other rank in both directions — the pattern of regridding/IO metadata
    distribution in Boxlib-style codes.  It is what drives the *peers*
    metric to ``ranks − 1`` while contributing almost no volume.
    """
    if not 1 <= num_hubs <= num_ranks:
        raise ValueError("num_hubs must be in [1, num_ranks]")
    hubs = np.linspace(0, num_ranks - 1, num_hubs, dtype=np.int64)
    hubs = np.unique(hubs)
    others = np.arange(num_ranks, dtype=np.int64)
    srcs, dsts = [], []
    for hub in hubs:
        mask = others != hub
        srcs.append(np.full(int(mask.sum()), hub, dtype=np.int64))
        dsts.append(others[mask])
        # and everyone answers the hub
        srcs.append(others[mask])
        dsts.append(np.full(int(mask.sum()), hub, dtype=np.int64))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    w = np.full(len(src), total_weight / len(src))
    return Channels(src, dst, w)


def ring_channels(num_ranks: int, weight: float = 1.0) -> Channels:
    """Bidirectional open-chain exchange (1D decomposition)."""
    if num_ranks < 2:
        raise ValueError("ring needs >= 2 ranks")
    ranks = np.arange(num_ranks - 1, dtype=np.int64)
    src = np.concatenate([ranks, ranks + 1])
    dst = np.concatenate([ranks + 1, ranks])
    return Channels(src, dst, np.full(len(src), weight))


def coarsened_halo_channels(
    shape: tuple[int, ...],
    stride: int,
    face_weight: float = 1.0,
    edge_weight: float = 0.0,
    corner_weight: float = 0.0,
) -> Channels:
    """Halo exchange among the ranks active on a multigrid coarse level.

    On level ``l`` (``stride = 2**l``) only ranks whose coordinates are all
    multiples of the stride stay active; they halo-exchange with their
    coarse-grid neighbours, i.e. the fine ranks ``stride`` positions away
    per axis.  Returns an empty channel set when the coarse grid degenerates
    to a single rank.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    coarse_shape = tuple(-(-extent // stride) for extent in shape)
    if int(np.prod(coarse_shape)) < 2:
        empty = np.zeros(0)
        return Channels(empty, empty.copy(), empty.copy())
    coarse = halo_channels(coarse_shape, face_weight, edge_weight, corner_weight)
    # map coarse rank -> fine rank at stride * coarse coordinates
    coarse_coords_src = rank_coordinates(coarse.src, coarse_shape) * stride
    coarse_coords_dst = rank_coordinates(coarse.dst, coarse_shape) * stride
    return Channels(
        _ranks_of_coords(coarse_coords_src, shape),
        _ranks_of_coords(coarse_coords_dst, shape),
        coarse.weight,
    )


def morton_permutation(shape: tuple[int, ...]) -> np.ndarray:
    """Space-filling (Z-order) rank renumbering of a Cartesian grid.

    Returns ``perm`` with ``perm[row_major_rank] = morton_position``: the
    rank's position when grid cells are sorted by bit-interleaved (Morton)
    coordinates.  Boxlib-style codes assign boxes to ranks along such curves
    (or by load-balancing knapsack), which is why their 26-neighbour halos
    appear at scattered *linear* rank distances.  Works for arbitrary
    (non-power-of-two) extents via key sorting.
    """
    n = int(np.prod(shape))
    coords = rank_coordinates(np.arange(n, dtype=np.int64), shape)
    bits = max(int(np.ceil(np.log2(max(extent, 2)))) for extent in shape)
    keys = np.zeros(n, dtype=np.int64)
    for bit in range(bits - 1, -1, -1):
        for axis in range(len(shape)):
            keys = (keys << 1) | ((coords[:, axis] >> bit) & 1)
    order = np.argsort(keys, kind="stable")  # order[i] = row-major rank at position i
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)
    return perm


def permute_channels(channels: Channels, permutation: np.ndarray) -> Channels:
    """Renumber channel endpoints through a rank permutation."""
    perm = np.asarray(permutation, dtype=np.int64)
    return Channels(perm[channels.src], perm[channels.dst], channels.weight.copy())


def biased_scattered_channels(
    num_ranks: int,
    partners_per_rank: int,
    rng: np.random.Generator,
    distance: str = "uniform",
    weight_decay: str = "uniform",
    zipf_exponent: float = 1.2,
    total_weight: float = 1.0,
    max_offset: int | None = None,
) -> Channels:
    """Scattered partners with a controllable linear-distance profile.

    ``distance``:

    - ``"uniform"``  — partner offsets uniform in ``[1, num_ranks-1]``
      (byte-weighted 90% rank distance lands near ``0.68 * num_ranks``);
    - ``"loguniform"`` — offsets log-uniform (strong near bias: most
      partners close, a few far — AMR-style refinement neighbourhoods);
    - ``"quadratic"`` — offsets ``~U**2`` (mild near bias).

    Out-of-range destinations are reflected back (``r - d``) so the offset
    magnitude — hence the locality profile — is preserved.  ``max_offset``
    caps the sampled offsets (partner pools clustered in a window around
    each rank, e.g. AMR refinement regions).  ``rng`` must run on a PCG64
    or PCG64DXSM bit generator (``np.random.default_rng`` gives PCG64);
    any other raises ``ValueError``.
    """
    if partners_per_rank < 1:
        raise ValueError("partners_per_rank must be >= 1")
    partners_per_rank = min(partners_per_rank, num_ranks - 1)
    max_off = num_ranks - 1 if max_offset is None else min(max_offset, num_ranks - 1)
    if max_off < 1:
        raise ValueError("max_offset must allow at least distance 1")
    if weight_decay == "uniform":
        partner_w = np.full(partners_per_rank, 1.0)
    elif weight_decay == "zipf":
        partner_w = (np.arange(partners_per_rank) + 1.0) ** -zipf_exponent
    else:
        raise ValueError(f"unknown weight_decay {weight_decay!r}")
    if distance not in ("uniform", "loguniform", "quadratic"):
        raise ValueError(f"unknown distance profile {distance!r}")
    bg = rng.bit_generator
    if not isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM)):
        # The rewind below counts one advance() step per double; other bit
        # generators step differently (Philox advances 4-output blocks).
        raise ValueError(
            f"biased_scattered_channels needs a PCG64 or PCG64DXSM bit "
            f"generator, got {type(bg).__name__}"
        )

    # Vectorized rejection sampling with an rng stream identical to the
    # draw-by-draw loop (tests/oracles/apps.py).  Each loop iteration
    # consumes exactly two `rng.random()` draws (offset, sign), so we
    # bulk-draw candidate chunks, locate the iteration where the partner set
    # fills up, and rewind the bit generator to exactly the draws the loop
    # would have consumed (one PCG64 step per double).  Chunks grow
    # geometrically toward the guard budget; duplicates (common under the
    # near-biased profiles) just trigger another chunk.
    limit = 40 * partners_per_rank
    first_chunk = min(partners_per_rank + (partners_per_rank >> 1) + 32, limit)
    log_max_off = np.log(max_off)
    srcs_parts: list[np.ndarray] = []
    dsts_parts: list[np.ndarray] = []
    wts_parts: list[np.ndarray] = []
    # A shared `seen` bitmap gives the loop-exit distinct count with one
    # scatter-assign per chunk (within-chunk duplicates are harmless); the
    # precise first-appearance bookkeeping runs ONCE on the accumulated
    # stream after the loop, not per chunk.
    seen = np.zeros(num_ranks, dtype=bool)
    # First-appearance positions, computed sort-free: assigning positions in
    # reverse order makes the earliest write win for duplicate destinations.
    _never = np.int64(1) << 62
    first_at = np.full(num_ranks, _never, dtype=np.int64)
    # Ranks behave alike, so each rank's first chunk is sized to what the
    # previous rank actually needed (rewinding makes overdraw free except
    # for the generation cost of the unused tail).
    est_chunk = first_chunk
    for r in range(num_ranks):
        start_state = bg.state
        total_iters = 0
        chunk = est_chunk
        vidx_parts: list[np.ndarray] = []
        vdst_parts: list[np.ndarray] = []
        while True:
            draws = rng.random(2 * chunk)
            u = draws[0::2]
            if distance == "uniform":
                d = (u * max_off).astype(np.int64) + 1
            elif distance == "loguniform":
                d = np.exp(u * log_max_off).astype(np.int64)
                d[d == 0] = 1
            else:  # quadratic
                d = (u * u * max_off).astype(np.int64) + 1
            np.minimum(d, max_off, out=d)
            signed = np.where(draws[1::2] < 0.5, d, -d)
            dst = r + signed
            outside = (dst < 0) | (dst >= num_ranks)
            dst[outside] = r - signed[outside]
            valid = (dst != r) & (dst >= 0) & (dst < num_ranks)
            vidx = np.nonzero(valid)[0]
            vdst = dst[vidx]
            vidx_parts.append(vidx + total_iters)
            vdst_parts.append(vdst)
            seen[vdst] = True
            total_iters += chunk
            distinct = int(seen.sum())
            if distinct >= partners_per_rank or total_iters >= limit:
                break
            chunk = min(2 * chunk, limit - total_iters)
        est_chunk = min(max(first_chunk, total_iters), limit)
        if distinct >= partners_per_rank:
            # position (within the valid subsequence) at which the
            # partners_per_rank-th distinct destination first appears
            vdst_all = (
                np.concatenate(vdst_parts) if len(vdst_parts) > 1 else vdst_parts[0]
            )
            vidx_all = (
                np.concatenate(vidx_parts) if len(vidx_parts) > 1 else vidx_parts[0]
            )
            m = vdst_all.shape[0]
            first_at[vdst_all[::-1]] = np.arange(m - 1, -1, -1, dtype=np.int64)
            pos = first_at[seen]
            stop_pos = int(
                np.partition(pos, partners_per_rank - 1)[partners_per_rank - 1]
            )
            consumed = 2 * (int(vidx_all[stop_pos]) + 1)
            chosen = np.flatnonzero(first_at <= stop_pos)
            first_at[vdst_all] = _never
        else:
            # guard budget exhausted: every distinct destination sampled so
            # far is kept, and the bitmap is exactly that set, ascending
            consumed = 2 * limit
            chosen = np.flatnonzero(seen).astype(np.int64)
        seen[:] = False
        bg.state = start_state
        bg.advance(consumed)
        k = len(chosen)
        srcs_parts.append(np.full(k, r, dtype=np.int64))
        dsts_parts.append(chosen)
        wts_parts.append(partner_w[np.arange(k) % partners_per_rank])

    w = np.concatenate(wts_parts)
    w *= total_weight / w.sum()
    return Channels(np.concatenate(srcs_parts), np.concatenate(dsts_parts), w)


def background_channels(num_ranks: int, total_weight: float) -> Channels:
    """Uniform all-pairs background: every rank sends a little to everyone.

    Models global metadata exchange; drives *peers* to ``ranks - 1``.
    Quadratic in ranks — only use at modest scale (the fan-out variant,
    :func:`fanout_channels`, covers large configurations).
    """
    if num_ranks < 2:
        raise ValueError("background needs >= 2 ranks")
    src = np.repeat(np.arange(num_ranks, dtype=np.int64), num_ranks - 1)
    dst = np.concatenate(
        [np.delete(np.arange(num_ranks, dtype=np.int64), r) for r in range(num_ranks)]
    )
    w = np.full(len(src), total_weight / len(src))
    return Channels(src, dst, w)


def scaled_channels(channels: Channels, share: float) -> Channels:
    """Normalize a channel set's weights to sum to ``share``.

    Apps compose several pattern ingredients; scaling each part to its
    volume share keeps the relative weights meaningful across builders.
    Empty or zero-weight channel sets pass through unchanged.
    """
    total = channels.weight.sum()
    if total <= 0 or len(channels) == 0:
        return channels
    return Channels(
        channels.src,
        channels.dst,
        channels.weight * (share / total),
        channels.calls_factor,
    )
