"""Selectivity (paper §4.1.2).

For a given source rank, sort its point-to-point destinations by exchanged
byte volume; *selectivity* is the number of top destinations needed to cover
90% of that rank's total p2p volume.  The application-level value reported in
Table 3 is the mean over all ranks that send any p2p traffic.

This module also produces the cumulative-share curves of Figures 1, 3 and 4:
x — destinations sorted by volume (rank 1 = heaviest partner), y — cumulative
share of the source rank's traffic.
"""

from __future__ import annotations

import numpy as np

from ..comm.matrix import CommMatrix

__all__ = [
    "per_rank_selectivity",
    "selectivity",
    "partner_volumes",
    "selectivity_curve",
    "mean_selectivity_curve",
]

DEFAULT_SHARE = 0.9


def _partner_runs(matrix: CommMatrix) -> tuple[np.ndarray, ...]:
    """Every sending rank's partners, heaviest first, in one flat array.

    Returns ``(ranks, starts, lengths, totals, cum)``: the sending ranks in
    ascending order, where each rank's run starts in the flat partner array
    and how many partners it has, each rank's total p2p volume, and the
    running volume within each rank's run (``cum[starts[i]]`` is rank
    ``i``'s heaviest partner).  Self pairs are excluded; zero-byte partners
    stay, at the end of their run.  The int64 running sum is exact, so every
    value equals a per-rank ``np.cumsum``.
    """
    mask = matrix.src != matrix.dst
    src = matrix.src[mask]
    nbytes = matrix.nbytes[mask]
    if not src.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy(), empty.copy()
    order = np.lexsort((-nbytes, src))
    src = src[order]
    nbytes = nbytes[order]
    head = np.empty(len(src), dtype=bool)
    head[0] = True
    np.not_equal(src[1:], src[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    lengths = np.diff(starts, append=len(src))
    totals = np.add.reduceat(nbytes, starts)
    cum = np.cumsum(nbytes)
    # Rebase each run on the volume before it (wraparound-safe in int64).
    cum -= np.repeat(cum[starts] - nbytes[starts], lengths)
    return src[starts], starts, lengths, totals, cum


def _selectivities(matrix: CommMatrix, share: float) -> tuple[np.ndarray, np.ndarray]:
    """``(ranks, k)``: fewest top partners covering ``share`` of each sending rank.

    Ranks whose partners carry zero bytes in total are dropped.
    """
    if not 0 < share <= 1:
        raise ValueError(f"share must be in (0, 1], got {share}")
    ranks, starts, lengths, totals, cum = _partner_runs(matrix)
    below = cum < np.repeat(share * totals - 1e-9, lengths)
    k = np.add.reduceat(below.astype(np.int64), starts) + 1
    sending = totals > 0
    return ranks[sending], k[sending]


def per_rank_selectivity(
    matrix: CommMatrix, share: float = DEFAULT_SHARE
) -> dict[int, int]:
    """Selectivity of every rank that sends p2p traffic."""
    ranks, k = _selectivities(matrix, share)
    return dict(zip(ranks.tolist(), k.tolist()))


def selectivity(matrix: CommMatrix, share: float = DEFAULT_SHARE) -> float:
    """Application-level selectivity: mean of the per-rank values.

    NaN when no rank sends point-to-point traffic (all-collective workloads,
    reported N/A in the paper).
    """
    _, k = _selectivities(matrix, share)
    if not k.size:
        return float("nan")
    return float(np.mean(k))


def partner_volumes(matrix: CommMatrix, rank: int) -> np.ndarray:
    """Byte volume to each partner of ``rank``, sorted descending (Figure 1)."""
    dsts, nbytes = matrix.row(rank)
    off = dsts != rank
    return np.sort(nbytes[off])[::-1]


def selectivity_curve(matrix: CommMatrix, rank: int) -> np.ndarray:
    """Cumulative traffic share of ``rank``'s sorted partners.

    ``curve[k-1]`` is the share of the rank's p2p volume covered by its top-k
    partners; the final entry is 1.0.  Empty when the rank sends nothing.
    """
    vols = partner_volumes(matrix, rank)
    total = vols.sum()
    if total == 0:
        return np.zeros(0, dtype=np.float64)
    return np.cumsum(vols) / total


def mean_selectivity_curve(matrix: CommMatrix, max_partners: int | None = None) -> np.ndarray:
    """Average cumulative-share curve across all sending ranks (Figures 3/4).

    Ranks with fewer partners than the curve length are padded with 1.0
    (their whole volume is already covered).  Returns an empty array when no
    rank sends p2p traffic.  ``max_partners`` caps the curve length; it must
    be None or at least 1.
    """
    if max_partners is not None and max_partners < 1:
        raise ValueError(f"max_partners must be None or >= 1, got {max_partners}")
    _, starts, lengths, totals, cum = _partner_runs(matrix)
    sending = totals > 0
    n_sending = int(np.count_nonzero(sending))
    if not n_sending:
        return np.zeros(0, dtype=np.float64)
    longest = int(lengths[sending].max())
    if max_partners is not None:
        longest = min(longest, max_partners)
    run = np.repeat(np.arange(len(starts)), lengths)
    position = np.arange(len(cum)) - starts[run]
    keep = sending[run] & (position < longest)
    run = run[keep]
    pad = np.ones((n_sending, longest), dtype=np.float64)
    row_of_run = np.cumsum(sending) - 1
    pad[row_of_run[run], position[keep]] = cum[keep] / totals[run]
    # Accumulate row by row in rank order: ``pad.sum(axis=0)`` would switch
    # to pairwise summation and move the last bits of the mean.
    return np.cumsum(pad, axis=0)[-1] / n_sending
