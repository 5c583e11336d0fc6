"""Rank locality (paper §4.1.1).

*Rank distance* between two MPI ranks is the absolute difference of their
numerical IDs (Eq. 1); *locality* is its reciprocal (Eq. 2), so communicating
with a direct neighbour (distance 1) means 100% locality.  The paper
quantizes the metric as the distance covering 90% of the point-to-point
traffic volume — here computed as an interpolated byte-weighted quantile —
and reports it per application as *Rank Distance (90%)* in Table 3.

The metric is hardware-agnostic: it depends only on rank numbering, not on
any topology or mapping.  Self-traffic (``src == dst``) is excluded — it has
distance 0 and never crosses the network.
"""

from __future__ import annotations

import numpy as np

from ..comm.matrix import CommMatrix
from .weighted import weighted_quantile

__all__ = [
    "pair_distances",
    "rank_distance",
    "rank_locality",
    "locality_from_distance",
    "distance_histogram",
]

#: The paper's quantization threshold: 90% of traffic volume.
DEFAULT_SHARE = 0.9


def pair_distances(matrix: CommMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Linear rank distances and byte weights for all off-diagonal pairs."""
    mask = matrix.src != matrix.dst
    # Widened first: a difference of unsigned ranks would wrap around.
    dist = np.abs(
        matrix.src[mask].astype(np.int64) - matrix.dst[mask].astype(np.int64)
    )
    return dist, matrix.nbytes[mask]


def rank_distance(matrix: CommMatrix, share: float = DEFAULT_SHARE) -> float:
    """Byte-weighted ``share``-quantile of the linear rank distance.

    Returns NaN when the matrix has no off-diagonal traffic (e.g. for
    all-collective workloads analyzed at the p2p level, reported as N/A in
    the paper's tables).
    """
    dist, weights = pair_distances(matrix)
    if dist.size == 0 or weights.sum() == 0:
        return float("nan")
    return weighted_quantile(dist, weights, share)


def rank_locality(matrix: CommMatrix, share: float = DEFAULT_SHARE) -> float:
    """Rank locality in [0, 1]: reciprocal of :func:`rank_distance` (Eq. 2).

    A value of 1.0 means 90% of traffic stays within direct rank neighbours.
    NaN when there is no point-to-point traffic.
    """
    return locality_from_distance(rank_distance(matrix, share))


def locality_from_distance(distance: float) -> float:
    """Rank locality of an already computed :func:`rank_distance` (Eq. 2)."""
    if np.isnan(distance):
        return float("nan")
    # Distances below one can arise from quantile interpolation when nearly
    # all traffic is neighbour traffic; locality is capped at 100%.
    return min(1.0, 1.0 / distance) if distance > 0 else 1.0


def distance_histogram(matrix: CommMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Byte volume per linear rank distance.

    Returns ``(distances, volumes)`` with distances sorted ascending —
    the raw distribution underlying :func:`rank_distance`, useful for
    plotting locality profiles.
    """
    dist, weights = pair_distances(matrix)
    if dist.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    unique, inverse = np.unique(dist, return_inverse=True)
    volumes = np.zeros(len(unique), dtype=np.int64)
    np.add.at(volumes, inverse, weights)
    return unique, volumes
