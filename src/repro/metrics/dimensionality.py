"""Dimensionality analysis of rank locality (paper §5.1, Table 4).

The linear rank-distance metric only captures one-dimensional neighbour
structure: in a 2D or 3D domain decomposition, spatial neighbours in higher
dimensions sit at a constant *linear* offset (Figure 2).  Re-interpreting the
rank IDs as row-major coordinates on a d-dimensional grid and measuring a
grid distance recovers the structure.

The default grid metric is **Manhattan** (L1) distance, which generalizes
the 1D definition ``|src - dst|`` (Eq. 1): face neighbours sit at distance
1, stencil diagonals at 2–3.  The paper's Table 4 is only consistent with an
L1-style metric — e.g. CNS at 64 ranks reports 21% 3D locality (distance
~4.8), which exceeds the (4,4,4) grid's Chebyshev diameter of 3 but fits its
Manhattan diameter of 9.  Chebyshev distance (all 26 stencil neighbours at
distance 1) is available via ``metric="chebyshev"`` for comparison.
"""

from __future__ import annotations

import numpy as np

from ..comm.matrix import CommMatrix
from .weighted import weighted_quantile

__all__ = [
    "grid_shape",
    "rank_coordinates",
    "grid_distances",
    "manhattan_distances",
    "chebyshev_distances",
    "rank_distance_nd",
    "rank_locality_nd",
    "locality_by_dimension",
]

DEFAULT_SHARE = 0.9


def _prime_factors(n: int) -> list[int]:
    """Prime factorization, descending order."""
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return sorted(factors, reverse=True)


def grid_shape(num_ranks: int, ndims: int) -> tuple[int, ...]:
    """Balanced ``ndims``-dimensional grid with exactly ``num_ranks`` cells.

    Mirrors ``MPI_Dims_create``: prime factors of ``num_ranks`` are assigned
    largest-first to the currently smallest dimension, yielding factors as
    close to ``num_ranks**(1/ndims)`` as the factorization allows.  The
    result is sorted descending (slowest-varying dimension first), matching
    MPI's convention.
    """
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    if ndims <= 0:
        raise ValueError("ndims must be positive")
    dims = [1] * ndims
    for f in _prime_factors(num_ranks):
        dims[int(np.argmin(dims))] *= f
    return tuple(sorted(dims, reverse=True))


def rank_coordinates(ranks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Row-major coordinates of rank IDs on the given grid, shape ``(k, d)``."""
    ranks = np.asarray(ranks, dtype=np.int64)
    size = int(np.prod(shape))
    if ranks.size and (ranks.min() < 0 or ranks.max() >= size):
        raise ValueError(f"rank IDs out of range for grid of size {size}")
    coords = np.empty((len(ranks), len(shape)), dtype=np.int64)
    rem = ranks.copy()
    for axis in range(len(shape) - 1, -1, -1):
        coords[:, axis] = rem % shape[axis]
        rem //= shape[axis]
    return coords


def grid_distances(
    src: np.ndarray,
    dst: np.ndarray,
    shape: tuple[int, ...],
    metric: str = "manhattan",
) -> np.ndarray:
    """Grid distance between rank pairs on a row-major grid."""
    cs = rank_coordinates(src, shape)
    cd = rank_coordinates(dst, shape)
    diff = np.abs(cs - cd)
    if metric == "manhattan":
        return diff.sum(axis=1)
    if metric == "chebyshev":
        return diff.max(axis=1)
    raise ValueError(f"unknown grid metric {metric!r}")


def manhattan_distances(
    src: np.ndarray, dst: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Manhattan (L1) distance between rank pairs on a row-major grid."""
    return grid_distances(src, dst, shape, "manhattan")


def chebyshev_distances(
    src: np.ndarray, dst: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Chebyshev (max-coordinate) distance between rank pairs on a grid."""
    return grid_distances(src, dst, shape, "chebyshev")


def rank_distance_nd(
    matrix: CommMatrix,
    shape: tuple[int, ...],
    share: float = DEFAULT_SHARE,
    metric: str = "manhattan",
) -> float:
    """Byte-weighted ``share``-quantile of the grid rank distance."""
    if int(np.prod(shape)) != matrix.num_ranks:
        raise ValueError(
            f"grid {shape} has {int(np.prod(shape))} cells, "
            f"matrix has {matrix.num_ranks} ranks"
        )
    mask = matrix.src != matrix.dst
    if not mask.any():
        return float("nan")
    dist = grid_distances(
        matrix.src[mask].astype(np.int64),
        matrix.dst[mask].astype(np.int64),
        shape,
        metric,
    )
    weights = matrix.nbytes[mask]
    if weights.sum() == 0:
        return float("nan")
    return weighted_quantile(dist, weights, share)


def rank_locality_nd(
    matrix: CommMatrix,
    shape: tuple[int, ...],
    share: float = DEFAULT_SHARE,
    metric: str = "manhattan",
) -> float:
    """Rank locality in [0, 1] on a d-dimensional grid (1.0 = all neighbours)."""
    d = rank_distance_nd(matrix, shape, share, metric)
    if np.isnan(d):
        return float("nan")
    return min(1.0, 1.0 / d) if d > 0 else 1.0


def locality_by_dimension(
    matrix: CommMatrix,
    ndims: tuple[int, ...] = (1, 2, 3),
    share: float = DEFAULT_SHARE,
    metric: str = "manhattan",
) -> dict[int, float]:
    """Rank locality under balanced 1D/2D/3D re-linearization (Table 4).

    The workload's intrinsic dimensionality shows up as the dimension where
    locality peaks (or saturates at 100%).
    """
    return {
        d: rank_locality_nd(matrix, grid_shape(matrix.num_ranks, d), share, metric)
        for d in ndims
    }
