"""Communication heat maps and their summary statistics.

The paper's methodological starting point (§4): locality "is mostly
characterized by communication patterns represented in heat maps so far",
which are "well suited for humans" but "become increasingly unclear with
the number of ranks" and "are not qualified to be interpreted abstractly".

This module provides exactly that baseline — down-sampled heat maps with an
ASCII rendering for human inspection — plus the abstract summary statistics
(sparsity, bandwidth concentration, diagonal dominance) that bridge toward
the paper's metrics, so the motivation can be demonstrated side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.matrix import CommMatrix

__all__ = ["HeatmapSummary", "downsample", "render_ascii", "heatmap_summary"]

_SHADES = " .:-=+*#%@"


def downsample(matrix: CommMatrix, bins: int = 32) -> np.ndarray:
    """Aggregate the rank-pair byte matrix into a ``bins x bins`` density.

    Ranks are grouped into contiguous blocks (the usual heat-map
    down-sampling); the result holds total bytes per block pair.
    """
    if bins <= 0:
        raise ValueError("bins must be positive")
    n = matrix.num_ranks
    bins = min(bins, n)
    row = (matrix.src.astype(np.int64) * bins) // n
    col = (matrix.dst.astype(np.int64) * bins) // n
    out = np.zeros((bins, bins), dtype=np.float64)
    np.add.at(out, (row, col), matrix.nbytes)
    return out


def render_ascii(matrix: CommMatrix, bins: int = 32) -> str:
    """Log-scaled ASCII heat map (the human-readable baseline view)."""
    grid = downsample(matrix, bins)
    peak = grid.max()
    if peak <= 0:
        return "\n".join(" " * grid.shape[1] for _ in range(grid.shape[0]))
    # log scale: empty cells blank, then 9 shades over the dynamic range
    with np.errstate(divide="ignore"):
        logs = np.where(grid > 0, np.log10(grid), -np.inf)
    lo = logs[np.isfinite(logs)].min()
    hi = np.log10(peak)
    span = max(hi - lo, 1e-12)
    lines = []
    for row in range(grid.shape[0]):
        chars = []
        for col in range(grid.shape[1]):
            if grid[row, col] <= 0:
                chars.append(" ")
            else:
                level = (logs[row, col] - lo) / span
                chars.append(_SHADES[1 + int(level * (len(_SHADES) - 2))])
        lines.append("".join(chars))
    return "\n".join(lines)


@dataclass(frozen=True)
class HeatmapSummary:
    """Abstract statistics of the pair-volume distribution."""

    num_ranks: int
    fill: float  # fraction of off-diagonal pairs with any traffic
    diagonal_band_share: float  # byte share within |src-dst| <= band
    band: int
    top_pairs_for_90pct: int  # pairs covering 90% of bytes
    gini: float  # inequality of pair volumes (1 = one pair carries all)

    @property
    def concentration(self) -> float:
        """Share of possible pairs needed for 90% of bytes (lower = sparser)."""
        possible = self.num_ranks * (self.num_ranks - 1)
        return self.top_pairs_for_90pct / possible if possible else 0.0


def heatmap_summary(matrix: CommMatrix, band: int = 1) -> HeatmapSummary:
    """Summarize a heat map's structure without rendering it.

    These are the "abstract comparisons" heat maps cannot provide directly:
    how full the matrix is, how much traffic hugs the diagonal (cheap 1D
    locality), and how concentrated the volume is.
    """
    n = matrix.num_ranks
    off = matrix.src != matrix.dst
    # Widened first: a difference of unsigned ranks would wrap around.
    src = matrix.src[off].astype(np.int64)
    dst = matrix.dst[off].astype(np.int64)
    vols = matrix.nbytes[off].astype(np.float64)
    possible = n * (n - 1)
    if len(vols) == 0 or vols.sum() == 0:
        return HeatmapSummary(n, 0.0, 0.0, band, 0, 0.0)

    total = vols.sum()
    near = np.abs(src - dst) <= band
    sorted_desc = np.sort(vols)[::-1]
    cum = np.cumsum(sorted_desc)
    top_pairs = int(np.searchsorted(cum, 0.9 * total - 1e-9) + 1)

    sorted_asc = sorted_desc[::-1]
    index = np.arange(1, len(sorted_asc) + 1)
    gini = float(
        (2 * (index * sorted_asc).sum()) / (len(sorted_asc) * total)
        - (len(sorted_asc) + 1) / len(sorted_asc)
    )

    return HeatmapSummary(
        num_ranks=n,
        fill=len(vols) / possible,
        diagonal_band_share=float(vols[near].sum() / total),
        band=band,
        top_pairs_for_90pct=top_pairs,
        gini=gini,
    )
