"""Hardware-agnostic MPI-level locality metrics (paper §4.1 and §5)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".dimensionality": (
        "chebyshev_distances", "grid_distances", "grid_shape", "locality_by_dimension",
        "manhattan_distances", "rank_coordinates", "rank_distance_nd", "rank_locality_nd",
    ),
    ".heatmap": ("HeatmapSummary", "heatmap_summary", "render_ascii"),
    ".locality": ("distance_histogram", "pair_distances", "rank_distance", "rank_locality"),
    ".peers": ("peers", "peers_per_rank"),
    ".selectivity": (
        "mean_selectivity_curve", "partner_volumes", "per_rank_selectivity", "selectivity",
        "selectivity_curve",
    ),
    ".summary": ("MPILevelMetrics", "mpi_level_metrics"),
    ".weighted": ("weighted_quantile",),
})
