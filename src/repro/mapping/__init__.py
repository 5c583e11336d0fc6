"""Rank-to-node mapping strategies and the multi-core study."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("Mapping",),
    ".multicore": ("DEFAULT_CORES", "MulticorePoint", "inter_node_bytes", "multicore_sweep"),
    ".optimized": (
        "bisection_slots", "greedy_ordering", "optimize_mapping", "optimized_slots", "place_slots",
        "refine_mapping", "spectral_ordering", "weighted_hop_cost",
    ),
})
