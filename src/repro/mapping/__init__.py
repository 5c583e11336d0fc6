"""Rank-to-node mapping strategies and the multi-core study."""

from .base import Mapping
from .multicore import DEFAULT_CORES, MulticorePoint, inter_node_bytes, multicore_sweep
from .optimized import (
    bisection_slots,
    greedy_ordering,
    optimize_mapping,
    optimized_slots,
    place_slots,
    refine_mapping,
    spectral_ordering,
    weighted_hop_cost,
)

__all__ = [
    "Mapping",
    "bisection_slots",
    "DEFAULT_CORES",
    "MulticorePoint",
    "inter_node_bytes",
    "multicore_sweep",
    "greedy_ordering",
    "optimize_mapping",
    "optimized_slots",
    "place_slots",
    "refine_mapping",
    "spectral_ordering",
    "weighted_hop_cost",
]
