"""Static topology models: 3D torus, fat tree, dragonfly (paper §2.2, §4.4)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("RouteIncidence", "Topology"),
    ".configs": (
        "TABLE2", "TABLE2_SIZES", "TOPOLOGY_KINDS", "TopologyConfig", "build_all", "build_topology",
        "config_for", "dragonfly_params_for", "fat_tree_stages_for", "torus_dims_for",
    ),
    ".cost": ("CostModel", "TopologyCost", "topology_cost"),
    ".dragonfly": ("Dragonfly",),
    ".fattree": ("FatTree",),
    ".mesh": ("Mesh3D",),
    ".torus": ("Torus3D",),
})
