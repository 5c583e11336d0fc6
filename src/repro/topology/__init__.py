"""Static topology models: 3D torus, fat tree, dragonfly (paper §2.2, §4.4)."""

from .base import RouteIncidence, Topology
from .configs import (
    TABLE2,
    TABLE2_SIZES,
    TOPOLOGY_KINDS,
    TopologyConfig,
    build_all,
    build_topology,
    config_for,
    dragonfly_params_for,
    fat_tree_stages_for,
    torus_dims_for,
)
from .cost import CostModel, TopologyCost, topology_cost
from .dragonfly import Dragonfly
from .fattree import FatTree
from .mesh import Mesh3D
from .torus import Torus3D

__all__ = [
    "RouteIncidence",
    "Topology",
    "TABLE2",
    "TABLE2_SIZES",
    "TOPOLOGY_KINDS",
    "TopologyConfig",
    "build_all",
    "build_topology",
    "config_for",
    "dragonfly_params_for",
    "fat_tree_stages_for",
    "torus_dims_for",
    "CostModel",
    "TopologyCost",
    "topology_cost",
    "Dragonfly",
    "FatTree",
    "Mesh3D",
    "Torus3D",
]
