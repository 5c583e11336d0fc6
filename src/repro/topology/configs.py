"""Topology configurations at scale (paper Table 2).

For every problem size the paper fixes one configuration per topology:

- **torus** — the smallest 3D box fitting the ranks, with near-balanced,
  non-increasing dimensions (Table 2 column 1);
- **fat tree** — radix 48 with the smallest sufficient stage count
  (48 / 576 / 13824 nodes);
- **dragonfly** — the smallest standard ``a = 2h = 2p`` configuration
  (72 / 342 / 1056 / 2550 nodes).

The exact Table-2 rows are pinned in :data:`TABLE2`; for sizes the paper did
not use, the same selection rules extend naturally (see
:func:`torus_dims_for`, :func:`fat_tree_stages_for`, :func:`dragonfly_params_for`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dragonfly import Dragonfly
from .fattree import FatTree
from .torus import Torus3D

__all__ = [
    "TopologyConfig",
    "TABLE2",
    "TABLE2_SIZES",
    "torus_dims_for",
    "fat_tree_stages_for",
    "dragonfly_params_for",
    "config_for",
    "TOPOLOGY_KINDS",
    "build_topology",
    "build_all",
]


@dataclass(frozen=True)
class TopologyConfig:
    """One Table-2 row: the three topology configurations for a size."""

    size: int
    torus_dims: tuple[int, int, int]
    fat_tree_stages: int
    dragonfly_ahp: tuple[int, int, int]

    @property
    def torus_nodes(self) -> int:
        x, y, z = self.torus_dims
        return x * y * z

    @property
    def fat_tree_nodes(self) -> int:
        return FatTree(48, self.fat_tree_stages).num_nodes

    @property
    def dragonfly_nodes(self) -> int:
        a, h, p = self.dragonfly_ahp
        return (a * h + 1) * a * p

    def build_torus(self) -> Torus3D:
        return Torus3D(self.torus_dims)

    def build_fat_tree(self) -> FatTree:
        return FatTree(48, self.fat_tree_stages)

    def build_dragonfly(self) -> Dragonfly:
        return Dragonfly(*self.dragonfly_ahp)


#: The paper's Table 2, keyed by problem size.
TABLE2: dict[int, TopologyConfig] = {
    size: TopologyConfig(size, torus, stages, ahp)
    for size, torus, stages, ahp in [
        (8, (2, 2, 2), 1, (4, 2, 2)),
        (9, (3, 2, 2), 1, (4, 2, 2)),
        (10, (3, 2, 2), 1, (4, 2, 2)),
        (18, (3, 3, 2), 1, (4, 2, 2)),
        (27, (3, 3, 3), 1, (4, 2, 2)),
        (64, (4, 4, 4), 2, (4, 2, 2)),
        (100, (5, 5, 4), 2, (6, 3, 3)),
        (125, (5, 5, 5), 2, (6, 3, 3)),
        (144, (6, 6, 4), 2, (6, 3, 3)),
        (168, (7, 6, 4), 2, (6, 3, 3)),
        (216, (6, 6, 6), 2, (6, 3, 3)),
        (256, (8, 8, 4), 2, (6, 3, 3)),
        (512, (8, 8, 8), 2, (8, 4, 4)),
        (1000, (10, 10, 10), 3, (8, 4, 4)),
        (1024, (16, 8, 8), 3, (8, 4, 4)),
        (1152, (12, 12, 8), 3, (10, 5, 5)),
        (1728, (12, 12, 12), 3, (10, 5, 5)),
    ]
}

#: Problem sizes of Table 2, ascending.
TABLE2_SIZES: tuple[int, ...] = tuple(sorted(TABLE2))

#: Standard balanced dragonflies used by the paper, smallest first.
_STANDARD_DRAGONFLIES: tuple[tuple[int, int, int], ...] = (
    (4, 2, 2),
    (6, 3, 3),
    (8, 4, 4),
    (10, 5, 5),
    (12, 6, 6),
    (14, 7, 7),
    (16, 8, 8),
)


def torus_dims_for(num_ranks: int) -> tuple[int, int, int]:
    """Smallest near-balanced 3D torus box holding ``num_ranks`` nodes.

    Reproduces Table 2 exactly for the paper's sizes: among all boxes
    ``x >= y >= z`` with ``x*y*z >= num_ranks``, pick the one with the fewest
    nodes, breaking ties by the smallest imbalance ``x - z``, then by
    lexicographic order.  The search space is bounded by the cube root.
    """
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    if num_ranks in TABLE2:
        return TABLE2[num_ranks].torus_dims
    best: tuple[int, int, tuple[int, int, int]] | None = None
    # z <= y <= x and z**3 <= volume; a generous bound keeps the scan tiny.
    limit = int(round(num_ranks ** (1 / 3))) + 2
    for z in range(1, limit + 1):
        y = z
        while y * z * z <= max(num_ranks * 4, 8):
            x = -(-num_ranks // (y * z))  # smallest x with x*y*z >= n
            if x < y:
                y += 1
                continue
            volume = x * y * z
            cand = (volume, x - z, (x, y, z))
            if best is None or cand < best:
                best = cand
            y += 1
    assert best is not None
    return best[2]


def fat_tree_stages_for(num_ranks: int, radix: int = 48) -> int:
    """Smallest stage count whose fat tree holds ``num_ranks`` nodes."""
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    for stages in (1, 2, 3):
        if FatTree(radix, stages).num_nodes >= num_ranks:
            return stages
    raise ValueError(
        f"{num_ranks} ranks exceed a 3-stage radix-{radix} fat tree "
        f"({FatTree(radix, 3).num_nodes} nodes)"
    )


def dragonfly_params_for(num_ranks: int) -> tuple[int, int, int]:
    """Smallest standard (a = 2h = 2p) dragonfly holding ``num_ranks`` nodes."""
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    if num_ranks in TABLE2:
        return TABLE2[num_ranks].dragonfly_ahp
    for a, h, p in _STANDARD_DRAGONFLIES:
        if (a * h + 1) * a * p >= num_ranks:
            return (a, h, p)
    raise ValueError(f"{num_ranks} ranks exceed the largest standard dragonfly")


def config_for(num_ranks: int) -> TopologyConfig:
    """The Table-2 row for a size, extended by the same rules off-table."""
    if num_ranks in TABLE2:
        return TABLE2[num_ranks]
    return TopologyConfig(
        size=num_ranks,
        torus_dims=torus_dims_for(num_ranks),
        fat_tree_stages=fat_tree_stages_for(num_ranks),
        dragonfly_ahp=dragonfly_params_for(num_ranks),
    )


#: The one topology kind -> builder map, in the paper's column order.
_BUILDERS = {
    "torus3d": TopologyConfig.build_torus,
    "fattree": TopologyConfig.build_fat_tree,
    "dragonfly": TopologyConfig.build_dragonfly,
}

#: Every topology kind a table, sweep, or command can build.
TOPOLOGY_KINDS: tuple[str, ...] = tuple(_BUILDERS)


def build_topology(kind: str, num_ranks: int) -> Torus3D | FatTree | Dragonfly:
    """The configured topology of ``kind`` sized for ``num_ranks``."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown topology {kind!r}; known: {list(TOPOLOGY_KINDS)}"
        ) from None
    return builder(config_for(num_ranks))


def build_all(num_ranks: int) -> dict[str, Torus3D | FatTree | Dragonfly]:
    """Instantiate all three configured topologies for a problem size."""
    return {kind: build_topology(kind, num_ranks) for kind in TOPOLOGY_KINDS}
