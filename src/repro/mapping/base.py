"""Rank-to-node mappings.

A mapping assigns every MPI rank to a physical node of a topology.  The
paper's system-level studies use **consecutive** mapping — rank ``r`` on
node ``r // cores_per_node`` — with one rank per node for the topology
analyses (§6.2) and a cores-per-socket sweep for the multi-core study
(§6.1).  Optimized mappings (the improvement the paper motivates) live in
:mod:`repro.mapping.optimized`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mapping"]


@dataclass(frozen=True)
class Mapping:
    """An immutable rank→node assignment.

    ``nodes[r]`` is the physical node of rank ``r``.  Multiple ranks may
    share a node (multi-core); traffic between co-located ranks never enters
    the network.
    """

    nodes: np.ndarray  # int64[num_ranks]
    num_nodes: int

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.int64)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("mapping needs a non-empty 1D node array")
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise ValueError(
                f"mapped nodes out of range [0, {self.num_nodes}) "
                f"(got {nodes.min()}..{nodes.max()})"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def consecutive(
        num_ranks: int, num_nodes: int, ranks_per_node: int = 1
    ) -> "Mapping":
        """Paper-style consecutive mapping: rank r -> node r // ranks_per_node.

        Deterministic in its arguments, so it carries them as its
        provenance key (``_repro_cache_key``, see :mod:`repro.cache`).
        """
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        nodes = np.arange(num_ranks, dtype=np.int64) // ranks_per_node
        needed = int(nodes.max()) + 1 if num_ranks else 0
        if needed > num_nodes:
            raise ValueError(
                f"{num_ranks} ranks at {ranks_per_node}/node need {needed} nodes, "
                f"topology has {num_nodes}"
            )
        return Mapping(nodes, num_nodes)._keyed(
            ("mapping-consecutive", num_ranks, num_nodes, ranks_per_node)
        )

    @staticmethod
    def from_permutation(
        permutation: np.ndarray, num_nodes: int, ranks_per_node: int = 1
    ) -> "Mapping":
        """Place ranks in a given order, consecutively, ranks_per_node at a time.

        ``permutation[i]`` is the rank placed at slot ``i``; slot ``i`` lives
        on node ``i // ranks_per_node``.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        n = len(perm)
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("permutation must be a bijection on rank IDs")
        slots = np.empty(n, dtype=np.int64)
        slots[perm] = np.arange(n, dtype=np.int64)
        return Mapping(slots // ranks_per_node, num_nodes)

    @staticmethod
    def random(
        num_ranks: int,
        num_nodes: int,
        ranks_per_node: int = 1,
        seed: int = 0,
    ) -> "Mapping":
        """Random placement baseline: a shuffled consecutive mapping.

        Seed-deterministic, so it carries its arguments as its provenance
        key like :meth:`consecutive`.
        """
        rng = np.random.default_rng(seed)
        return Mapping.from_permutation(
            rng.permutation(num_ranks), num_nodes, ranks_per_node
        )._keyed(("mapping-random", num_ranks, num_nodes, ranks_per_node, seed))

    def _keyed(self, key: tuple) -> "Mapping":
        # Frozen dataclass: provenance rides outside the fields.
        object.__setattr__(self, "_repro_cache_key", key)
        return self

    # -- queries ------------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return len(self.nodes)

    def node_of(self, ranks: np.ndarray) -> np.ndarray:
        """Vectorized rank→node lookup."""
        return self.nodes[np.asarray(ranks, dtype=np.int64)]

    def used_nodes(self) -> np.ndarray:
        """Sorted unique nodes that host at least one rank."""
        return np.flatnonzero(np.bincount(self.nodes))

    @property
    def num_used_nodes(self) -> int:
        return len(self.used_nodes())

    def ranks_on_node(self, node: int) -> np.ndarray:
        """Ranks hosted by one node."""
        return np.flatnonzero(self.nodes == node)

    def max_ranks_per_node(self) -> int:
        _, counts = np.unique(self.nodes, return_counts=True)
        return int(counts.max())
