"""3D mesh — the torus without wrap-around links (ablation topology).

The paper attributes part of the torus's quality to the wrap-around links
that halve each ring's diameter (§2.2.2).  The mesh is the natural ablation
target: identical structure minus the wrap links, so any difference in hop
counts isolates the wrap-around contribution.

Routing stays dimension-order; without rings there is exactly one minimal
direction per dimension.  Links: each node owns its +x/+y/+z link when the
neighbour exists, so a mesh has ``3XYZ - (YZ + XZ + XY)`` links.
"""

from __future__ import annotations

import numpy as np

from .torus import Torus3D

__all__ = ["Mesh3D"]


class Mesh3D(Torus3D):
    """A 3D mesh: the torus topology with wrap-around removed."""

    kind = "mesh3d"

    def __repr__(self) -> str:
        return f"Mesh3D{self.dims}"

    def fingerprint(self) -> tuple:
        # Its own: the torus's would alias a mesh and a torus of one size.
        return ("mesh3d", self.dims)

    @property
    def diameter(self) -> int:
        return sum(d - 1 for d in self.dims)

    def _dim_deltas(
        self, s_c: np.ndarray, d_c: np.ndarray, size: int
    ) -> np.ndarray:
        """Signed steps along one dimension — no wrap, always the direct path."""
        return d_c - s_c

    def hops_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self._check_nodes(src, dst)
        X, Y, Z = self.dims
        total = np.abs(src % Z - dst % Z)
        total += np.abs((src // Z) % Y - (dst // Z) % Y)
        total += np.abs(src // (Y * Z) - dst // (Y * Z))
        return total

    @property
    def num_links(self) -> int:
        X, Y, Z = self.dims
        return (X - 1) * Y * Z + X * (Y - 1) * Z + X * Y * (Z - 1)

    def nominal_links(self, used_nodes: int) -> float:
        """Scale the true mesh link count to the used-node share."""
        if used_nodes < 0:
            raise ValueError("used_nodes must be >= 0")
        share = min(used_nodes, self._num_nodes) / self._num_nodes
        return self.num_links * share

    def describe_link(self, link_id: int) -> str:
        node, dim = divmod(int(link_id), 3)
        x, y, z = self.coordinates(np.array([node]))[0]
        return f"mesh link +{'xyz'[dim]} at ({x},{y},{z})"
