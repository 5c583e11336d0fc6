"""3D torus topology (paper §2.2.2).

Nodes are arranged on an ``(X, Y, Z)`` grid with wrap-around links in every
dimension.  The switch is integrated into the NIC (direct topology), so the
hop count between two nodes is the torus Manhattan distance — per dimension
the shorter way around the ring — with no extra injection/ejection hops.

Routing is deterministic **dimension-order** (x, then y, then z), taking the
shorter ring direction per dimension and breaking ties (distance exactly
half the ring) toward increasing coordinates.  Link identifiers: every node
owns its three "positive" links (+x, +y, +z to the neighbouring node), so a
torus has exactly ``3 * num_nodes`` links — the paper's counting.
"""

from __future__ import annotations

import numpy as np

from .base import RouteIncidence, Topology

__all__ = ["Torus3D"]


class Torus3D(Topology):
    """A 3D torus with dimension-order shortest-path routing."""

    kind = "torus3d"

    def __init__(self, dims: tuple[int, int, int]) -> None:
        if len(dims) != 3:
            raise ValueError(f"Torus3D needs exactly three dims, got {dims}")
        if any(d <= 0 for d in dims):
            raise ValueError(f"torus dims must be positive, got {dims}")
        self.dims = tuple(int(d) for d in dims)
        self._num_nodes = dims[0] * dims[1] * dims[2]

    def __repr__(self) -> str:
        return f"Torus3D{self.dims}"

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def diameter(self) -> int:
        return sum(d // 2 for d in self.dims)

    def fingerprint(self) -> tuple:
        return ("torus3d", self.dims)

    # -- coordinates --------------------------------------------------------

    def coordinates(self, nodes: np.ndarray) -> np.ndarray:
        """Row-major (x, y, z) coordinates, shape ``(k, 3)``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        X, Y, Z = self.dims
        out = np.empty((len(nodes), 3), dtype=np.int64)
        out[:, 2] = nodes % Z
        out[:, 1] = (nodes // Z) % Y
        out[:, 0] = nodes // (Y * Z)
        return out

    # -- hops -----------------------------------------------------------------

    def _dim_deltas(
        self, s_c: np.ndarray, d_c: np.ndarray, size: int
    ) -> np.ndarray:
        """Signed steps along one dimension, the shorter ring direction.

        ``s_c``/``d_c`` are one coordinate column of the sources and
        destinations; positive means increasing coordinates.  Ties (delta
        exactly half the ring size) go the positive way.  :class:`Mesh3D`
        overrides this hook with the direct, never-wrapping delta.
        """
        forward = (d_c - s_c) % size  # steps going +
        return np.where(forward <= size - forward, forward, forward - size)

    def hops_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        # Per-dimension 1D arithmetic instead of a (k, 3) coordinate
        # layout: ~2.7x faster on million-pair queries (see
        # benchmarks/test_micro.py), and hop counts do not need the signed
        # tie-break of _dim_deltas that routing does.
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self._check_nodes(src, dst)
        X, Y, Z = self.dims
        total = np.zeros(len(src), dtype=np.int64)
        for size, s_c, d_c in (
            (Z, src % Z, dst % Z),
            (Y, (src // Z) % Y, (dst // Z) % Y),
            (X, src // (Y * Z), dst // (Y * Z)),
        ):
            forward = (d_c - s_c) % size
            total += np.minimum(forward, size - forward)
        return total

    # -- links ----------------------------------------------------------------

    @property
    def num_links(self) -> int:
        """Total undirected links: three per node (+x, +y, +z)."""
        return 3 * self._num_nodes

    def route_incidence(self, src: np.ndarray, dst: np.ndarray) -> RouteIncidence:
        return self.route_incidence_ordered(src, dst, (0, 1, 2))

    def route_incidence_ordered(
        self, src: np.ndarray, dst: np.ndarray, order: tuple[int, int, int]
    ) -> RouteIncidence:
        """Shortest routes walked in an explicit dimension order.

        ``order`` is a permutation of ``(0, 1, 2)``; the default
        :meth:`route_incidence` uses ``(0, 1, 2)`` (x, then y, then z).  All
        six orders are equal-cost shortest paths — :mod:`repro.routing`'s
        ECMP policy hash-spreads pairs over them.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self._check_nodes(src, dst)
        if sorted(order) != [0, 1, 2]:
            raise ValueError(f"order must permute (0, 1, 2), got {order}")
        _, Y, Z = self.dims
        strides = (Y * Z, Z, 1)
        s_cols = [(src // st) % size for st, size in zip(strides, self.dims)]
        d_cols = [(dst // st) % size for st, size in zip(strides, self.dims)]
        deltas = [
            self._dim_deltas(s_c, d_c, size)
            for s_c, d_c, size in zip(s_cols, d_cols, self.dims)
        ]
        steps = [np.abs(d) for d in deltas]
        total = int(sum(int(s.sum()) for s in steps))
        pair_index = np.empty(total, dtype=np.int64)
        link_id = np.empty(total, dtype=np.int64)

        # ``rest`` is each pair's current node minus the walked dimension's
        # coordinate: destination values for the dimensions already walked,
        # source values for the ones still ahead.  Rows go out dimension by
        # dimension, then step by step, then in ascending pair order.
        rest = src.copy()
        pos = 0
        for dim in order:
            stride, size = strides[dim], self.dims[dim]
            rest -= s_cols[dim] * stride
            active = np.flatnonzero(steps[dim])
            remaining = steps[dim][active]
            forward = deltas[dim][active] > 0
            move = np.where(forward, 1, -1)
            # The undirected link between coordinate c and c+1 (mod size)
            # is owned by the lower endpoint along the ring: the current
            # coordinate going +, the next one going -.
            start = s_cols[dim][active]
            owner = np.where(forward, start, start - 1)
            base = rest[active] * 3 + dim
            for step in range(int(remaining.max()) if len(active) else 0):
                if step:
                    keep = remaining > step
                    if not keep.all():
                        active, remaining = active[keep], remaining[keep]
                        move, owner, base = move[keep], owner[keep], base[keep]
                end = pos + len(active)
                pair_index[pos:end] = active
                link_id[pos:end] = base + (owner % size) * (stride * 3)
                owner += move
                pos = end
            rest += d_cols[dim] * stride
        return RouteIncidence(pair_index, link_id)

    def snake_order(self) -> np.ndarray:
        """Boustrophedon traversal of all nodes: consecutive entries are
        grid-adjacent (1 hop apart, no wraparound needed).

        Used by locality-aware mappings: placing a 1D rank ordering along
        this curve turns 1D adjacency into physical adjacency, which plain
        row-major numbering only provides in the fastest dimension.
        """
        X, Y, Z = self.dims
        order = np.empty(self._num_nodes, dtype=np.int64)
        i = 0
        for x in range(X):
            ys = range(Y) if x % 2 == 0 else range(Y - 1, -1, -1)
            for yi, y in enumerate(ys):
                forward = (x * Y + yi) % 2 == 0
                zs = range(Z) if forward else range(Z - 1, -1, -1)
                for z in zs:
                    order[i] = (x * Y + y) * Z + z
                    i += 1
        return order

    def nominal_links(self, used_nodes: int) -> float:
        """Three links per used node (one per dimension, paper §4.2.3)."""
        if used_nodes < 0:
            raise ValueError("used_nodes must be >= 0")
        return 3.0 * min(used_nodes, self._num_nodes)

    def describe_link(self, link_id: int) -> str:
        node, dim = divmod(int(link_id), 3)
        x, y, z = self.coordinates(np.array([node]))[0]
        return f"torus link +{'xyz'[dim]} at ({x},{y},{z})"
