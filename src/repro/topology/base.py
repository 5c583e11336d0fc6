"""Topology abstraction.

A topology is a *non-temporal* network model (paper §4.2): it answers, for
node pairs, (a) how many link traversals (**hops**) a packet takes under the
topology's deterministic shortest-path routing, and (b) *which* links the
route uses — enough to count used links for the utilization metric (Eq. 5)
and to study link-load distributions.  No timing, congestion, or adaptive
behaviour is modeled, exactly like the paper.

Hop conventions (validated against the paper's Table 3):

- **3D torus** — switches are integrated into the NIC, so a hop is one
  inter-node link traversal; same-node traffic is 0 hops.
- **fat tree / dragonfly** — the node↔switch injection/ejection links count
  as hops (two nodes on the same switch are 2 hops apart).

Routes are exposed in a vectorized form: arrays of node pairs in, arrays of
hop counts or ``(pair_index, link_id)`` incidence pairs out.  Link IDs are
opaque non-negative integer identifiers, unique within one topology instance;
``describe_link`` decodes them for humans.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.blocks import index_dtype, narrow, stored_dtype

__all__ = ["Topology", "RouteIncidence", "compact_ids"]


@dataclass(frozen=True)
class RouteIncidence:
    """Sparse pair→link incidence of a batch of routes.

    ``pair_index[i]`` says that route ``pair_index[i]`` (an index into the
    query arrays) traverses ``link_id[i]``.  A route of h hops contributes h
    incidence rows; 0-hop (same node) routes contribute none.
    """

    pair_index: np.ndarray  # int64[m], or narrow once cached
    link_id: np.ndarray  # int64[m], or narrow once cached

    def __post_init__(self) -> None:
        if self.pair_index.shape != self.link_id.shape:
            raise ValueError("pair_index and link_id must be parallel arrays")

    @property
    def num_incidences(self) -> int:
        return len(self.link_id)

    def compacted(self, num_pairs: int) -> "RouteIncidence":
        """These rows in the dtypes the cache stores them in: each column
        in the smallest unsigned dtype holding its indexes (``num_pairs``
        query pairs, link IDs up to the largest present)."""
        top = int(self.link_id.max()) + 1 if len(self.link_id) else 0
        return RouteIncidence(
            narrow(
                self.pair_index,
                stored_dtype("incidence", "pair_index", num_pairs),
                "pair_index",
            ),
            narrow(self.link_id, stored_dtype("incidence", "link_id", top), "link_id"),
        )

    def _memoize(self, name: str, value) -> None:
        """Keep a derived array on this (shared, immutable) incidence and
        count it against the cache entry that holds the incidence."""
        from .. import cache

        object.__setattr__(self, name, value)
        cache.count_memo(self)

    def used_links(self) -> np.ndarray:
        """Sorted unique link IDs appearing in any route.

        Link IDs are bounded by the topology's link count, so a
        ``bincount`` presence pass replaces a sort (``np.unique`` was
        25-30x slower on million-row incidences).  Memoized on the
        instance: incidences are shared via
        :func:`repro.cache.cached_route_incidence`.  Incidence arrays are
        treated as immutable repo-wide.
        """
        cached = getattr(self, "_used_links", None)
        if cached is None:
            cached = np.flatnonzero(np.bincount(self.link_id))
            self._memoize("_used_links", cached)
        return cached

    def link_loads(self, pair_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate a per-pair weight (bytes, packets, ...) onto links.

        Returns ``(link_ids, loads)`` with link_ids sorted unique.
        """
        cached = getattr(self, "_link_inverse", None)
        if cached is None:
            ids, inverse = compact_ids(self.link_id)
            # The inverse is as long as the incidence: keep it narrow.
            cached = ids, inverse.astype(index_dtype(len(ids)))
            if getattr(self, "_used_links", None) is None:
                object.__setattr__(self, "_used_links", ids)
            self._memoize("_link_inverse", cached)
        ids, inverse = cached
        # bincount beats np.add.at by ~10x at these shapes and
        # accumulates in the same input order, so the float sums are
        # bit-identical.
        weights = np.asarray(pair_weights, dtype=np.float64)[self.pair_index]
        loads = np.bincount(inverse, weights=weights, minlength=len(ids))
        return ids, loads


def compact_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for small non-negative IDs.

    A presence mask over ``[0, max]`` and its running count give the
    sorted unique IDs and each entry's dense index without sorting.  Meant
    for IDs bounded by a topology's link or node count, not for keys over
    a quadratic space.
    """
    present = np.zeros(int(ids.max()) + 1 if len(ids) else 0, dtype=bool)
    present[ids] = True
    dense = np.cumsum(present) - 1
    return np.flatnonzero(present), dense[ids]


class Topology(abc.ABC):
    """Static network model with deterministic shortest-path routing."""

    #: Short identifier ("torus3d", "fattree", "dragonfly").
    kind: str = "topology"

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of compute-node attachment points."""

    @property
    @abc.abstractmethod
    def diameter(self) -> int:
        """Maximum hop count between any two distinct nodes."""

    @abc.abstractmethod
    def hops_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Hop count of the shortest route for each node pair (vectorized)."""

    @abc.abstractmethod
    def route_incidence(self, src: np.ndarray, dst: np.ndarray) -> RouteIncidence:
        """Every link on every pair's deterministic route."""

    @abc.abstractmethod
    def nominal_links(self, used_nodes: int) -> float:
        """Link count the paper's utilization formula charges for ``used_nodes``.

        Paper §4.2.3: fat tree — ``nodes * stages`` with only half the links
        for the last stage; torus — three links per node; dragonfly — the
        per-router links (p node ports + a−1 local + h global) divided by p
        nodes, i.e. 3.5–3.8 links/node for the standard configurations.
        """

    @abc.abstractmethod
    def describe_link(self, link_id: int) -> str:
        """Human-readable description of a link ID (for debugging/reports)."""

    # -- conveniences (shared implementations) --------------------------------

    def fingerprint(self) -> tuple | None:
        """Structural identity for content-keyed caching.

        Two instances with equal fingerprints must produce identical routes
        for identical queries.  Returns ``None`` (bypass caching, see
        :func:`repro.cache.cached_route_incidence`) unless overridden.
        """
        return None

    def walk_hops_lower_bound(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """A true lower bound on the link count of *any* valid walk per pair.

        For most topologies this is exactly :meth:`hops_array`.  It is kept
        as a separate method because the two are not the same thing:
        ``hops_array`` is the length of the topology's *deterministic
        minimal route*, which non-minimal policies (Valiant, UGAL) may
        legitimately undercut when the route graph offers a shorter walk
        the minimal scheme cannot take (see the dragonfly override).
        Validation code must bound routes with this method, never with
        ``hops_array`` directly.
        """
        return self.hops_array(src, dst)

    def hops(self, src: int, dst: int) -> int:
        """Scalar hop count."""
        return int(
            self.hops_array(
                np.array([src], dtype=np.int64), np.array([dst], dtype=np.int64)
            )[0]
        )

    def route_links(self, src: int, dst: int) -> list[int]:
        """Link IDs of one route, in traversal order where meaningful."""
        inc = self.route_incidence(
            np.array([src], dtype=np.int64), np.array([dst], dtype=np.int64)
        )
        return [int(x) for x in inc.link_id]

    def _check_nodes(self, src: np.ndarray, dst: np.ndarray) -> None:
        for arr, label in ((src, "src"), (dst, "dst")):
            if arr.size and (arr.min() < 0 or arr.max() >= self.num_nodes):
                raise ValueError(
                    f"{label} node IDs out of range for {self.num_nodes}-node "
                    f"{self.kind}"
                )
