"""Interference-aware routing: UGAL priced with a victim's traffic matrix.

De Sensi et al. (application-aware routing, PAPERS.md) show that a routing
policy which *knows* another tenant's traffic matrix can steer its own
traffic around the links that tenant depends on.  This policy is the
library's version of that idea, built entirely from the UGAL machinery:

- :func:`victim_link_loads` projects a victim's traffic matrix onto
  per-link loads (under any baseline policy, default minimal — the routes
  the victim's packets actually walk).
- :class:`InterferenceAwareRouting` subclasses UGAL and seeds its greedy
  load-pricing pass with those loads via
  :meth:`~repro.routing.ugal.UGALRouting._initial_loads`, so every
  minimal-vs-Valiant comparison sees the victim's links as already busy
  and detours traffic away from them.

Constructed bare (``get_policy("interference_aware")``, as sweep axes do)
the prior is empty and the policy is exactly UGAL.  The victim loads join
``cache_token()`` by content digest, preserving the route-cache contract
(equal tokens ⇒ identical routes).
"""

from __future__ import annotations

import numpy as np

from ..cache import array_digest, cached_route_incidence
from ..topology.base import Topology
from .ugal import UGALRouting

__all__ = ["InterferenceAwareRouting", "victim_link_loads"]


def victim_link_loads(
    matrix,
    topology: Topology,
    mapping=None,
    routing="minimal",
    routing_seed: int = 0,
    volume_scale: float = 1.0,
) -> np.ndarray:
    """Per-link loads a victim's traffic matrix induces, ``float64[num_links]``.

    Loads are in scaled-packet units — the same units the simulation's
    pair weights use under the same ``volume_scale`` — so an aggressor
    priced with them sees the victim's traffic at its true magnitude.
    """
    from ..mapping.base import Mapping

    if mapping is None:
        mapping = Mapping.consecutive(matrix.num_ranks, topology.num_nodes)
    src_n = mapping.node_of(matrix.src)
    dst_n = mapping.node_of(matrix.dst)
    crossing = src_n != dst_n
    src_n = src_n[crossing]
    dst_n = dst_n[crossing]
    loads = np.zeros(topology.num_links, dtype=np.float64)
    if not len(src_n):
        return loads
    packets = matrix.packets[crossing].astype(np.int64)
    scaled = np.maximum(packets // int(volume_scale), 1)
    inc = cached_route_incidence(
        topology,
        src_n,
        dst_n,
        routing=routing,
        seed=routing_seed,
        pair_weights=scaled,
    )
    np.add.at(loads, inc.link_id, scaled[inc.pair_index].astype(np.float64))
    return loads


class InterferenceAwareRouting(UGALRouting):
    """UGAL whose load-pricing pass starts from a victim's link loads."""

    name = "interference_aware"

    def __init__(self, seed: int = 0, victim_loads: np.ndarray | None = None) -> None:
        super().__init__(seed=seed)
        if victim_loads is None:
            self.victim_loads = None
        else:
            loads = np.asarray(victim_loads, dtype=np.float64)
            if loads.ndim != 1:
                raise ValueError("victim_loads must be a 1-D per-link array")
            if np.any(loads < 0):
                raise ValueError("victim_loads must be non-negative")
            self.victim_loads = loads

    def _initial_loads(self, topology: Topology) -> np.ndarray:
        if self.victim_loads is None:
            return super()._initial_loads(topology)
        if len(self.victim_loads) != topology.num_links:
            raise ValueError(
                f"victim_loads has {len(self.victim_loads)} entries but "
                f"{type(topology).__name__} has {topology.num_links} links"
            )
        # The pricing pass accumulates into this array; hand out a copy so
        # the prior survives across routing queries.
        return self.victim_loads.copy()

    def cache_token(self) -> tuple:
        if self.victim_loads is None:
            return (self.name, self.seed)
        return (self.name, self.seed, array_digest(self.victim_loads))
