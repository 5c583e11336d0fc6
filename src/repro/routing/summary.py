"""Route summaries: what the static model needs from a batch of routes.

Eqs. 3–5 read three things from routing: each pair's hop count, how many
distinct links the routes use, and (on the dragonfly) whether a route
crosses a global link.  A :class:`~repro.topology.base.RouteIncidence`
holds two ``int64`` per pair-hop to answer that; a :class:`RouteSummary`
holds one small integer per pair (plus one flag per pair on the
dragonfly), so the cache can keep summaries where it would otherwise keep
route rows nobody reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import RouteIncidence
from ..topology.dragonfly import Dragonfly

__all__ = ["RouteSummary", "summarize_routes"]


@dataclass(frozen=True)
class RouteSummary:
    """Per-pair hop counts and the used-link count of a batch of routes."""

    #: Distinct links any route of the batch traverses.
    used_links: int
    #: Links each queried pair's route traverses, in the smallest unsigned
    #: dtype that holds the largest count.
    pair_hops: np.ndarray
    #: Per pair, does its route use a global link (``Dragonfly`` only).
    pair_global: np.ndarray | None = None


def summarize_routes(
    incidence: RouteIncidence, num_pairs: int, topology
) -> RouteSummary:
    """The :class:`RouteSummary` of ``incidence``, a batch of ``num_pairs``."""
    counts = np.bincount(incidence.pair_index, minlength=num_pairs)
    top = int(counts.max(initial=0))
    pair_global = None
    if isinstance(topology, Dragonfly):
        pair_global = np.zeros(num_pairs, dtype=bool)
        rows = topology.is_global_link(incidence.link_id)
        pair_global[incidence.pair_index[rows]] = True
    return RouteSummary(
        used_links=len(incidence.used_links()),
        pair_hops=counts.astype(np.min_scalar_type(top)),
        pair_global=pair_global,
    )
