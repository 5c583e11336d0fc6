"""Pluggable routing policies (see :mod:`repro.routing.base`).

The registry maps policy names to classes; :func:`get_policy` is the one
entry point the rest of the codebase uses::

    from repro.routing import get_policy
    inc = get_policy("valiant", seed=7).route_incidence(topology, src, dst)

``ROUTINGS`` lists every name, in the canonical order used by CLI choices,
sweep axes, and the routing benchmark.
"""

from __future__ import annotations

from .base import RoutingPolicy
from .dmodk import DModKRouting
from .ecmp import ECMPRouting
from .interference import InterferenceAwareRouting, victim_link_loads
from .minimal import MinimalRouting
from .summary import RouteSummary, summarize_routes
from .ugal import UGALRouting
from .valiant import ValiantRouting

__all__ = [
    "ROUTINGS",
    "RoutingPolicy",
    "MinimalRouting",
    "ECMPRouting",
    "ValiantRouting",
    "DModKRouting",
    "UGALRouting",
    "InterferenceAwareRouting",
    "victim_link_loads",
    "RouteSummary",
    "summarize_routes",
    "get_policy",
]

_POLICIES: dict[str, type[RoutingPolicy]] = {
    cls.name: cls
    for cls in (
        MinimalRouting,
        ECMPRouting,
        ValiantRouting,
        DModKRouting,
        UGALRouting,
        InterferenceAwareRouting,
    )
}

#: Canonical policy names (CLI choices, sweep axes, benchmarks).
ROUTINGS: tuple[str, ...] = tuple(_POLICIES)


def get_policy(routing: str | RoutingPolicy, seed: int = 0) -> RoutingPolicy:
    """Resolve a policy name (or pass an instance through).

    ``seed`` only matters for randomized policies; instances are returned
    as-is so callers can pre-configure one and hand it around.
    """
    if isinstance(routing, RoutingPolicy):
        return routing
    try:
        cls = _POLICIES[routing]
    except KeyError:
        known = ", ".join(ROUTINGS)
        raise ValueError(f"unknown routing policy {routing!r} (known: {known})")
    return cls(seed=seed)
