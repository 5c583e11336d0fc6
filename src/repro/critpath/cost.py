"""Parameterized LogGP cost model over happens-before edges.

Every message edge costs ``o + L + hops*hop_s + (k-1)*G + o`` — the LogGP
send overhead, wire latency, a per-hop term taken from the *routing
policy's actual walk lengths* (so topology, mapping, and routing all feed
the critical path), the per-byte gap for a k-byte payload, and the
receive overhead.  Program-order edges cost the issue gap ``g``.

The default parameters are **dyadic** (exact binary fractions).  Edge
costs are then integer multiples of ``2**-33`` s, path sums stay exactly
representable in float64 far beyond any realistic trace, and the
longest-path DP is exact arithmetic: the finite-difference sensitivity in
:mod:`repro.critpath.analyze` reproduces the algebraic L-term count to
the last bit rather than to rounding noise.  Custom parameters work too;
the cross-check then holds to the documented 1% tolerance instead of
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dag import EDGE_PROGRAM, HappensBeforeDag
from .match import EDGE_CHUNK

__all__ = [
    "LogGPParams",
    "DEFAULT_PARAMS",
    "message_edge_hops",
    "edge_costs",
]


@dataclass(frozen=True)
class LogGPParams:
    """LogGP parameters, in seconds (and seconds/byte, seconds/hop).

    Defaults are dyadic floats near the usual HPC ballpark: L ~ 1.9 us,
    o ~ 0.95 us, g ~ 0.48 us, G = 2**-33 s/B (~8.6 GB/s, the dyadic
    neighbour of the repo's 12 GB/s link bandwidth), hop ~ 60 ns.
    """

    latency_s: float = 2.0**-19  # L: wire latency per message
    overhead_s: float = 2.0**-20  # o: CPU overhead per send and per recv
    gap_s: float = 2.0**-21  # g: issue gap between successive calls
    gap_per_byte_s: float = 2.0**-33  # G: per-byte gap ((k-1)*G per message)
    hop_s: float = 2.0**-24  # per traversed link, from the routing walks

    def __post_init__(self) -> None:
        if self.latency_s <= 0:
            raise ValueError("latency_s must be positive")
        for name in ("overhead_s", "gap_s", "gap_per_byte_s", "hop_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def with_latency(self, latency_s: float) -> "LogGPParams":
        """The same parameter set at a different wire latency."""
        return replace(self, latency_s=latency_s)


DEFAULT_PARAMS = LogGPParams()


def message_edge_hops(
    dag: HappensBeforeDag,
    topology,
    mapping,
    routing="minimal",
    routing_seed: int = 0,
) -> np.ndarray:
    """Per-edge hop counts under a placement and routing policy.

    Returns ``int64[num_edges]``: the number of links the routing policy's
    walk traverses between the endpoint nodes of each message edge (0 for
    program-order edges and co-located endpoints).  Walk lengths come from
    the summary of the policy's route incidence — the routes the load and
    telemetry layers walk — via the content-keyed summary cache, so
    critical-path costs and link loads always agree on the route taken.
    """
    from ..cache import cached_route_summary

    if mapping.num_ranks < dag.num_ranks:
        raise ValueError(
            f"mapping covers {mapping.num_ranks} ranks but the trace has "
            f"{dag.num_ranks}"
        )
    hops = np.zeros(dag.num_edges, dtype=np.int64)
    msg = dag.message_mask()
    if not msg.any():
        return hops
    midx = np.flatnonzero(msg)
    src_nodes = mapping.nodes[dag.node_rank[dag.edge_src[midx]]]
    dst_nodes = mapping.nodes[dag.node_rank[dag.edge_dst[midx]]]
    crossing = src_nodes != dst_nodes
    if not crossing.any():
        return hops
    codes = src_nodes[crossing] * np.int64(topology.num_nodes) + dst_nodes[crossing]
    uniq, inverse = np.unique(codes, return_inverse=True)
    usrc = uniq // topology.num_nodes
    udst = uniq % topology.num_nodes
    routes = cached_route_summary(
        topology, usrc, udst, routing=routing, seed=routing_seed
    )
    hops[midx[crossing]] = routes.pair_hops[inverse]
    return hops


def edge_costs(
    dag: HappensBeforeDag,
    params: LogGPParams = DEFAULT_PARAMS,
    hops: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge (cost seconds, L-term count) vectors.

    ``hops`` is the per-edge hop vector from :func:`message_edge_hops`
    (``None`` models a zero-diameter network).  Each message edge carries
    exactly one L term — the fact the algebraic sensitivity counts — so
    the counts are the ``uint8`` view of the message mask.  Costs are
    computed :data:`~repro.critpath.match.EDGE_CHUNK` edges at a time, so
    the temporaries stay chunk-sized: 9 bytes per edge in all.
    """
    cost = np.full(dag.num_edges, params.gap_s, dtype=np.float64)
    msg = dag.edge_kind != EDGE_PROGRAM
    base = 2.0 * params.overhead_s + params.latency_s
    for c0 in range(0, dag.num_edges, EDGE_CHUNK):
        chunk = slice(c0, c0 + EDGE_CHUNK)
        m = msg[chunk]
        if not m.any():
            continue
        nbytes = dag.edge_bytes[chunk][m]
        msg_cost = base + np.maximum(nbytes - 1, 0) * params.gap_per_byte_s
        if hops is not None:
            msg_cost += hops[chunk][m] * params.hop_s
        cost[chunk][m] = msg_cost
    return cost, msg.view(np.uint8)
