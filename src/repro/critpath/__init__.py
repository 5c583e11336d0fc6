"""Critical-path / latency-tolerance engine.

Every other analysis in the repo is volume-based: traffic matrices count
bytes, locality metrics rank hop distances, and trace timestamps feed only
the Eq. 5 utilization metric.  This package adds the *temporal* axis that
LLAMP-style analyses need: a happens-before dependency DAG over the
repeat-expanded trace events, a parameterized LogGP cost model whose
per-hop term comes from the routing policy's walk lengths, and a
Kahn-order longest-path pass that yields per-app critical paths and
network-latency sensitivities (dT/dL).

Layer map:

- :mod:`repro.critpath.match` — vectorized FIFO send/recv matching per
  (src, dst, comm, tag) channel over columnar EventBlocks, with
  repeat-compression expansion and collective instance alignment.
- :mod:`repro.critpath.dag` — CSR-encoded happens-before DAG
  (program-order + message edges) with Kahn cycle detection.
- :mod:`repro.critpath.cost` — the LogGP parameter set and per-edge cost
  vectors (L, o, g, G, plus hops x hop_s from the routing policy).
- :mod:`repro.critpath.analyze` — longest-path DP, algebraic vs
  finite-difference dT/dL, and the latency-tolerance table across the
  registry mini-apps.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analyze": (
        "DEFAULT_MAX_REPEAT", "CritPathAnalysis", "CriticalPath", "analyze_trace", "critical_path",
        "latency_sensitivity", "latency_table",
    ),
    ".cost": ("DEFAULT_PARAMS", "LogGPParams", "edge_costs", "message_edge_hops"),
    ".dag": (
        "EDGE_COLLECTIVE", "EDGE_P2P", "EDGE_PROGRAM", "CycleError", "HappensBeforeDag",
        "build_dag",
    ),
    ".match": (
        "ChannelAudit", "EventTable", "MatchError", "MatchResult", "channel_audit",
        "ensure_receives", "expand_events", "iter_collective_edges", "match_events",
    ),
})
