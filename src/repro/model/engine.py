"""Static network analysis engine (paper §4.2, §6.2–6.3).

Combines a traffic matrix (collectives already flattened), a topology, and a
rank→node mapping into the paper's system-level metrics:

- **packet hops** (Eq. 3): every message is split into 4 kB packets; each
  packet contributes the hop count of its pair's shortest route.
- **average hops per packet** (Eq. 4): packet hops over *all* packets.
  Packets between co-located ranks (or a collective's root sending to
  itself) count in the denominator with zero hops — the paper's convention,
  visible in Table 3 rows like BigFFT@9 on the single-switch fat tree
  averaging 2·(N−1)/N = 1.78 rather than 2.0.
- **network utilization** (Eq. 5): data volume over ``BW · t · links``, with
  only links that actually transmit data counted (deterministic routes of
  all inter-node pairs).  The default wire volume is the **raw payload
  bytes** — Eq. 5's ``datavolume`` verbatim; this is the only convention
  consistent across the paper's small-message workloads (Nekbone's packet
  counts imply ~4-byte messages whose padded volume would exceed the
  published utilizations a thousandfold) and its large-message ones (for
  BigFFT raw and padded coincide).  ``volume_mode="padded"`` charges a full
  4 kB slot per packet instead.

The model is non-temporal: no congestion, no flow interaction, full
bandwidth assumed per message — identical to the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .. import timings
from ..cache import (
    cached_network_analysis,
    cached_node_pairs,
    cached_route_summary,
    model_key,
    provenance,
)

# Not called here: perfbench's traced run wraps this module's binding by
# name, and fails if it is missing.
from ..cache import cached_route_incidence  # noqa: F401
from ..comm.matrix import CommMatrix
from ..core.blocks import stored_dtype
from ..core.packets import MAX_PAYLOAD_BYTES
from ..mapping.base import Mapping
from ..routing import RoutingPolicy, get_policy
from ..topology.base import Topology

__all__ = ["BANDWIDTH_BYTES_PER_S", "NetworkAnalysis", "analyze_network"]

#: Link bandwidth assumed by the paper: 12 GB/s.
BANDWIDTH_BYTES_PER_S = 12e9


@dataclass(frozen=True)
class NetworkAnalysis:
    """System-level metrics of one (traffic, topology, mapping) combination."""

    topology_kind: str
    num_ranks: int
    packet_hops: int
    total_packets: int
    network_bytes: int
    wire_bytes: int
    used_links: int
    nominal_links: float
    execution_time: float
    bandwidth: float
    global_link_packet_share: float | None = None
    routing: str = "minimal"

    @property
    def avg_hops(self) -> float:
        """Eq. 4 — mean hops per packet (zero-hop packets included)."""
        return self.packet_hops / self.total_packets if self.total_packets else 0.0

    @property
    def utilization(self) -> float:
        """Eq. 5 over *used* links, in [0, ...] (1.0 = fully busy links)."""
        denom = self.bandwidth * self.execution_time * self.used_links
        return self.wire_bytes / denom if denom else 0.0

    @property
    def utilization_percent(self) -> float:
        return 100.0 * self.utilization


def _node_pair_aggregate(
    matrix: CommMatrix, mapping: Mapping
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate rank-pair traffic onto node pairs.

    Returns parallel arrays ``(src_node, dst_node, nbytes, packets)`` with
    unique node pairs (self-pairs included; they carry the zero-hop packets).
    When the node-pair keys are already strictly increasing (the consecutive
    one-rank-per-node mapping of a sorted matrix), every pair is its own run
    and the matrix's own ``nbytes``/``packets`` arrays are returned — and
    its own ``src``/``dst`` too when the mapping is the identity on the
    matrix's ranks, so a cached aggregate holds no array of its own:
    callers must not write into the result.  Node IDs the aggregate holds
    itself take the smallest unsigned dtype for the node count
    (:data:`repro.core.blocks.CACHED_COLUMNS`); sums are ``int64``.
    """
    n = matrix.num_ranks
    nodes = mapping.nodes
    identity = len(nodes) >= n and np.array_equal(nodes[:n], np.arange(n))
    if identity:
        src_nodes, dst_nodes = matrix.src, matrix.dst
    else:
        src_nodes = mapping.node_of(matrix.src)
        dst_nodes = mapping.node_of(matrix.dst)
    # Widened first: narrow node IDs times the node count would wrap.
    key = src_nodes.astype(np.int64) * mapping.num_nodes + dst_nodes
    node_t = stored_dtype("pairs", "src_node", mapping.num_nodes)
    if not len(key):
        empty = np.zeros(0, dtype=np.int64)
        return empty.astype(node_t), empty.astype(node_t), empty, empty.copy()
    if np.all(key[1:] > key[:-1]):
        if not identity:
            src_nodes, dst_nodes = src_nodes.astype(node_t), dst_nodes.astype(node_t)
        return src_nodes, dst_nodes, matrix.nbytes, matrix.packets
    # Grouped sums over sorted runs (bincount-style aggregation) instead of
    # np.unique + np.add.at: scatter-add is ~10x slower at these shapes, and
    # reduceat keeps the accumulation in exact int64 (bincount's float64
    # weights would silently round sums past 2**53; the matrix's narrow
    # packet counts would wrap in their own dtype).
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    run_start = np.empty(len(sorted_key), dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    unique_keys = sorted_key[starts]
    nbytes = np.add.reduceat(matrix.nbytes[order], starts, dtype=np.int64)
    packets = np.add.reduceat(matrix.packets[order], starts, dtype=np.int64)
    return (
        (unique_keys // mapping.num_nodes).astype(node_t),
        (unique_keys % mapping.num_nodes).astype(node_t),
        nbytes,
        packets,
    )


def analyze_network(
    matrix: CommMatrix,
    topology: Topology,
    mapping: Mapping | None = None,
    execution_time: float = 1.0,
    bandwidth: float = BANDWIDTH_BYTES_PER_S,
    volume_mode: str = "raw",
    payload: int = MAX_PAYLOAD_BYTES,
    routing: str = "minimal",
    routing_seed: int = 0,
) -> NetworkAnalysis:
    """Run the full static analysis for one topology.

    Parameters
    ----------
    matrix:
        Traffic matrix *including* flattened collectives for paper-faithful
        results (build with :func:`repro.comm.matrix_from_trace`).
    mapping:
        Defaults to the paper's consecutive one-rank-per-node mapping.
    execution_time:
        Traced wall time (``trace.meta.execution_time``), the ``t`` of Eq. 5.
    volume_mode:
        ``"raw"`` — payload bytes, Eq. 5's ``datavolume`` (default);
        ``"padded"`` — every packet charges a full ``payload`` slot.
    routing:
        :mod:`repro.routing` policy name (``routing_seed`` feeds its rng).
        The default ``"minimal"`` reproduces the paper's deterministic
        shortest-path numbers exactly; non-minimal policies change hop
        counts, used links, and the dragonfly global-link share.

    Everything but Eq. 5's denominator is independent of ``execution_time``
    and ``bandwidth``, so a repeated query is answered from the ``model``
    region of :mod:`repro.cache` (:func:`repro.cache.model_key`) with
    only those two fields replaced.
    """
    if volume_mode not in ("padded", "raw"):
        raise ValueError(f"volume_mode must be 'padded' or 'raw', got {volume_mode!r}")
    if execution_time <= 0:
        raise ValueError("execution_time must be positive")
    if mapping is None:
        mapping = Mapping.consecutive(matrix.num_ranks, topology.num_nodes)
    if mapping.num_nodes != topology.num_nodes:
        raise ValueError(
            f"mapping targets {mapping.num_nodes} nodes, topology has "
            f"{topology.num_nodes}"
        )

    policy = get_policy(routing, seed=routing_seed)
    key = model_key(matrix, mapping, topology, policy, volume_mode, payload)
    return cached_network_analysis(
        partial(
            _analyze, matrix, topology, mapping, policy, execution_time,
            bandwidth, volume_mode, payload,
        ),
        key,
        execution_time,
        bandwidth,
    )


def _analyze(
    matrix: CommMatrix,
    topology: Topology,
    mapping: Mapping,
    policy: RoutingPolicy,
    execution_time: float,
    bandwidth: float,
    volume_mode: str,
    payload: int,
) -> NetworkAnalysis:
    """The uncached body of :func:`analyze_network`."""
    with timings.stage("analysis"):
        src_n, dst_n, nbytes, packets = cached_node_pairs(matrix, mapping)

        total_packets = int(packets.sum())
        # Self pairs carry zero-hop packets, so only crossing pairs are routed.
        crossing = src_n != dst_n
        crossing_packets = packets[crossing]
        crossing_bytes = nbytes[crossing]
        network_bytes = int(crossing_bytes.sum())
        if volume_mode == "padded":
            wire_bytes = int(crossing_packets.sum()) * payload
        else:
            wire_bytes = network_bytes

        matrix_key = provenance(matrix)
        mapping_key = provenance(mapping)
        content_token = (
            (matrix_key, mapping_key)
            if matrix_key is not None and mapping_key is not None
            else None
        )
        routes = cached_route_summary(
            topology,
            src_n[crossing],
            dst_n[crossing],
            routing=policy,
            pair_weights=crossing_bytes,
            content_token=content_token,
        )
        packet_hops = int(
            np.multiply(crossing_packets, routes.pair_hops, dtype=np.int64).sum()
        )
        global_share: float | None = None
        if routes.pair_global is not None:
            packets_on_global = int(crossing_packets[routes.pair_global].sum())
            global_share = (
                packets_on_global / total_packets if total_packets else 0.0
            )

    return NetworkAnalysis(
        topology_kind=topology.kind,
        num_ranks=matrix.num_ranks,
        packet_hops=packet_hops,
        total_packets=total_packets,
        network_bytes=network_bytes,
        wire_bytes=wire_bytes,
        used_links=routes.used_links,
        nominal_links=topology.nominal_links(mapping.num_used_nodes),
        execution_time=execution_time,
        bandwidth=bandwidth,
        global_link_packet_share=global_share,
        routing=policy.name,
    )
