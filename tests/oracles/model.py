"""Static-model oracles: route rows in, the paper's metrics out.

These are :func:`repro.model.engine.analyze_network` and
:func:`repro.critpath.cost.message_edge_hops` as they were written before
route summaries, uncached.  Under minimal routing the analysis takes hop
counts from the closed form ``Topology.hops_array`` and the dragonfly's
global-link share from ``Dragonfly.crosses_groups``; under any other
policy both come from the policy's route rows.  Edge hops are the
``bincount`` of the rows of each unique crossing node pair.
"""

from __future__ import annotations

import numpy as np

from repro.core.packets import MAX_PAYLOAD_BYTES
from repro.mapping.base import Mapping
from repro.model.engine import (
    BANDWIDTH_BYTES_PER_S,
    NetworkAnalysis,
    _node_pair_aggregate,
)
from repro.routing import get_policy
from repro.topology.dragonfly import Dragonfly


def analyze_network_reference(
    matrix,
    topology,
    mapping=None,
    execution_time: float = 1.0,
    bandwidth: float = BANDWIDTH_BYTES_PER_S,
    volume_mode: str = "raw",
    payload: int = MAX_PAYLOAD_BYTES,
    routing: str = "minimal",
    routing_seed: int = 0,
) -> NetworkAnalysis:
    if mapping is None:
        mapping = Mapping.consecutive(matrix.num_ranks, topology.num_nodes)
    policy = get_policy(routing, seed=routing_seed)
    src_n, dst_n, nbytes, packets = _node_pair_aggregate(matrix, mapping)

    total_packets = int(packets.sum())
    crossing = src_n != dst_n
    network_bytes = int(nbytes[crossing].sum())
    if volume_mode == "padded":
        wire_bytes = int(packets[crossing].sum()) * payload
    else:
        wire_bytes = network_bytes

    incidence = policy.route_incidence(
        topology, src_n[crossing], dst_n[crossing], pair_weights=nbytes[crossing]
    )
    used_links = len(np.unique(incidence.link_id))

    if policy.name == "minimal":
        hops = topology.hops_array(src_n, dst_n)
    else:
        hops = np.zeros(len(src_n), dtype=np.int64)
        hops[crossing] = np.bincount(
            incidence.pair_index, minlength=int(crossing.sum())
        )
    packet_hops = int((packets * hops).sum())

    global_share = None
    if isinstance(topology, Dragonfly):
        if policy.name == "minimal":
            crosses = topology.crosses_groups(src_n, dst_n)
            packets_on_global = int(packets[crosses].sum())
        else:
            uses_global = np.zeros(int(crossing.sum()), dtype=bool)
            global_rows = topology.is_global_link(incidence.link_id)
            uses_global[incidence.pair_index[global_rows]] = True
            packets_on_global = int(packets[crossing][uses_global].sum())
        global_share = packets_on_global / total_packets if total_packets else 0.0

    return NetworkAnalysis(
        topology_kind=topology.kind,
        num_ranks=matrix.num_ranks,
        packet_hops=packet_hops,
        total_packets=total_packets,
        network_bytes=network_bytes,
        wire_bytes=wire_bytes,
        used_links=used_links,
        nominal_links=topology.nominal_links(mapping.num_used_nodes),
        execution_time=execution_time,
        bandwidth=bandwidth,
        global_link_packet_share=global_share,
        routing=policy.name,
    )


def message_edge_hops_reference(
    dag, topology, mapping, routing="minimal", routing_seed: int = 0
) -> np.ndarray:
    hops = np.zeros(dag.num_edges, dtype=np.int64)
    midx = np.flatnonzero(dag.message_mask())
    src_nodes = mapping.nodes[dag.node_rank[dag.edge_src[midx]]]
    dst_nodes = mapping.nodes[dag.node_rank[dag.edge_dst[midx]]]
    crossing = src_nodes != dst_nodes
    if not crossing.any():
        return hops
    codes = src_nodes[crossing] * np.int64(topology.num_nodes) + dst_nodes[crossing]
    uniq, inverse = np.unique(codes, return_inverse=True)
    incidence = get_policy(routing, seed=routing_seed).route_incidence(
        topology, uniq // topology.num_nodes, uniq % topology.num_nodes
    )
    per_pair = np.bincount(incidence.pair_index, minlength=len(uniq))
    hops[midx[crossing]] = per_pair[inverse]
    return hops
