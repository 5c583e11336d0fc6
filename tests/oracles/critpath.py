"""Critical-path oracles: a per-event matcher, the per-frontier level
schedule and a per-node DP.

:func:`match_events_oracle` is FIFO matching written as per-channel
queues filled one event at a time.  :func:`frontier_level_schedule` is the
level schedule as it was built before the flat layout: one NumPy round per
Kahn frontier (``np.unique`` over the frontier's out-edges plus two CSR
span gathers), returning four per-level lists.
:func:`longest_path_reference` is the longest-path DP written node by node
in plain Python floats, with the L-count tie-break spelled out as a
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import KIND_P2P_RECV, KIND_P2P_SEND
from repro.critpath.dag import CycleError, HappensBeforeDag
from repro.critpath.match import EventTable, MatchError, MatchResult


def match_events_oracle(table: EventTable) -> MatchResult:
    """Per-event reference matcher: one channel queue at a time.

    Walks the expanded event stream one record at a time, appending each
    send and recv to its channel's queue, then pairs queues positionally in
    sorted channel order — the textbook statement of the non-overtaking
    rule.  Kept deliberately scalar as the semantic oracle the vectorized
    matcher is pinned against (``tests/test_critpath.py`` requires
    bit-identical pair arrays; ``benchmarks/test_oracle_speedup.py`` a
    >=5x vectorized speedup).
    """
    channels: dict[tuple[int, int, int, int], tuple[list[int], list[int]]] = {}
    rank, kind, peer = table.rank, table.kind, table.peer
    comm, tag = table.comm, table.tag
    for e in range(len(table)):
        k = kind[e]
        if k == KIND_P2P_SEND:
            key = (int(rank[e]), int(peer[e]), int(comm[e]), int(tag[e]))
            channels.setdefault(key, ([], []))[0].append(e)
        elif k == KIND_P2P_RECV:
            key = (int(peer[e]), int(rank[e]), int(comm[e]), int(tag[e]))
            channels.setdefault(key, ([], []))[1].append(e)
    sends: list[int] = []
    recvs: list[int] = []
    for key in sorted(channels):
        s, r = channels[key]
        if len(s) != len(r):
            src, dst, c, t = key
            raise MatchError(
                f"unmatched point-to-point traffic on 1 channel(s): "
                f"(src={src}, dst={dst}, comm={table.comm_names[c]!r}, "
                f"tag={t}): {len(s)} send(s) vs {len(r)} recv(s)"
            )
        sends.extend(s)
        recvs.extend(r)
    send_event = np.array(sends, dtype=np.int64)
    recv_event = np.array(recvs, dtype=np.int64)
    return MatchResult(send_event, recv_event, table.nbytes[send_event])


@dataclass
class FrontierSchedule:
    """Kahn frontiers with per-level predecessor-edge spans.

    ``levels[i]`` are the nodes that become ready at level i (ascending);
    ``pred_eidx[i]`` concatenates their incoming edge IDs in CSR order and
    ``starts[i]``/``counts[i]`` delimit the per-node groups.
    """

    levels: list[np.ndarray]
    pred_eidx: list[np.ndarray]
    starts: list[np.ndarray]
    counts: list[np.ndarray]

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def _span_gather(
    indptr: np.ndarray, order: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate CSR spans of ``nodes``: (edge ids, group starts, counts)."""
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])) if len(counts) else counts
    if total == 0:
        return np.empty(0, dtype=np.int64), starts, counts
    idx = np.repeat(indptr[nodes] - starts, counts) + np.arange(
        total, dtype=np.int64
    )
    return order[idx], starts, counts


def frontier_level_schedule(dag: HappensBeforeDag) -> FrontierSchedule:
    """Kahn level decomposition, one frontier at a time.

    Raises :class:`CycleError` with the production message on a cycle.
    """
    pred_indptr, pred_order = dag.pred_csr()
    succ_indptr, succ_order = dag.succ_csr()
    indeg = np.diff(pred_indptr).astype(np.int64)
    frontier = np.flatnonzero(indeg == 0)
    levels: list[np.ndarray] = []
    pred_eidx: list[np.ndarray] = []
    starts_l: list[np.ndarray] = []
    counts_l: list[np.ndarray] = []
    processed = 0
    while frontier.size:
        processed += frontier.size
        eidx, starts, counts = _span_gather(pred_indptr, pred_order, frontier)
        levels.append(frontier)
        pred_eidx.append(eidx)
        starts_l.append(starts)
        counts_l.append(counts)
        out_eidx, _, _ = _span_gather(succ_indptr, succ_order, frontier)
        if out_eidx.size == 0:
            break
        dsts = dag.edge_dst[out_eidx]
        uniq, cnt = np.unique(dsts, return_counts=True)
        indeg[uniq] -= cnt
        frontier = uniq[indeg[uniq] == 0]
    if processed < dag.num_nodes:
        stuck = np.flatnonzero(indeg > 0)[:5]
        raise CycleError(
            f"happens-before graph contains a cycle: "
            f"{dag.num_nodes - processed} of {dag.num_nodes} nodes "
            f"never become ready under Kahn elimination "
            f"(e.g. nodes {stuck.tolist()})"
        )
    return FrontierSchedule(levels, pred_eidx, starts_l, counts_l)


def longest_path_reference(
    dag: HappensBeforeDag, cost: np.ndarray, lterm: np.ndarray
) -> tuple[float, int]:
    """(makespan, L terms) of the longest path, one node at a time.

    Nodes are visited in the oracle's frontier order; each node takes the
    best of its incoming edges in CSR order, where a candidate wins if it
    is strictly longer, or bit-equal in length with more L terms.
    """
    if dag.num_nodes == 0:
        return 0.0, 0
    pred_indptr, pred_order = (a.tolist() for a in dag.pred_csr())
    edge_src = dag.edge_src.tolist()
    cost_l = cost.tolist()
    lterm_l = [int(x) for x in lterm.tolist()]
    dist = [0.0] * dag.num_nodes
    lcnt = [0] * dag.num_nodes
    for level in frontier_level_schedule(dag).levels[1:]:
        for v in level.tolist():
            best = None
            best_l = 0
            for e in pred_order[pred_indptr[v] : pred_indptr[v + 1]]:
                u = edge_src[e]
                cand = dist[u] + cost_l[e]
                cand_l = lcnt[u] + lterm_l[e]
                if best is None or cand > best or (cand == best and cand_l > best_l):
                    best, best_l = cand, cand_l
            dist[v] = best
            lcnt[v] = best_l
    makespan = max(dist)
    l_terms = max(c for d, c in zip(dist, lcnt) if d == makespan)
    return makespan, l_terms
