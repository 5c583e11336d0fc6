"""CSR-encoded happens-before DAG with Kahn-order cycle detection.

Nodes are the repeat-expanded trace events, plus one *completion* node per
collective event.  The split matters for rooted two-phase collectives: an
ALLREDUCE's fan-in edges must all arrive before its fan-out edges depart,
which a single node per event cannot express without a 2-cycle between
the root and every member.  With the split, fan-in arrives at the root's
completion node and the fan-out departs from it, so the reduce and
broadcast phases chain — and the graph stays acyclic by construction for
any trace whose matching is consistent.

Edge families:

- **program order** (:data:`EDGE_PROGRAM`): each rank's events chained in
  trace order (the end node of event i to the start node of event i+1),
  plus the internal start→completion edge of every collective event.
- **p2p messages** (:data:`EDGE_P2P`): matched send→recv pairs from
  :func:`repro.critpath.match.match_events`.
- **collective messages** (:data:`EDGE_COLLECTIVE`): per-instance
  fan-in/fan-out edges from the collective→p2p translation.

The DAG stores a flat edge list plus a flat level schedule (Kahn levels
with pre-gathered predecessor-edge spans) that the longest-path DP
replays once per cost vector — so a finite-difference sensitivity check
pays for the schedule once, not per evaluation.  Node and edge indexes
are ``int32`` whenever the graph fits (it always does in the registry;
the largest DAG, BigFFT@1024, has 33.6 M edges), and the CSR indexes the
schedule is built from are freed as soon as it exists.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from ..core.blocks import KIND_COLLECTIVE
from .match import ensure_receives, expand_events, iter_collective_edges, match_events

__all__ = [
    "EDGE_PROGRAM",
    "EDGE_P2P",
    "EDGE_COLLECTIVE",
    "CycleError",
    "HappensBeforeDag",
    "LevelSchedule",
    "build_dag",
]

EDGE_PROGRAM = 0
EDGE_P2P = 1
EDGE_COLLECTIVE = 2


class CycleError(ValueError):
    """The happens-before graph is not a DAG (Kahn elimination stalled)."""


def index_dtype(size: int) -> type:
    """``int32`` when every index below ``size`` fits in it, else ``int64``."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


@dataclass
class LevelSchedule:
    """Kahn levels stored flat, as CSR-of-levels.

    ``order`` lists the nodes level by level, ascending within a level;
    level i is ``order[level_ptr[i]:level_ptr[i+1]]``.  ``pred_eidx``
    concatenates the incoming edge IDs of the nodes in ``order``, each
    node's span in predecessor-CSR order; level i owns
    ``pred_eidx[edge_ptr[i]:edge_ptr[i+1]]``.  ``starts``/``counts`` are
    parallel to ``order``: a node's group offset within its level's edge
    slice and its in-degree.  Every node past level 0 has at least one
    predecessor, so ``np.maximum.reduceat`` over a level's groups is
    always well-formed.
    """

    order: np.ndarray  # int32/int64[num_nodes] (see index_dtype)
    level_ptr: np.ndarray  # int64[num_levels + 1]
    edge_ptr: np.ndarray  # int64[num_levels + 1]
    pred_eidx: np.ndarray  # int32/int64[num_edges]
    starts: np.ndarray  # int32/int64[num_nodes]
    counts: np.ndarray  # int32/int64[num_nodes]

    @property
    def num_levels(self) -> int:
        return len(self.level_ptr) - 1

    @property
    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.order,
                self.level_ptr,
                self.edge_ptr,
                self.pred_eidx,
                self.starts,
                self.counts,
            )
        )


@dataclass
class HappensBeforeDag:
    """A happens-before DAG over repeat-expanded trace events.

    Nodes ``0..num_events-1`` are the expanded events in trace order;
    nodes ``num_events..num_nodes-1`` are the completion nodes of the
    collective events (``completion_of`` maps event -> completion node, -1
    for p2p events).  ``node_rank[v]`` is the MPI rank that executes node
    ``v``.  Edge arrays are parallel; ``edge_bytes`` is 0 on program-order
    edges.  ``edge_src``/``edge_dst`` are ``index_dtype(num_nodes)``.
    """

    num_nodes: int
    num_events: int
    num_ranks: int
    node_rank: np.ndarray  # int64[num_nodes]
    completion_of: np.ndarray  # int64[num_events], -1 for p2p events
    edge_src: np.ndarray  # int32/int64[E]
    edge_dst: np.ndarray  # int32/int64[E]
    edge_bytes: np.ndarray  # int64[E]
    edge_kind: np.ndarray  # uint8[E]
    _schedule: LevelSchedule | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def message_mask(self) -> np.ndarray:
        return self.edge_kind != EDGE_PROGRAM

    @property
    def num_message_edges(self) -> int:
        return int(np.count_nonzero(self.message_mask()))

    @property
    def nbytes(self) -> int:
        """Bytes of every array the DAG holds, its schedule included."""
        total = sum(
            a.nbytes
            for a in (
                self.node_rank,
                self.completion_of,
                self.edge_src,
                self.edge_dst,
                self.edge_bytes,
                self.edge_kind,
            )
        )
        if self._schedule is not None:
            total += self._schedule.nbytes
        return total

    def _csr(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(keys, kind="stable").astype(
            index_dtype(self.num_edges), copy=False
        )
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=self.num_nodes), out=indptr[1:])
        return indptr, order

    def pred_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, edge-id order) of incoming edges, grouped by dst node."""
        return self._csr(self.edge_dst)

    def succ_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, edge-id order) of outgoing edges, grouped by src node."""
        return self._csr(self.edge_src)

    def level_schedule(self) -> LevelSchedule:
        """Kahn level decomposition; raises :class:`CycleError` on a cycle.

        One sequential Kahn pass over the successor CSR assigns
        ``level[v] = 1 + max(level of preds)``, the frontier index at which
        ``v`` becomes ready.  Counters and levels are Python lists; the
        successor targets are read through a memoryview and the ready
        queue is an ``array``, so neither holds one int object per edge or
        node.  The nodes are then grouped once: a stable argsort by level,
        and one gather of every predecessor span.  The schedule is built
        once and kept; the CSR indexes it is built from are not, and the
        predecessor CSR is sorted only after the successor one is freed,
        so at most one edge-sized sort is alive at a time.
        """
        if self._schedule is not None:
            return self._schedule
        succ_indptr, succ_order = self.succ_csr()
        succ_ptr = succ_indptr.tolist()
        succ_dst = memoryview(self.edge_dst[succ_order])
        del succ_indptr, succ_order
        indeg_arr = np.bincount(self.edge_dst, minlength=self.num_nodes)
        indeg = indeg_arr.tolist()
        level = [0] * self.num_nodes
        ready = array("q", np.flatnonzero(indeg_arr == 0).tolist())
        for v in ready:  # grows while iterated: a FIFO without pops
            lv = level[v] + 1
            for w in succ_dst[succ_ptr[v] : succ_ptr[v + 1]]:
                if level[w] < lv:
                    level[w] = lv
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
        del succ_dst, succ_ptr
        if len(ready) < self.num_nodes:
            stuck = np.flatnonzero(np.asarray(indeg) > 0)[:5]
            raise CycleError(
                f"happens-before graph contains a cycle: "
                f"{self.num_nodes - len(ready)} of {self.num_nodes} nodes "
                f"never become ready under Kahn elimination "
                f"(e.g. nodes {stuck.tolist()})"
            )
        del indeg, ready
        pred_indptr, pred_order = self.pred_csr()
        node_dtype = index_dtype(self.num_nodes)
        edge_dtype = index_dtype(self.num_edges)
        level_arr = np.asarray(level, dtype=np.int64)
        del level
        order = np.argsort(level_arr, kind="stable").astype(node_dtype)
        level_ptr = np.concatenate(([0], np.cumsum(np.bincount(level_arr))))
        counts = indeg_arr[order].astype(edge_dtype)
        node_ptr = np.concatenate(([0], np.cumsum(counts)))
        first = node_ptr[:-1]
        gather = np.repeat((pred_indptr[order] - first).astype(edge_dtype), counts)
        gather += np.arange(len(gather), dtype=edge_dtype)
        pred_eidx = pred_order[gather]
        del gather, pred_order
        edge_ptr = node_ptr[level_ptr]
        starts = first - np.repeat(edge_ptr[:-1], np.diff(level_ptr))
        self._schedule = LevelSchedule(
            order=order,
            level_ptr=level_ptr,
            edge_ptr=edge_ptr,
            pred_eidx=pred_eidx,
            starts=starts.astype(edge_dtype),
            counts=counts,
        )
        return self._schedule

    def assert_acyclic(self) -> None:
        """Raise :class:`CycleError` if the graph has a cycle."""
        self.level_schedule()


def build_dag(
    trace, max_repeat: int | None = None, collective: str = "flat"
) -> HappensBeforeDag:
    """Build the happens-before DAG of a trace.

    ``max_repeat`` is the deterministic iteration-truncation knob passed
    through to :func:`expand_events` (``None`` = exact expansion).
    ``collective`` selects the collective-algorithm engine whose message
    edges (and phase structure) the DAG encodes — tree schedules change
    the happens-before shape, not just the byte weights.  The trace's
    receive side is synthesized when absent (:func:`ensure_receives`), so
    any send-only synthetic trace works directly.
    """
    trace = ensure_receives(trace)
    table = expand_events(trace, max_repeat)
    n = len(table)
    coll = np.flatnonzero(table.kind == KIND_COLLECTIVE)
    ncoll = len(coll)
    completion = np.full(n, -1, dtype=np.int64)
    completion[coll] = n + np.arange(ncoll, dtype=np.int64)
    num_nodes = n + ncoll
    node_dtype = index_dtype(num_nodes)
    node_rank = np.concatenate([table.rank, table.rank[coll]])
    # The node where an event's local work ends: its completion node for
    # collectives, the event itself for p2p records.
    end_node = np.where(completion >= 0, completion, np.arange(n, dtype=np.int64))

    matched = match_events(table)
    # Program order first, then p2p messages, then collective messages.
    edges = _EdgeColumns(node_dtype, ncoll + n + len(matched))
    if ncoll:
        edges.append(coll, completion[coll], None, EDGE_PROGRAM)
    if n:
        order = np.argsort(table.rank, kind="stable")
        same = table.rank[order][1:] == table.rank[order][:-1]
        edges.append(end_node[order[:-1][same]], order[1:][same], None, EDGE_PROGRAM)
        del order, same
    edges.append(matched.send_event, matched.recv_event, matched.nbytes, EDGE_P2P)
    del matched
    for csrc, cdst, cbytes, after in iter_collective_edges(
        table, trace.communicators, collective=collective
    ):
        src_nodes = np.where(after, completion[csrc], csrc)
        edges.append(src_nodes, completion[cdst], cbytes, EDGE_COLLECTIVE)
    del table, end_node
    return HappensBeforeDag(
        num_nodes=num_nodes,
        num_events=n,
        num_ranks=trace.meta.num_ranks,
        node_rank=node_rank,
        completion_of=completion,
        **edges.finish(),
    )


class _EdgeColumns:
    """The DAG's four edge columns, appended to in place.

    The columns grow by ``realloc`` (:meth:`numpy.ndarray.resize`), which
    remaps a large allocation rather than copying it, so the edges are
    never held twice the way concatenating a list of parts holds them.
    Growth overshoots by at most a quarter; :meth:`finish` trims it.
    """

    def __init__(self, node_dtype: type, capacity: int) -> None:
        self.size = 0
        self.columns = {
            "edge_src": np.empty(capacity, dtype=node_dtype),
            "edge_dst": np.empty(capacity, dtype=node_dtype),
            "edge_bytes": np.zeros(capacity, dtype=np.int64),  # 0: program order
            "edge_kind": np.empty(capacity, dtype=np.uint8),
        }

    def append(self, src, dst, nbytes, kind: int) -> None:
        start, end = self.size, self.size + len(src)
        capacity = len(self.columns["edge_src"])
        if end > capacity:
            for column in self.columns.values():
                # No views of the columns exist; resize zero-fills growth.
                column.resize(max(end, capacity + capacity // 4), refcheck=False)
        self.columns["edge_src"][start:end] = src
        self.columns["edge_dst"][start:end] = dst
        if nbytes is not None:
            self.columns["edge_bytes"][start:end] = nbytes
        self.columns["edge_kind"][start:end] = kind
        self.size = end

    def finish(self) -> dict[str, np.ndarray]:
        for column in self.columns.values():
            column.resize(self.size, refcheck=False)
        return self.columns
