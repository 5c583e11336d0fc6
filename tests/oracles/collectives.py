"""Per-event collective expansion: the columnar engines' oracles.

The collective layer as first written, one caller record at a time:

- :func:`expand_collective` is the paper's flat §4.4 expansion of one
  record into :class:`SendGroup` fan-outs;
- :func:`expand_event` dispatches one record through an engine, reading
  the same cached :class:`~repro.collectives.schedules.Schedule` the
  engine's batch path reads (:func:`expand_event_from_schedule`) and
  falling back to flat where the engine's ``_schedule`` returns ``None``;
- :func:`iter_send_groups` walks ``trace.events`` and yields one group per
  p2p send and one or more per collective record, and :func:`add_group`
  adds a group to a :class:`~repro.comm.matrix.CommMatrixBuilder`, so a
  matrix can be rebuilt without the block path;
- :func:`expand_collective_tree` is the binomial engine's oracle, the
  collective ablation with Python loops per record:

  - rooted fan-out (bcast/scatter): the root's subtree halves each round;
    the message count drops from N to N - 1, but the volume moves off the
    root's links;
  - rooted fan-in (reduce/gather): the mirror image;
  - allreduce: recursive doubling, each rank exchanging with
    ``rank XOR 2**k`` per round, log2(N) rounds;
  - allgather: recursive doubling with doubling payloads;
  - alltoall, reduce_scatter and scan keep the flat schedule.

  Ranks are numbered in a root-rotated *virtual* numbering, so any root
  works; non-power-of-two sizes fold the remainder in before recursive
  doubling and unfold it after.

``tests/test_collective_engines.py`` pins every engine's ``expand_batch``
to :func:`expand_event`, and the binomial engine to
:func:`expand_collective_tree`, as message multisets;
``tests/test_columnar_equivalence.py`` pins ``matrix_from_trace`` to
matrices rebuilt through :func:`iter_send_groups`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.collectives.base import CollectiveAlgorithm, ScheduleAlgorithm
from repro.collectives.patterns import check_root, even_split
from repro.collectives.registry import get_algorithm
from repro.collectives.schedules import (
    Schedule,
    _binomial_children,
    _binomial_parent,
    _rd_holdings,
    _subtree_size,
)
from repro.collectives.translate import TrafficClass
from repro.comm.matrix import CommMatrixBuilder
from repro.core.communicator import Communicator
from repro.core.events import ROOTED_OPS, CollectiveEvent, CollectiveOp, P2PEvent
from repro.core.packets import packets_for_bytes_array
from repro.core.trace import Trace


@dataclass(frozen=True)
class SendGroup:
    """A fan-out of identical-shape messages from one source rank.

    ``src`` sends ``calls`` messages of ``bytes_per_msg[i]`` bytes to each
    destination ``dsts[i]``.  Destinations and byte counts are parallel
    arrays so uneven splits stay exact.  All ranks are **global** rank IDs.
    """

    src: int
    dsts: np.ndarray  # int64[k]
    bytes_per_msg: np.ndarray  # int64[k]
    calls: int = 1

    def __post_init__(self) -> None:
        if self.dsts.shape != self.bytes_per_msg.shape:
            raise ValueError("dsts and bytes_per_msg must be parallel arrays")
        if self.calls < 1:
            raise ValueError("calls must be >= 1")

    @property
    def total_bytes(self) -> int:
        """Bytes injected across all destinations and calls."""
        return int(self.bytes_per_msg.sum()) * self.calls

    @property
    def num_messages(self) -> int:
        return len(self.dsts) * self.calls


def _uniform(src: int, dsts: np.ndarray, nbytes: int, calls: int) -> SendGroup:
    return SendGroup(
        src=src,
        dsts=dsts.astype(np.int64, copy=False),
        bytes_per_msg=np.full(len(dsts), nbytes, dtype=np.int64),
        calls=calls,
    )


def expand_collective(
    event: CollectiveEvent, comm: Communicator, element_size: int
) -> list[SendGroup]:
    """Expand one caller's collective record into its injected messages.

    Parameters
    ----------
    event:
        The collective record (caller is a **global** rank).
    comm:
        The communicator the record references.
    element_size:
        Byte size of one element of ``event.dtype``.

    Returns
    -------
    list[SendGroup]
        Zero or more fan-outs; empty when this caller sends nothing (e.g.
        a non-root rank in a broadcast, or any rank in a barrier).
    """
    n = comm.size
    check_root(event.op, comm, event.root)
    if n == 1:
        return []  # single-member communicator moves nothing on the network
    local = comm.to_local(event.caller)
    nbytes = event.count * element_size
    calls = event.repeat
    op = event.op

    if op is CollectiveOp.BARRIER:
        return []

    if op is CollectiveOp.BCAST:
        if local != event.root:
            return []
        members = np.asarray(comm.members, dtype=np.int64)
        return [_uniform(event.caller, members, nbytes, calls)]

    if op in (CollectiveOp.REDUCE, CollectiveOp.GATHER, CollectiveOp.GATHERV):
        # ALL ranks send to the root, the root included (paper: "a gather
        # call is performed by all ranks sending a p2p message to the root").
        root_global = comm.to_global(event.root)
        return [
            _uniform(event.caller, np.array([root_global]), nbytes, calls)
        ]

    if op is CollectiveOp.ALLREDUCE:
        # Flat reduce-to-root plus broadcast-from-root, rooted at local rank
        # 0, self-messages included on both phases (paper convention).
        groups: list[SendGroup] = []
        root_global = comm.to_global(0)
        groups.append(_uniform(event.caller, np.array([root_global]), nbytes, calls))
        if local == 0:
            members = np.asarray(comm.members, dtype=np.int64)
            groups.append(_uniform(event.caller, members, nbytes, calls))
        return groups

    if op in (CollectiveOp.SCATTER, CollectiveOp.SCATTERV):
        if local != event.root:
            return []
        members = np.asarray(comm.members, dtype=np.int64)
        if op is CollectiveOp.SCATTER:
            return [_uniform(event.caller, members, nbytes, calls)]
        # Scatterv: count is the total at root; split evenly over all n
        # members (paper §4.4), the root's own share included as a
        # zero-hop self-message.
        shares = even_split(nbytes, n)
        return [SendGroup(event.caller, members, shares, calls)]

    if op in (CollectiveOp.ALLGATHER, CollectiveOp.ALLGATHERV):
        # Caller's contribution goes to every member, itself included.  For
        # the vector form the even split already happened when count was
        # recorded.
        members = np.asarray(comm.members, dtype=np.int64)
        return [_uniform(event.caller, members, nbytes, calls)]

    if op is CollectiveOp.ALLTOALL:
        members = np.asarray(comm.members, dtype=np.int64)
        return [_uniform(event.caller, members, nbytes, calls)]

    if op is CollectiveOp.ALLTOALLV:
        # count is the caller's total send volume; split evenly across all n
        # members, the self share travelling zero hops.
        shares = even_split(nbytes, n)
        members = np.asarray(comm.members, dtype=np.int64)
        return [SendGroup(event.caller, members, shares, calls)]

    if op is CollectiveOp.REDUCE_SCATTER:
        # Rank i's block destined for rank j travels directly i -> j: each
        # caller sends a 1/n slice of its input vector to every member (its
        # own slice being a zero-hop self-message).
        shares = even_split(nbytes, n)
        members = np.asarray(comm.members, dtype=np.int64)
        return [SendGroup(event.caller, members, shares, calls)]

    if op in (CollectiveOp.SCAN, CollectiveOp.EXSCAN):
        # Linear chain: partial results flow from local rank i to i+1.
        if local == n - 1:
            return []
        nxt = comm.to_global(local + 1)
        return [_uniform(event.caller, np.array([nxt]), nbytes, calls)]

    raise NotImplementedError(f"no p2p expansion defined for {op}")


def expand_event_from_schedule(
    sched: Schedule, comm: Communicator, event: CollectiveEvent, element_size: int
) -> list[SendGroup]:
    """Per-event form: the caller's schedule rows as :class:`SendGroup`\\ s."""
    local = comm.to_local(event.caller)
    lo, hi = int(sched.starts[local]), int(sched.starts[local + 1])
    if lo == hi:
        return []
    nbytes = event.count * element_size
    shares = even_split(nbytes, sched.n) if sched.share_idx.size else None
    members = comm.members
    groups = []
    i = lo
    while i < hi:
        j = i
        while j < hi and sched.src[j] == sched.src[i]:
            j += 1
        sizes = []
        for r in range(i, j):
            b = nbytes * int(sched.mult[r])
            s0, s1 = int(sched.share_starts[r]), int(sched.share_starts[r + 1])
            if s1 > s0:
                b += int(shares[sched.share_idx[s0:s1]].sum())
            sizes.append(b)
        groups.append(
            SendGroup(
                src=int(members[sched.src[i]]),
                dsts=np.array(
                    [members[d] for d in sched.dst[i:j]], dtype=np.int64
                ),
                bytes_per_msg=np.array(sizes, dtype=np.int64),
                calls=event.repeat,
            )
        )
        i = j
    return groups


def expand_event(
    engine: CollectiveAlgorithm,
    event: CollectiveEvent,
    comm: Communicator,
    element_size: int,
) -> list[SendGroup]:
    """One caller's record through ``engine``, one record at a time."""
    if not isinstance(engine, ScheduleAlgorithm):
        return expand_collective(event, comm, element_size)
    check_root(event.op, comm, event.root)
    if comm.size == 1:
        return []
    root = event.root if event.op in ROOTED_OPS else 0
    sched = engine._schedule(event.op, comm.size, root)
    if sched is None:
        return expand_collective(event, comm, element_size)
    return expand_event_from_schedule(sched, comm, event, element_size)


@dataclass(frozen=True)
class ClassifiedSends:
    """A :class:`SendGroup` plus the traffic class it came from."""

    group: SendGroup
    traffic_class: TrafficClass


def iter_send_groups(
    trace: Trace,
    include_p2p: bool = True,
    include_collectives: bool = True,
    collective: str | CollectiveAlgorithm = "flat",
) -> Iterator[ClassifiedSends]:
    """Yield every injected message fan-out of a trace, one group per event.

    Point-to-point send records become single-destination groups; collective
    records are expanded through :func:`expand_event` with the
    ``collective`` engine (default the paper's flat patterns).  RECV records
    are skipped (traffic is accounted on the send side).
    """
    assert trace.communicators is not None
    engine = get_algorithm(collective)
    size_of = trace.datatypes.size_of
    if include_p2p:
        # Gather all p2p send fields up front: one bulk array pair instead
        # of a length-1 allocation per event (the groups below are views).
        sends = [
            ev
            for ev in trace.events
            if isinstance(ev, P2PEvent) and ev.is_send
        ]
        all_dsts = np.fromiter(
            (ev.peer for ev in sends), dtype=np.int64, count=len(sends)
        )
        all_bytes = np.fromiter(
            (ev.bytes_per_call(size_of(ev.dtype)) for ev in sends),
            dtype=np.int64,
            count=len(sends),
        )
        pos = 0
    for ev in trace.events:
        if isinstance(ev, P2PEvent):
            if not include_p2p or not ev.is_send:
                continue
            group = SendGroup(
                src=ev.caller,
                dsts=all_dsts[pos : pos + 1],
                bytes_per_msg=all_bytes[pos : pos + 1],
                calls=ev.repeat,
            )
            pos += 1
            yield ClassifiedSends(group, TrafficClass.P2P)
        elif isinstance(ev, CollectiveEvent):
            if not include_collectives:
                continue
            comm = trace.communicators.get(ev.comm)
            elem = size_of(ev.dtype)
            for group in expand_event(engine, ev, comm, elem):
                yield ClassifiedSends(group, TrafficClass.COLLECTIVE)


def add_group(builder: CommMatrixBuilder, group: SendGroup) -> None:
    """Add one fan-out: ``calls`` messages of ``bytes_per_msg[i]`` to ``dsts[i]``."""
    k = len(group.dsts)
    if k == 0:
        return
    calls = group.calls
    pkts_per_msg = packets_for_bytes_array(group.bytes_per_msg, builder.payload)
    builder.add_arrays(
        np.full(k, group.src, dtype=np.int64),
        group.dsts,
        group.bytes_per_msg * calls,
        np.full(k, calls, dtype=np.int64),
        pkts_per_msg * calls,
    )


def _vrank(local: int, root: int, n: int) -> int:
    """Root-rotated virtual rank (vrank of the root is 0)."""
    return (local - root) % n


def _from_vrank(vrank: int, root: int, n: int) -> int:
    return (vrank + root) % n


def expand_collective_tree(
    event: CollectiveEvent, comm: Communicator, element_size: int
) -> list[SendGroup]:
    """Expand one caller's collective record with log-depth schedules.

    Falls back to the flat expansion for operations whose direct schedule is
    already the practical algorithm (alltoall family, scan chains,
    reduce_scatter slices).
    """
    n = comm.size
    check_root(event.op, comm, event.root)
    if n == 1:
        return []
    local = comm.to_local(event.caller)
    nbytes = event.count * element_size
    calls = event.repeat
    op = event.op

    def group(dsts: list[int], sizes: list[int]) -> SendGroup:
        return SendGroup(
            src=event.caller,
            dsts=np.array([comm.to_global(d) for d in dsts], dtype=np.int64),
            bytes_per_msg=np.array(sizes, dtype=np.int64),
            calls=calls,
        )

    if op in (CollectiveOp.BCAST, CollectiveOp.SCATTER, CollectiveOp.SCATTERV):
        v = _vrank(local, event.root, n)
        children = _binomial_children(v, n)
        if not children:
            return []
        if op is CollectiveOp.BCAST:
            sizes = [nbytes] * len(children)
        elif op is CollectiveOp.SCATTER:
            # scatter forwards each child its whole subtree's worth of data
            # (count is per-destination, so the forward is exact)
            sizes = [
                nbytes * min(_subtree_size(child, n), n - child)
                for child in children
            ]
        else:
            # Scatterv: count is the total at root, split evenly over all n
            # members.  Each child's forward carries the exact sum of its
            # subtree's even_split shares — shares are indexed by *local*
            # rank, so rotate each subtree vrank back through the root.
            shares = even_split(nbytes, n)
            sizes = []
            for child in children:
                span = range(child, min(child + _subtree_size(child, n), n))
                sizes.append(
                    int(sum(shares[_from_vrank(u, event.root, n)] for u in span))
                )
        dsts = [_from_vrank(c, event.root, n) for c in children]
        return [group(dsts, sizes)]

    if op in (CollectiveOp.REDUCE, CollectiveOp.GATHER, CollectiveOp.GATHERV):
        v = _vrank(local, event.root, n)
        if v == 0:
            return []
        if op is CollectiveOp.GATHERV:
            # Gatherv contributions are heterogeneous, so no subtree-size
            # multiple of the caller's own count is exact.  Instead the
            # caller's record carries its contribution along every edge of
            # its root path (store-and-forward); the union over all callers
            # reproduces each tree edge's exact aggregate.
            groups = []
            u = v
            while u != 0:
                parent = _binomial_parent(u)
                groups.append(
                    SendGroup(
                        src=comm.to_global(_from_vrank(u, event.root, n)),
                        dsts=np.array(
                            [comm.to_global(_from_vrank(parent, event.root, n))],
                            dtype=np.int64,
                        ),
                        bytes_per_msg=np.array([nbytes], dtype=np.int64),
                        calls=calls,
                    )
                )
                u = parent
            return groups
        parent = _from_vrank(_binomial_parent(v), event.root, n)
        if op is CollectiveOp.REDUCE:
            size = nbytes
        else:
            size = nbytes * min(_subtree_size(v, n), n - v)
        return [group([parent], [size])]

    if op is CollectiveOp.ALLREDUCE:
        # recursive doubling: log2(n) pairwise exchanges of the full vector
        groups: list[SendGroup] = []
        pow2 = 1 << (n.bit_length() - 1)
        if pow2 != n and local >= pow2:
            # fold the remainder into the lower power-of-two block
            groups.append(group([local - pow2], [nbytes]))
            return groups
        k = 1
        while k < pow2:
            partner = local ^ k
            if partner < pow2:
                groups.append(group([partner], [nbytes]))
            k <<= 1
        if local < n - pow2:
            # unfold: send the result back to the folded remainder rank
            groups.append(group([local + pow2], [nbytes]))
        return groups

    if op in (CollectiveOp.ALLGATHER, CollectiveOp.ALLGATHERV):
        # Recursive doubling with doubling payloads.  A non-power-of-two
        # remainder folds its contribution in first, so exchange sizes track
        # the *actual* holdings per rank (for a power of two the holdings at
        # round k are exactly k, the textbook doubling).
        groups = []
        pow2 = 1 << (n.bit_length() - 1)
        if local >= pow2:
            return [group([local - pow2], [nbytes])]
        holdings = _rd_holdings(n)
        k = 1
        rnd = 0
        while k < pow2:
            partner = local ^ k
            groups.append(group([partner], [nbytes * int(holdings[rnd][local])]))
            k <<= 1
            rnd += 1
        if local + pow2 < n:
            groups.append(group([local + pow2], [nbytes * n]))
        return groups

    # alltoall(v), reduce_scatter, scan, barrier: direct schedule is standard
    return expand_collective(event, comm, element_size)
