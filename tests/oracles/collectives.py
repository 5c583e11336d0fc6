"""Per-event binomial/recursive-doubling expansion: the binomial engine's oracle.

The collective ablation as first written: one caller record in, its
:class:`~repro.collectives.patterns.SendGroup` list out, built with
Python loops per record.

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
doubling and unfold it after.  :class:`repro.collectives.BinomialCollective`
precomputes the same schedules as cached arrays, and
``tests/test_collective_engines.py`` pins its message multiset to this
function's.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.patterns import SendGroup, check_root, even_split, expand_collective
from repro.collectives.schedules import (
    _binomial_children,
    _binomial_parent,
    _rd_holdings,
    _subtree_size,
)
from repro.core.communicator import Communicator
from repro.core.events import CollectiveEvent, CollectiveOp


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
