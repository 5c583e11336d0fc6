"""The binomial-tree engine.

Rooted operations use binomial trees (log-depth fan-out/fan-in); the
unrooted ones use recursive doubling.  Its schedules are pinned
message-multiset-identical to the per-event expansion it replaced
(``tests/oracles/collectives.py``) by
``tests/test_collective_engines.py::TestBinomialOracle``.
"""

from __future__ import annotations

from ..core.events import CollectiveOp
from .base import ScheduleAlgorithm
from .schedules import (
    binomial_fanin,
    binomial_fanout,
    binomial_gatherv_paths,
    rd_allgather,
    rd_allreduce,
)

__all__ = ["BinomialCollective"]


class BinomialCollective(ScheduleAlgorithm):
    """Binomial trees for rooted ops, recursive doubling for the rest."""

    name = "binomial"

    def _schedule(self, op, n, root):
        if op in (CollectiveOp.BCAST, CollectiveOp.SCATTER, CollectiveOp.SCATTERV):
            return binomial_fanout(op, n, root)
        if op in (CollectiveOp.REDUCE, CollectiveOp.GATHER):
            return binomial_fanin(op, n, root)
        if op is CollectiveOp.GATHERV:
            return binomial_gatherv_paths(n, root)
        if op is CollectiveOp.ALLREDUCE:
            return rd_allreduce(n)
        if op in (CollectiveOp.ALLGATHER, CollectiveOp.ALLGATHERV):
            return rd_allgather(n)
        return None
