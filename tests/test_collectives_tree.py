"""Properties of the per-event tree expansion, the binomial engine's oracle."""

import math

import numpy as np
import pytest

from repro.core.communicator import Communicator
from repro.core.events import CollectiveEvent, CollectiveOp

from oracles.collectives import expand_collective, expand_collective_tree


def union(op, n, count=100, root=0):
    """All (src, dst, bytes) messages of one collective over all callers."""
    comm = Communicator.world(n)
    msgs = []
    for caller in range(n):
        ev = CollectiveEvent(caller=caller, op=op, count=count, root=root)
        for g in expand_collective_tree(ev, comm, 1):
            for dst, size in zip(g.dsts, g.bytes_per_msg):
                msgs.append((caller, int(dst), int(size)))
    return msgs


class TestBcastTree:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 7, 12])
    def test_message_count_is_n_minus_one(self, n):
        msgs = union(CollectiveOp.BCAST, n)
        assert len(msgs) == n - 1

    @pytest.mark.parametrize("n", [8, 16, 9])
    def test_every_rank_reached(self, n):
        msgs = union(CollectiveOp.BCAST, n)
        reached = {0}
        # simulate rounds: a message is valid once its source was reached
        pending = list(msgs)
        progress = True
        while pending and progress:
            progress = False
            for m in list(pending):
                if m[0] in reached:
                    reached.add(m[1])
                    pending.remove(m)
                    progress = True
        assert reached == set(range(n))

    def test_root_sends_log_n_messages(self):
        comm = Communicator.world(16)
        ev = CollectiveEvent(caller=0, op=CollectiveOp.BCAST, count=10, root=0)
        groups = expand_collective_tree(ev, comm, 1)
        assert sum(len(g.dsts) for g in groups) == 4  # log2(16)

    def test_nonzero_root(self):
        msgs = union(CollectiveOp.BCAST, 8, root=3)
        assert len(msgs) == 7
        assert all(src != dst for src, dst, _ in msgs)


class TestReduceGatherTree:
    @pytest.mark.parametrize("n", [4, 8, 11])
    def test_reduce_message_count(self, n):
        assert len(union(CollectiveOp.REDUCE, n)) == n - 1

    def test_reduce_root_receives_log_n(self):
        msgs = union(CollectiveOp.REDUCE, 16)
        to_root = [m for m in msgs if m[1] == 0]
        assert len(to_root) == 4

    def test_gather_volume_conserved(self):
        """Every rank's contribution reaches the root exactly once."""
        n, count = 8, 10
        msgs = union(CollectiveOp.GATHER, n, count=count)
        to_root = sum(size for _, dst, size in msgs if dst == 0)
        assert to_root == (n - 1) * count  # root's own share stays local


class TestAllreduceTree:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_power_of_two_recursive_doubling(self, n):
        msgs = union(CollectiveOp.ALLREDUCE, n)
        assert len(msgs) == n * int(math.log2(n))
        # partners are bit flips
        for src, dst, _ in msgs:
            assert bin(src ^ dst).count("1") == 1

    def test_non_power_of_two_folds(self):
        msgs = union(CollectiveOp.ALLREDUCE, 6)
        # ranks 4,5 fold into 0,1; then 4 ranks x log2(4) exchanges; unfold
        assert len(msgs) == 2 + 4 * 2 + 2

    def test_fewer_wire_bytes_than_flat_at_scale(self):
        """The ablation's point: the flat model's central root inflates
        volume versus recursive doubling... volumes are equal, but the flat
        pattern serializes through the root — compare max per-link style
        metrics instead of totals: here we check root in/out degree."""
        n = 32
        flat_msgs = []
        comm = Communicator.world(n)
        for caller in range(n):
            ev = CollectiveEvent(caller=caller, op=CollectiveOp.ALLREDUCE, count=1)
            for g in expand_collective(ev, comm, 1):
                for dst in g.dsts:
                    flat_msgs.append((caller, int(dst)))
        tree_msgs = [(s, d) for s, d, _ in union(CollectiveOp.ALLREDUCE, n, count=1)]
        flat_root_degree = sum(1 for s, d in flat_msgs if 0 in (s, d))
        tree_root_degree = sum(1 for s, d in tree_msgs if 0 in (s, d))
        assert tree_root_degree < flat_root_degree


class TestAllgatherTree:
    def test_power_of_two_volume(self):
        n, count = 8, 5
        msgs = union(CollectiveOp.ALLGATHER, n, count=count)
        # recursive doubling total: n * (n-1) * count bytes moved
        assert sum(size for _, _, size in msgs) == n * (n - 1) * count


class TestFallbacks:
    def test_alltoall_falls_back_to_flat(self):
        comm = Communicator.world(8)
        ev = CollectiveEvent(caller=0, op=CollectiveOp.ALLTOALL, count=10)
        flat = expand_collective(ev, comm, 1)
        tree = expand_collective_tree(ev, comm, 1)
        assert [g.total_bytes for g in tree] == [g.total_bytes for g in flat]

    def test_single_member(self):
        solo = Communicator("S", (2,))
        ev = CollectiveEvent(caller=2, op=CollectiveOp.BCAST, count=5, comm="S")
        assert expand_collective_tree(ev, solo, 1) == []
