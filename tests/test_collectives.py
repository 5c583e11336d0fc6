"""Tests for the flat collective-to-p2p expansion (paper §4.4 conventions).

The conventions are spelled out on the per-event expansion in
``tests/oracles/collectives.py``; ``tests/test_collective_engines.py`` pins
every engine's batch path to it message for message.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.collectives.patterns import even_split
from repro.collectives.translate import TrafficClass, collective_volume
from repro.core.communicator import Communicator
from repro.core.events import CollectiveEvent, CollectiveOp, P2PEvent

from helpers import make_trace
from oracles.collectives import SendGroup, expand_collective, iter_send_groups

N = 8


def expand(op, caller, count=100, root=0, repeat=1, comm=None, elem=1):
    comm = comm or Communicator.world(N)
    ev = CollectiveEvent(caller=caller, op=op, count=count, root=root, repeat=repeat)
    return expand_collective(ev, comm, elem)


def total_messages(groups):
    return sum(g.num_messages for g in groups)


def union_bytes(groups):
    return sum(g.total_bytes for g in groups)


def all_pairs(groups):
    pairs = []
    for g in groups:
        for dst in g.dsts:
            pairs.append((g.src, int(dst)))
    return pairs


class TestEvenSplit:
    def test_conserves_total(self):
        assert even_split(10, 3).sum() == 10

    def test_as_even_as_possible(self):
        shares = even_split(10, 3)
        assert shares.max() - shares.min() <= 1

    def test_zero_total(self):
        assert even_split(0, 4).tolist() == [0, 0, 0, 0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            even_split(5, 0)
        with pytest.raises(ValueError):
            even_split(-1, 2)

    @given(st.integers(0, 10**9), st.integers(1, 1000))
    def test_property_conservation(self, total, parts):
        shares = even_split(total, parts)
        assert shares.sum() == total
        assert shares.max() - shares.min() <= 1


class TestBarrier:
    def test_no_messages(self):
        assert expand(CollectiveOp.BARRIER, caller=3, count=0) == []


class TestBcast:
    def test_root_sends_to_all_members_including_self(self):
        groups = expand(CollectiveOp.BCAST, caller=0, root=0)
        assert total_messages(groups) == N  # paper convention: self included
        assert (0, 0) in all_pairs(groups)

    def test_non_root_sends_nothing(self):
        assert expand(CollectiveOp.BCAST, caller=3, root=0) == []


class TestRootedGatherFamily:
    @pytest.mark.parametrize(
        "op", [CollectiveOp.REDUCE, CollectiveOp.GATHER, CollectiveOp.GATHERV]
    )
    def test_every_caller_sends_to_root(self, op):
        for caller in range(N):
            groups = expand(op, caller=caller, root=2)
            assert all_pairs(groups) == [(caller, 2)]

    def test_union_volume(self):
        # all N callers (root included) send `count` bytes to the root
        total = sum(
            union_bytes(expand(CollectiveOp.GATHER, caller=c, count=50, root=1))
            for c in range(N)
        )
        assert total == N * 50


class TestAllreduce:
    def test_reduce_plus_bcast_through_rank0(self):
        total = sum(
            union_bytes(expand(CollectiveOp.ALLREDUCE, caller=c, count=10))
            for c in range(N)
        )
        assert total == 2 * N * 10  # N to root, N from root

    def test_rank0_both_phases(self):
        pairs = all_pairs(expand(CollectiveOp.ALLREDUCE, caller=0, count=1))
        assert (0, 0) in pairs
        assert len(pairs) == 1 + N


class TestScatterFamily:
    def test_scatter_per_destination_count(self):
        groups = expand(CollectiveOp.SCATTER, caller=0, count=10, root=0)
        assert total_messages(groups) == N
        assert union_bytes(groups) == N * 10

    def test_scatterv_even_split_conserves_total(self):
        groups = expand(CollectiveOp.SCATTERV, caller=0, count=101, root=0)
        assert union_bytes(groups) == 101

    def test_non_root_silent(self):
        assert expand(CollectiveOp.SCATTER, caller=1, root=0) == []


class TestAllToAllFamily:
    def test_alltoall_full_fanout(self):
        groups = expand(CollectiveOp.ALLTOALL, caller=2, count=7)
        assert total_messages(groups) == N
        assert union_bytes(groups) == N * 7

    def test_alltoallv_split_conserves_callers_total(self):
        groups = expand(CollectiveOp.ALLTOALLV, caller=2, count=999)
        assert union_bytes(groups) == 999
        assert total_messages(groups) == N

    def test_allgather_fanout(self):
        groups = expand(CollectiveOp.ALLGATHER, caller=5, count=3)
        assert total_messages(groups) == N
        assert union_bytes(groups) == N * 3


class TestReduceScatter:
    def test_slices_conserve_input(self):
        groups = expand(CollectiveOp.REDUCE_SCATTER, caller=1, count=100)
        assert union_bytes(groups) == 100


class TestScan:
    def test_chain_structure(self):
        assert all_pairs(expand(CollectiveOp.SCAN, caller=3, count=5)) == [(3, 4)]
        assert expand(CollectiveOp.SCAN, caller=N - 1, count=5) == []

    def test_exscan_same_shape(self):
        assert all_pairs(expand(CollectiveOp.EXSCAN, caller=0, count=5)) == [(0, 1)]


class TestSubCommunicator:
    def test_expansion_uses_global_ranks(self):
        sub = Communicator("SUB", (1, 4, 6))
        ev = CollectiveEvent(caller=4, op=CollectiveOp.ALLGATHER, count=2, comm="SUB")
        groups = expand_collective(ev, sub, 1)
        dsts = sorted(int(d) for g in groups for d in g.dsts)
        assert dsts == [1, 4, 6]

    def test_single_member_comm_is_silent(self):
        solo = Communicator("SOLO", (3,))
        ev = CollectiveEvent(caller=3, op=CollectiveOp.ALLREDUCE, count=9, comm="SOLO")
        assert expand_collective(ev, solo, 1) == []

    def test_element_size_scales_bytes(self):
        groups = expand(CollectiveOp.ALLGATHER, caller=0, count=4, elem=8)
        assert union_bytes(groups) == N * 32


class TestTraceTranslation:
    def test_classification(self, mixed_trace):
        classes = {c.traffic_class for c in iter_send_groups(mixed_trace)}
        assert classes == {TrafficClass.P2P, TrafficClass.COLLECTIVE}

    def test_p2p_only_filter(self, mixed_trace):
        for c in iter_send_groups(mixed_trace, include_collectives=False):
            assert c.traffic_class is TrafficClass.P2P

    def test_collective_volume_allreduce(self):
        trace = make_trace(4)
        for r in range(4):
            trace.add(CollectiveEvent(caller=r, op=CollectiveOp.ALLREDUCE, count=10))
        assert collective_volume(trace) == 2 * 4 * 10

    def test_recv_records_inject_nothing(self):
        from repro.core.events import Direction

        trace = make_trace(2)
        trace.add(
            P2PEvent(
                caller=0, peer=1, count=100, dtype="MPI_BYTE",
                direction=Direction.RECV, func="MPI_Recv",
            )
        )
        assert list(iter_send_groups(trace)) == []

    def test_sendgroup_validation(self):
        with pytest.raises(ValueError):
            SendGroup(0, np.array([1, 2]), np.array([10]), calls=1)
        with pytest.raises(ValueError):
            SendGroup(0, np.array([1]), np.array([10]), calls=0)
