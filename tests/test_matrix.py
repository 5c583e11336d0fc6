"""Tests for the traffic-matrix builder and transforms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.matrix import CommMatrix, CommMatrixBuilder, matrix_from_trace
from repro.core.events import CollectiveEvent, CollectiveOp, P2PEvent

from helpers import make_matrix, make_trace


class TestBuilder:
    def test_single_message(self):
        m = make_matrix(4, [(0, 1, 1000)])
        assert m.num_pairs == 1
        assert m.total_bytes == 1000
        assert m.total_messages == 1
        assert m.total_packets == 1

    def test_duplicate_pairs_merge(self):
        m = make_matrix(4, [(0, 1, 100), (0, 1, 200)])
        assert m.num_pairs == 1
        assert m.total_bytes == 300
        assert m.total_messages == 2

    def test_packets_per_message_not_per_pair(self):
        # two 3000-byte messages need 2 packets (1 each), even though the
        # pair total of 6000 bytes would fit in 2 anyway; three 1500-byte
        # messages need 3 packets though their 4500-byte total fits in 2.
        b = CommMatrixBuilder(2)
        b.add_message(0, 1, 1500, calls=3)
        assert b.finalize().total_packets == 3

    def test_calls_multiply(self):
        b = CommMatrixBuilder(2)
        b.add_message(0, 1, 5000, calls=10)
        m = b.finalize()
        assert m.total_messages == 10
        assert m.total_bytes == 50000
        assert m.total_packets == 20  # 2 packets per 5000-byte message

    def test_sorted_by_pair(self):
        m = make_matrix(4, [(3, 1, 1), (0, 2, 1), (0, 1, 1)])
        keys = m.src * 4 + m.dst
        assert np.all(np.diff(keys) > 0)

    def test_out_of_range_rejected(self):
        b = CommMatrixBuilder(2)
        b.add_message(0, 1, 10)
        b.add_arrays(
            np.array([5]), np.array([0]), np.array([1]), np.array([1]), np.array([1])
        )
        with pytest.raises(ValueError):
            b.finalize()

    def test_empty(self):
        m = CommMatrixBuilder(4).finalize()
        assert m.num_pairs == 0
        assert m.total_bytes == 0


class TestViews:
    def test_dense(self):
        m = make_matrix(3, [(0, 1, 10), (2, 0, 5)])
        d = m.dense()
        assert d[0, 1] == 10 and d[2, 0] == 5 and d.sum() == 15

    def test_row(self):
        m = make_matrix(4, [(1, 0, 7), (1, 3, 9), (2, 0, 1)])
        dsts, nbytes = m.row(1)
        assert sorted(dsts.tolist()) == [0, 3]
        assert nbytes.sum() == 16

    @pytest.mark.parametrize("source", [-1, 4, 999])
    def test_row_rejects_rank_outside_matrix(self, source):
        m = make_matrix(4, [(1, 0, 7)])
        with pytest.raises(ValueError, match="out of range"):
            m.row(source)

    def test_marginals(self):
        m = make_matrix(3, [(0, 1, 10), (0, 2, 20), (1, 0, 5)])
        assert m.out_bytes_per_rank().tolist() == [30, 5, 0]
        assert m.in_bytes_per_rank().tolist() == [5, 10, 20]

    def test_partners_excludes_self(self):
        m = make_matrix(3, [(0, 0, 10), (0, 1, 10), (0, 2, 10)])
        assert m.partners_per_rank()[0] == 2


class TestTransforms:
    def test_remap_preserves_totals(self):
        m = make_matrix(4, [(0, 1, 10), (2, 3, 7)])
        perm = np.array([3, 2, 1, 0])
        r = m.remapped(perm)
        assert r.total_bytes == m.total_bytes
        assert r.dense()[3, 2] == 10
        assert r.dense()[1, 0] == 7

    def test_remap_requires_bijection(self):
        m = make_matrix(3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            m.remapped(np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            m.remapped(np.array([0, 1]))

class TestFromTrace:
    def test_p2p_only(self, mixed_trace):
        m = matrix_from_trace(mixed_trace, include_collectives=False)
        assert m.total_bytes == 3 * 5000 + 100 * 4

    def test_collectives_add_wire_volume(self, mixed_trace):
        full = matrix_from_trace(mixed_trace)
        p2p = matrix_from_trace(mixed_trace, include_collectives=False)
        assert full.total_bytes == p2p.total_bytes + 2 * 4 * 64

    def test_repeat_compression_equivalent_to_expansion(self):
        compact = make_trace(3)
        compact.add(P2PEvent(caller=0, peer=1, count=3000, dtype="MPI_BYTE", repeat=5))
        expanded = make_trace(3)
        for _ in range(5):
            expanded.add(P2PEvent(caller=0, peer=1, count=3000, dtype="MPI_BYTE"))
        mc = matrix_from_trace(compact)
        me = matrix_from_trace(expanded)
        assert mc.total_bytes == me.total_bytes
        assert mc.total_messages == me.total_messages
        assert mc.total_packets == me.total_packets

    def test_collective_only_filter(self):
        trace = make_trace(4)
        trace.add(P2PEvent(caller=0, peer=1, count=10, dtype="MPI_BYTE"))
        for r in range(4):
            trace.add(CollectiveEvent(caller=r, op=CollectiveOp.ALLGATHER, count=2))
        m = matrix_from_trace(trace, include_p2p=False)
        assert m.total_bytes == 4 * 4 * 2  # each caller to all members


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(0, 9), st.integers(0, 10**6),
            st.integers(1, 20),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_builder_totals_property(entries):
    """Totals equal the sums of whatever was added, regardless of merging."""
    builder = CommMatrixBuilder(10)
    expected_bytes = 0
    expected_msgs = 0
    for src, dst, nbytes, calls in entries:
        builder.add_message(src, dst, nbytes, calls)
        expected_bytes += nbytes * calls
        expected_msgs += calls
    m = builder.finalize()
    assert m.total_bytes == expected_bytes
    assert m.total_messages == expected_msgs
    assert m.total_packets >= expected_msgs  # every message >= 1 packet
    # pair keys unique
    keys = m.src * 10 + m.dst
    assert len(np.unique(keys)) == len(keys)
