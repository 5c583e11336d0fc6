"""EventBlock columnar storage: round trips, validation, and trace views."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import (
    KIND_COLLECTIVE,
    KIND_P2P_SEND,
    OP_CODE,
    OPS,
    EventBlock,
)
from repro.core.communicator import CommunicatorTable
from repro.core.events import CollectiveEvent, CollectiveOp, Direction, P2PEvent
from repro.core.trace import Trace, TraceMetadata

from helpers import make_trace


def _random_events(rng: np.random.Generator, n: int, num_ranks: int = 16):
    """A mixed stream of p2p and collective records."""
    events = []
    for _ in range(n):
        caller = int(rng.integers(num_ranks))
        if rng.random() < 0.5:
            direction = Direction.SEND if rng.random() < 0.8 else Direction.RECV
            func = "MPI_Isend" if direction is Direction.SEND else "MPI_Irecv"
            events.append(
                P2PEvent(
                    caller=caller,
                    peer=int(rng.integers(num_ranks)),
                    count=int(rng.integers(1, 10_000)),
                    dtype=str(rng.choice(["MPI_BYTE", "MPI_DOUBLE", "MPI_INT"])),
                    direction=direction,
                    tag=int(rng.integers(100)),
                    repeat=int(rng.integers(1, 5)),
                    func=func,
                    t_enter=float(rng.random()),
                    t_leave=float(rng.random()) + 1.0,
                )
            )
        else:
            op = OPS[int(rng.integers(len(OPS)))]
            events.append(
                CollectiveEvent(
                    caller=caller,
                    op=op,
                    count=0 if op is CollectiveOp.BARRIER else int(rng.integers(1, 5000)),
                    dtype=str(rng.choice(["MPI_BYTE", "MPI_DOUBLE"])),
                    root=int(rng.integers(num_ranks)),
                    repeat=int(rng.integers(1, 4)),
                )
            )
    return events


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60))
    def test_events_to_block_to_events_is_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        events = _random_events(rng, n)
        assert EventBlock.from_events(events).to_events() == events

    def test_empty_block(self):
        block = EventBlock.from_events([])
        assert len(block) == 0
        assert block.to_events() == []
        assert block.num_calls == 0

    def test_trace_events_view_of_native_blocks(self):
        rng = np.random.default_rng(7)
        events = _random_events(rng, 40)
        block = EventBlock.from_events(events)
        meta = TraceMetadata(app="X", num_ranks=16, execution_time=1.0)
        trace = Trace.from_blocks(meta, [block])
        assert trace.events == events
        assert len(trace) == len(events)
        assert trace.blocks()[0] is block

    def test_trace_blocks_view_of_event_list(self):
        rng = np.random.default_rng(8)
        events = _random_events(rng, 30)
        trace = make_trace(16)
        for ev in events:
            trace.add(ev)
        assert len(trace) == len(events)
        assert trace.num_calls == sum(ev.repeat for ev in events)
        blocks = trace.blocks()
        assert len(blocks) == 1
        assert blocks[0].to_events() == events

    def test_traces_compare_equal_across_storage(self):
        rng = np.random.default_rng(9)
        events = _random_events(rng, 25)
        by_events = make_trace(16)
        for ev in events:
            by_events.add(ev)
        by_blocks = Trace.from_blocks(
            by_events.meta, [EventBlock.from_events(events)]
        )
        assert by_events == by_blocks

    def test_add_after_blocks_invalidates_columnar_view(self):
        trace = make_trace(4)
        trace.add(P2PEvent(caller=0, peer=1, count=10, dtype="MPI_BYTE"))
        first = trace.blocks()
        assert len(first[0]) == 1
        trace.add(P2PEvent(caller=1, peer=2, count=20, dtype="MPI_BYTE"))
        assert len(trace.blocks()[0]) == 2

    def test_interned_tables_are_first_seen_order(self):
        events = [
            P2PEvent(caller=0, peer=1, count=1, dtype="MPI_DOUBLE"),
            P2PEvent(caller=1, peer=2, count=1, dtype="MPI_BYTE"),
            P2PEvent(caller=2, peer=3, count=1, dtype="MPI_DOUBLE"),
        ]
        block = EventBlock.from_events(events)
        assert block.dtype_names == ("MPI_DOUBLE", "MPI_BYTE")
        assert block.dtype_id.tolist() == [0, 1, 0]

    def test_op_codes_cover_all_collectives(self):
        assert len(OP_CODE) == len(OPS)
        for op in CollectiveOp:
            assert OPS[OP_CODE[op]] is op


class TestValidation:
    def _world_block(self, **overrides):
        base = dict(
            kind=[KIND_P2P_SEND],
            caller=[0],
            peer=[1],
            count=[10],
            dtype_id=[0],
            op=[-1],
            root=[0],
            comm_id=[0],
            tag=[0],
            func_id=[-1],
            repeat=[1],
            t_enter=[0.0],
            t_leave=[0.0],
        )
        base.update(overrides)
        return EventBlock(**base)

    def test_caller_out_of_range_rejected(self):
        block = self._world_block(caller=[9])
        with pytest.raises(ValueError, match="out of range"):
            block.check(4, CommunicatorTable.for_world(4))

    def test_negative_peer_on_p2p_rejected(self):
        block = self._world_block(peer=[-1])
        with pytest.raises(ValueError, match="non-negative"):
            block.check(4, CommunicatorTable.for_world(4))

    def test_negative_count_rejected(self):
        block = self._world_block(count=[-5])
        with pytest.raises(ValueError, match="count must be non-negative"):
            block.check(4, CommunicatorTable.for_world(4))

    def test_zero_repeat_rejected(self):
        block = self._world_block(repeat=[0])
        with pytest.raises(ValueError, match="repeat must be >= 1"):
            block.check(4, CommunicatorTable.for_world(4))

    def test_barrier_with_payload_rejected(self):
        block = self._world_block(
            kind=[KIND_COLLECTIVE],
            peer=[-1],
            op=[OP_CODE[CollectiveOp.BARRIER]],
            func_id=[-1],
            count=[3],
        )
        with pytest.raises(ValueError, match="MPI_Barrier carries no payload"):
            block.check(4, CommunicatorTable.for_world(4))

    def test_unknown_communicator_rejected(self):
        block = self._world_block(comm_names=("comm_sub",))
        with pytest.raises(ValueError, match="unknown communicator"):
            block.check(4, CommunicatorTable.for_world(4))

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            self._world_block(caller=[0, 1])

    def test_valid_block_passes(self):
        self._world_block().check(4, CommunicatorTable.for_world(4))
