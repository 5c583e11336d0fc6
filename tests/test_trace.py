"""Unit tests for the trace container."""

import numpy as np
import pytest

from repro.apps import generate_trace
from repro.comm.matrix import matrix_from_trace
from repro.comm.stats import trace_stats
from repro.core.communicator import Communicator
from repro.core.events import CollectiveEvent, CollectiveOp, Direction, P2PEvent
from repro.core.stream import ROW_BYTES, BlockStream
from repro.core.trace import Trace, TraceMetadata

from helpers import make_trace


class TestTraceMetadata:
    def test_label(self):
        meta = TraceMetadata("LULESH", 64, 1.0)
        assert meta.label == "LULESH@64"
        meta_v = TraceMetadata("LULESH", 64, 1.0, variant="b")
        assert meta_v.label == "LULESH@64/b"

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceMetadata("X", 0, 1.0)
        with pytest.raises(ValueError):
            TraceMetadata("X", 4, 0.0)


class TestTrace:
    def test_add_and_iterate(self, ring_trace):
        assert len(ring_trace) == 4
        assert ring_trace.num_calls == 4
        assert len(list(ring_trace)) == 4

    def test_repeat_counts_in_num_calls(self):
        trace = make_trace(2)
        trace.add(P2PEvent(caller=0, peer=1, count=1, dtype="MPI_BYTE", repeat=10))
        assert trace.num_calls == 10

    def test_out_of_range_caller_rejected(self):
        trace = make_trace(2)
        with pytest.raises(ValueError, match="caller"):
            trace.add(P2PEvent(caller=2, peer=0, count=1, dtype="MPI_BYTE"))

    def test_out_of_range_peer_rejected(self):
        trace = make_trace(2)
        with pytest.raises(ValueError, match="peer"):
            trace.add(P2PEvent(caller=0, peer=5, count=1, dtype="MPI_BYTE"))

    def test_unknown_communicator_rejected(self):
        trace = make_trace(2)
        with pytest.raises(ValueError, match="communicator"):
            trace.add(
                P2PEvent(caller=0, peer=1, count=1, dtype="MPI_BYTE", comm="NOPE")
            )

    def test_p2p_bytes_skips_recvs_and_collectives(self):
        trace = make_trace(2)
        trace.add(P2PEvent(caller=0, peer=1, count=3, dtype="MPI_BYTE"))
        trace.add(
            P2PEvent(
                caller=1, peer=0, count=5, dtype="MPI_BYTE",
                direction=Direction.RECV, func="MPI_Recv",
            )
        )
        trace.add(CollectiveEvent(caller=0, op=CollectiveOp.BARRIER))
        sends = [
            ev for ev in trace.events if isinstance(ev, P2PEvent) and ev.is_send
        ]
        collectives = [ev for ev in trace.events if isinstance(ev, CollectiveEvent)]
        assert len(sends) == 1 and len(collectives) == 1
        assert trace.p2p_bytes() == 3

    def test_p2p_bytes_uses_datatype_size(self):
        trace = make_trace(2)
        trace.add(P2PEvent(caller=0, peer=1, count=10, dtype="MPI_DOUBLE", repeat=2))
        assert trace.p2p_bytes() == 160

    def test_p2p_bytes_opaque_derived_convention(self):
        trace = make_trace(2)
        trace.add(P2PEvent(caller=0, peer=1, count=10, dtype="MYSTERY_T"))
        assert trace.p2p_bytes() == 10  # 1 byte per element

    def test_active_ranks(self, mixed_trace):
        assert mixed_trace.active_ranks() == {0, 1, 2, 3}

    def test_global_communicator_criterion(self):
        trace = make_trace(4)
        assert trace.uses_only_global_communicators
        assert trace.communicators is not None
        trace.communicators.add(Communicator("SUB", (1, 3)))
        assert not trace.uses_only_global_communicators

    def test_extend(self):
        trace = make_trace(3)
        trace.extend(
            P2PEvent(caller=r, peer=(r + 1) % 3, count=1, dtype="MPI_BYTE")
            for r in range(3)
        )
        assert len(trace) == 3


def _storage_copies(trace: Trace) -> dict[str, Trace]:
    """One trace's records in three storages sharing its tables."""
    return {
        "native": trace,
        "events": Trace(
            trace.meta, trace.datatypes, trace.communicators, events=trace.events
        ),
        "rechunked": BlockStream.from_trace(trace).rechunk(97 * ROW_BYTES).to_trace(),
    }


class TestStorageIndependence:
    """Every summary and consumer sees records, never how they are stored."""

    @pytest.mark.parametrize("storage", ["events", "rechunked"])
    @pytest.mark.parametrize(
        "app,ranks",
        # MOCFE uses derived datatypes (one-byte convention, paper §4.3)
        [("AMG", 27), ("CMC_2D", 64), ("MOCFE", 64)],
    )
    def test_results_bit_identical_across_storage(self, app, ranks, storage):
        copies = _storage_copies(generate_trace(app, ranks))
        native, other = copies["native"], copies[storage]
        if storage == "rechunked":
            assert len(other.blocks()) > len(native.blocks())
        else:
            assert len(other.blocks()) == 1
        assert other == native and native == other
        assert len(other) == len(native)
        assert other.num_calls == native.num_calls
        assert other.p2p_bytes() == native.p2p_bytes()
        assert other.active_ranks() == native.active_ranks()
        assert trace_stats(other) == trace_stats(native)
        for include_collectives in (True, False):
            a = matrix_from_trace(other, include_collectives=include_collectives)
            b = matrix_from_trace(native, include_collectives=include_collectives)
            for col in ("src", "dst", "nbytes", "messages", "packets"):
                assert np.array_equal(getattr(a, col), getattr(b, col)), col

    def test_equality_sees_record_changes(self):
        native = generate_trace("CMC_2D", 64)
        events = list(native.events)
        events[-1] = CollectiveEvent(
            caller=events[-1].caller, op=CollectiveOp.BARRIER,
            t_enter=events[-1].t_enter, t_leave=events[-1].t_leave,
        )
        changed = Trace(
            native.meta, native.datatypes, native.communicators, events=events
        )
        assert changed != native
