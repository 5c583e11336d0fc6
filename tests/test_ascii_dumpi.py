"""Tests for the dumpi2ascii converter (real SST-dumpi text output)."""

import io
import textwrap

import pytest

from repro.comm.stats import trace_stats
from repro.dumpi.ascii_dumpi import (
    UndecodedCallError,
    UnsupportedCommunicatorError,
    load_dumpi2ascii_dir,
    parse_rank_stream,
    stream_dumpi2ascii_dir,
)

SEND = textwrap.dedent(
    """\
    MPI_Send entering at walltime 100.50, cputime 0.2 seconds in thread 0.
    int count=4096
    MPI_Datatype datatype=2 (MPI_CHAR)
    int dest=5
    int tag=7
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Send returning at walltime 100.60, cputime 0.3 seconds in thread 0.
    """
)

RECV = textwrap.dedent(
    """\
    MPI_Recv entering at walltime 101.00, cputime 0.4 seconds in thread 0.
    int count=128
    MPI_Datatype datatype=11 (MPI_DOUBLE)
    int source=2
    int tag=7
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Status* status=<IGNORED>
    MPI_Recv returning at walltime 101.10, cputime 0.5 seconds in thread 0.
    """
)

ALLREDUCE = textwrap.dedent(
    """\
    MPI_Allreduce entering at walltime 102.00, cputime 0.6 seconds in thread 0.
    int count=16
    MPI_Datatype datatype=11 (MPI_DOUBLE)
    MPI_Op op=1 (MPI_SUM)
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Allreduce returning at walltime 102.20, cputime 0.7 seconds in thread 0.
    """
)

BOOKKEEPING = textwrap.dedent(
    """\
    MPI_Comm_rank entering at walltime 99.00, cputime 0.0 seconds in thread 0.
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    int* rank=0
    MPI_Comm_rank returning at walltime 99.01, cputime 0.0 seconds in thread 0.
    """
)

SUBCOMM = textwrap.dedent(
    """\
    MPI_Bcast entering at walltime 103.00, cputime 0.8 seconds in thread 0.
    int count=4
    MPI_Datatype datatype=4 (MPI_INT)
    int root=0
    MPI_Comm comm=5 (user-defined-comm)
    MPI_Bcast returning at walltime 103.10, cputime 0.9 seconds in thread 0.
    """
)

ISSEND = textwrap.dedent(
    """\
    MPI_Issend entering at walltime 100.70, cputime 0.3 seconds in thread 0.
    int count=512
    MPI_Datatype datatype=2 (MPI_CHAR)
    int dest=4
    int tag=9
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Request* request=[0]
    MPI_Issend returning at walltime 100.80, cputime 0.3 seconds in thread 0.
    """
)


def _record(func, *fields):
    """One dumpi2ascii record of ``func`` with the given field lines."""
    body = "".join(f"{field}\n" for field in fields)
    return (
        f"{func} entering at walltime 104.00, cputime 1.0 seconds in thread 0.\n"
        f"{body}"
        f"{func} returning at walltime 104.10, cputime 1.1 seconds in thread 0.\n"
    )


WORLD = "MPI_Comm comm=2 (MPI_COMM_WORLD)"
WIN = "MPI_Win win=1"

#: Traffic-bearing calls the converter does not decode, one record each.
UNDECODED = {
    "MPI_Sendrecv": _record(
        "MPI_Sendrecv", "int sendcount=64", "MPI_Datatype sendtype=11 (MPI_DOUBLE)",
        "int dest=1", "int sendtag=3", "int recvcount=64",
        "MPI_Datatype recvtype=11 (MPI_DOUBLE)", "int source=1", "int recvtag=3",
        WORLD, "MPI_Status* status=<IGNORED>",
    ),
    "MPI_Sendrecv_replace": _record(
        "MPI_Sendrecv_replace", "int count=64", "MPI_Datatype datatype=11 (MPI_DOUBLE)",
        "int dest=1", "int sendtag=3", "int source=1", "int recvtag=3", WORLD,
        "MPI_Status* status=<IGNORED>",
    ),
    "MPI_Send_init": _record(
        "MPI_Send_init", "int count=32", "MPI_Datatype datatype=4 (MPI_INT)",
        "int dest=2", "int tag=0", WORLD, "MPI_Request* request=[7]",
    ),
    "MPI_Start": _record("MPI_Start", "MPI_Request* request=[7]"),
    "MPI_Startall": _record("MPI_Startall", "int count=2", "MPI_Request* requests=[7, 8]"),
    "MPI_Ibcast": _record(
        "MPI_Ibcast", "int count=8", "MPI_Datatype datatype=4 (MPI_INT)", "int root=0",
        WORLD, "MPI_Request* request=[9]",
    ),
    "MPI_Iallreduce": _record(
        "MPI_Iallreduce", "int count=16", "MPI_Datatype datatype=11 (MPI_DOUBLE)",
        "MPI_Op op=1 (MPI_SUM)", WORLD, "MPI_Request* request=[10]",
    ),
    "MPI_Put": _record(
        "MPI_Put", "int origincount=128", "MPI_Datatype origintype=11 (MPI_DOUBLE)",
        "int targetrank=3", "MPI_Aint targetdisp=0", "int targetcount=128",
        "MPI_Datatype targettype=11 (MPI_DOUBLE)", WIN,
    ),
    "MPI_Get": _record(
        "MPI_Get", "int origincount=128", "MPI_Datatype origintype=11 (MPI_DOUBLE)",
        "int targetrank=3", "MPI_Aint targetdisp=0", "int targetcount=128",
        "MPI_Datatype targettype=11 (MPI_DOUBLE)", WIN,
    ),
    "MPI_Accumulate": _record(
        "MPI_Accumulate", "int origincount=128", "MPI_Datatype origintype=11 (MPI_DOUBLE)",
        "int targetrank=3", "MPI_Aint targetdisp=0", "int targetcount=128",
        "MPI_Datatype targettype=11 (MPI_DOUBLE)", "MPI_Op op=1 (MPI_SUM)", WIN,
    ),
}


def parse(text, rank=0, strict=True):
    return parse_rank_stream(io.StringIO(text), rank, strict)


class TestParseRankStream:
    def test_send_record(self):
        events, lo, hi = parse(SEND, rank=3)
        assert len(events) == 1
        ev = events[0]
        assert ev.caller == 3 and ev.peer == 5
        assert ev.count == 4096 and ev.dtype == "MPI_CHAR" and ev.tag == 7
        assert ev.is_send
        assert (lo, hi) == (100.50, 100.60)

    def test_recv_record_kept_but_not_send(self):
        events, _, _ = parse(RECV, rank=1)
        assert len(events) == 1
        assert not events[0].is_send
        assert events[0].peer == 2
        assert events[0].dtype == "MPI_DOUBLE"

    def test_collective(self):
        events, _, _ = parse(ALLREDUCE)
        assert len(events) == 1
        ev = events[0]
        assert ev.func == "MPI_Allreduce" and ev.count == 16

    def test_bookkeeping_calls_skipped(self):
        events, _, _ = parse(BOOKKEEPING + SEND)
        assert len(events) == 1
        assert events[0].func == "MPI_Send"

    def test_unknown_communicator_strict(self):
        with pytest.raises(UnsupportedCommunicatorError):
            parse(SUBCOMM, strict=True)

    def test_unknown_communicator_lenient_skips(self):
        events, _, _ = parse(SUBCOMM + SEND, strict=False)
        assert [ev.func for ev in events] == ["MPI_Send"]

    def test_empty_stream(self):
        events, lo, hi = parse("")
        assert events == [] and lo == hi == 0.0

    def test_mixed_stream_order_and_span(self):
        events, lo, hi = parse(SEND + RECV + ALLREDUCE)
        assert len(events) == 3
        assert (lo, hi) == (100.50, 102.20)

    def test_issend_is_a_send(self):
        events, _, _ = parse(ISSEND, rank=2)
        assert [(ev.func, ev.peer, ev.count, ev.is_send) for ev in events] == [
            ("MPI_Issend", 4, 512, True)
        ]

    @pytest.mark.parametrize("func", sorted(UNDECODED))
    def test_undecoded_call_strict_names_line_and_function(self, func):
        # BOOKKEEPING is four lines, so the undecoded record enters on line 5.
        text = BOOKKEEPING + UNDECODED[func] + SEND
        with pytest.raises(UndecodedCallError, match=rf"^<rank 0 stream>:5: {func} "):
            parse(text)

    @pytest.mark.parametrize("func", sorted(UNDECODED))
    def test_undecoded_call_lenient_warns_once(self, func, caplog):
        text = UNDECODED[func] + SEND + UNDECODED[func]
        with caplog.at_level("WARNING", logger="repro.dumpi.ascii_dumpi"):
            events, _, _ = parse(text, strict=False)
        assert [ev.func for ev in events] == ["MPI_Send"]
        assert [r.getMessage() for r in caplog.records] == [
            "skipped 2 traffic-bearing records the converter does not decode in "
            f"<rank 0 stream>: {func} x2"
        ]

    def test_negative_peer_skipped(self):
        text = SEND.replace("int dest=5", "int dest=-1")  # MPI_PROC_NULL
        events, _, _ = parse(text)
        assert events == []


class TestDirectoryLoader:
    def _write(self, directory, rank, text):
        (directory / f"dumpi-2020-{rank:04d}.txt").write_text(text)

    def test_assembles_trace(self, tmp_path):
        self._write(tmp_path, 0, SEND + ALLREDUCE)  # dest=5 needs 6 ranks
        self._write(tmp_path, 1, RECV + ALLREDUCE)
        self._write(tmp_path, 2, ALLREDUCE)
        self._write(tmp_path, 3, ALLREDUCE)
        self._write(tmp_path, 4, ALLREDUCE)
        self._write(tmp_path, 5, ALLREDUCE)
        trace = load_dumpi2ascii_dir(tmp_path, app="real_app")
        assert trace.meta.num_ranks == 6
        assert trace.meta.app == "real_app"
        stats = trace_stats(trace)
        assert stats.p2p_bytes == 4096
        # 6 callers x 16 doubles x 8 bytes
        assert stats.collective_logical_bytes == 6 * 16 * 8

    def test_times_normalized(self, tmp_path):
        for rank in range(6):
            self._write(tmp_path, rank, SEND if rank == 0 else "")
        trace = load_dumpi2ascii_dir(tmp_path, app="x")
        assert trace.events[0].t_enter == 0.0
        assert trace.meta.execution_time == pytest.approx(0.1)

    def test_missing_rank_detected(self, tmp_path):
        self._write(tmp_path, 0, SEND + SEND)
        self._write(tmp_path, 2, ALLREDUCE)
        with pytest.raises(ValueError, match="missing rank"):
            load_dumpi2ascii_dir(tmp_path, app="x")

    def test_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dumpi2ascii_dir(tmp_path, app="x")

    def test_pipeline_through_metrics(self, tmp_path):
        """Converted traces run through the normal analysis unchanged."""
        from repro.comm.matrix import matrix_from_trace
        from repro.metrics.peers import peers

        for rank in range(6):
            body = SEND if rank == 0 else ALLREDUCE
            self._write(tmp_path, rank, body)
        trace = load_dumpi2ascii_dir(tmp_path, app="x")
        matrix = matrix_from_trace(trace, include_collectives=False)
        assert peers(matrix) == 1

    def test_undecoded_call_strict_names_rank_file(self, tmp_path):
        for rank in range(6):
            self._write(tmp_path, rank, SEND if rank == 0 else ALLREDUCE)
        self._write(tmp_path, 3, ALLREDUCE + UNDECODED["MPI_Put"])
        path = tmp_path / "dumpi-2020-0003.txt"
        for load in (load_dumpi2ascii_dir, stream_dumpi2ascii_dir):
            with pytest.raises(UndecodedCallError, match=rf"^{path}:7: MPI_Put "):
                load(tmp_path, app="x")

    def test_undecoded_calls_lenient_one_warning_per_load(self, tmp_path, caplog):
        for rank in range(6):
            self._write(tmp_path, rank, SEND if rank == 0 else ALLREDUCE)
        self._write(tmp_path, 1, UNDECODED["MPI_Sendrecv"] + RECV + UNDECODED["MPI_Put"])
        self._write(tmp_path, 2, UNDECODED["MPI_Sendrecv"] + ALLREDUCE)
        expected = (
            "skipped 3 traffic-bearing records the converter does not decode in "
            f"{tmp_path}: MPI_Put x1, MPI_Sendrecv x2"
        )
        with caplog.at_level("WARNING", logger="repro.dumpi.ascii_dumpi"):
            trace = load_dumpi2ascii_dir(tmp_path, app="x", strict=False)
        assert [r.getMessage() for r in caplog.records] == [expected]
        assert trace_stats(trace).p2p_bytes == 4096
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.dumpi.ascii_dumpi"):
            stream = stream_dumpi2ascii_dir(tmp_path, app="x", strict=False)
            list(stream.blocks())
            list(stream.blocks())
        assert [r.getMessage() for r in caplog.records] == [expected]
