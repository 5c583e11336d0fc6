"""Out-of-core streaming: chunked emission, spill, and consumer identity.

The contract under test: a :class:`~repro.core.stream.BlockStream` feeds
every consumer — traffic matrices, locality metrics, both simulation
engines — bit-identically to the monolithic in-memory path, regardless of
chunk boundaries (empty chunks, single-row chunks, collectives split
mid-phase), and spill directories survive a process restart memory-mapped.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.apps import SCALE_APPS, app_names, get_app, stream_trace
from repro.collectives.translate import iter_send_batches
from repro.comm.matrix import matrix_from_stream, matrix_from_trace
from repro.core.blocks import KIND_P2P_RECV, KIND_P2P_SEND
from repro.core.stream import (
    DEFAULT_CHUNK_BYTES,
    ROW_BYTES,
    BlockStream,
    rows_per_chunk,
    slice_block,
    write_spill,
)
from repro.metrics.locality import rank_distance
from repro.sim.engine import simulate_network, simulate_stream
from repro.validation.base import run_invariants
from repro.validation.invariants import matrices_identical, traces_identical


def _smallest_configs() -> list[tuple[str, int]]:
    return [(name, get_app(name).scales()[0]) for name in app_names()]


def _assert_same_metric(a: float, b: float) -> None:
    if math.isnan(a) or math.isnan(b):
        assert math.isnan(a) and math.isnan(b)
    else:
        assert a == b


# --------------------------------------------------------------- chunking


class TestChunking:
    def test_rows_per_chunk_has_floor_of_one(self):
        assert rows_per_chunk(1) == 1
        assert rows_per_chunk(ROW_BYTES) == 1
        assert rows_per_chunk(10 * ROW_BYTES) == 10
        with pytest.raises(ValueError):
            rows_per_chunk(0)

    def test_rechunk_respects_budget_and_preserves_rows(self):
        trace = get_app("MiniFE").generate(18)
        stream = BlockStream.from_trace(trace).rechunk(2048)
        max_rows = rows_per_chunk(2048)
        blocks = list(stream)
        assert len(blocks) > 1
        assert all(0 < len(b) <= max_rows for b in blocks)
        assert traces_identical(stream.to_trace(), trace)

    def test_empty_chunks_are_dropped(self):
        trace = get_app("LULESH").generate(64)
        block = trace.blocks()[0]
        empty = slice_block(block, 0, 0)
        stream = BlockStream.from_blocks(
            trace.meta,
            [empty, block, empty, empty],
            datatypes=trace.datatypes,
            communicators=trace.communicators,
        )
        assert all(len(b) for b in stream)
        assert matrices_identical(
            matrix_from_stream(stream), matrix_from_trace(trace)
        )

    def test_single_row_chunks(self):
        trace = get_app("LULESH").generate(64)
        stream = BlockStream.from_trace(trace).rechunk(1)
        blocks = list(stream)
        assert all(len(b) == 1 for b in blocks)
        assert len(blocks) == stream.num_rows()
        assert matrices_identical(
            matrix_from_stream(stream), matrix_from_trace(trace)
        )

    def test_collective_spanning_chunk_boundary(self):
        # 3-row chunks split every collective phase across many chunks
        # (each phase emits one row per caller); expansion must not notice.
        trace = get_app("BigFFT").generate(9)
        stream = BlockStream.from_trace(trace).rechunk(3 * ROW_BYTES)
        assert matrices_identical(
            matrix_from_stream(stream), matrix_from_trace(trace)
        )
        assert matrices_identical(
            matrix_from_stream(stream, include_collectives=False),
            matrix_from_trace(trace, include_collectives=False),
        )

    def test_stream_batches_match_trace_batches(self):
        trace = get_app("MiniFE").generate(18)
        stream = BlockStream.from_trace(trace).rechunk(4096)
        expected = [
            (b.src.copy(), b.dst.copy(), b.bytes_per_msg.copy(), b.calls.copy())
            for b in iter_send_batches(trace)
        ]
        streamed = [
            (b.src, b.dst, b.bytes_per_msg, b.calls)
            for b in iter_send_batches(stream)
        ]

        def cat(parts, i):
            return np.concatenate([p[i] for p in parts])

        for i in range(4):
            assert np.array_equal(cat(streamed, i), cat(expected, i))


# ------------------------------------------------- generator-native emission


class TestGeneratorStreaming:
    @pytest.mark.parametrize("name,ranks", _smallest_configs())
    def test_all_apps_bit_identical(self, name, ranks):
        trace = get_app(name).generate(ranks)
        stream = stream_trace(name, ranks, chunk_bytes=4096)
        for include in (True, False):
            expected = matrix_from_trace(trace, include_collectives=include)
            streamed = matrix_from_stream(stream, include_collectives=include)
            assert matrices_identical(streamed, expected)
        p2p_expected = matrix_from_trace(trace, include_collectives=False)
        p2p_streamed = matrix_from_stream(stream, include_collectives=False)
        _assert_same_metric(
            rank_distance(p2p_streamed), rank_distance(p2p_expected)
        )

    def test_stream_rows_match_generated_trace(self):
        trace = get_app("CrystalRouter").generate(10)
        stream = stream_trace("CrystalRouter", 10, chunk_bytes=2048)
        assert stream.num_rows() == sum(len(b) for b in trace.blocks())
        assert traces_identical(stream.to_trace(), trace)

    def test_emit_receives_pairs_never_split(self):
        stream = stream_trace(
            "MiniFE", 18, emit_receives=True, chunk_bytes=2048
        )
        total_sends = total_recvs = 0
        for block in stream:
            sends = int((block.kind == KIND_P2P_SEND).sum())
            recvs = int((block.kind == KIND_P2P_RECV).sum())
            assert sends == recvs
            total_sends += sends
            total_recvs += recvs
        assert total_sends > 0
        trace = get_app("MiniFE").generate(18, emit_receives=True)
        assert traces_identical(stream.to_trace(), trace)

    def test_streaming_is_reiterable(self):
        stream = stream_trace("AMG", 27, chunk_bytes=4096)
        first = matrix_from_stream(stream)
        second = matrix_from_stream(stream)
        assert matrices_identical(first, second)

    def test_compaction_threshold_does_not_change_result(self):
        stream = stream_trace("SNAP", 168, chunk_bytes=2048)
        expected = matrix_from_stream(stream)
        aggressive = matrix_from_stream(stream, compact_rows=1)
        assert matrices_identical(aggressive, expected)


# ------------------------------------------------------------ simulation


class TestStreamingSimulation:
    @pytest.mark.parametrize("name,ranks", [("MiniFE", 18), ("BigFFT", 9)])
    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_sim_matches_in_memory_feed(self, name, ranks, engine):
        from repro.topology.configs import config_for

        trace = get_app(name).generate(ranks)
        matrix = matrix_from_trace(trace)
        topology = config_for(ranks).build_torus()
        kwargs = dict(
            execution_time=trace.meta.execution_time,
            volume_scale=max(1.0, matrix.packets.sum() / 4000),
            seed=3,
            engine=engine,
        )
        stream = BlockStream.from_trace(trace).rechunk(4096)
        streamed = simulate_stream(stream, topology, **kwargs)
        direct = simulate_network(matrix, topology, **kwargs)
        assert streamed == direct
        assert np.array_equal(streamed.link_ids, direct.link_ids)
        assert np.array_equal(
            streamed.link_serve_counts, direct.link_serve_counts
        )


# ------------------------------------------------------------------ spill


class TestSpillRestart:
    def test_warm_spill_read_in_fresh_process(self, tmp_path):
        """A spill written here is memory-mapped and bit-identical after a
        process restart (fresh interpreter, cold module state)."""
        trace = get_app("MiniFE").generate(18)
        matrix = matrix_from_trace(trace)
        spill = tmp_path / "minife.spill"
        assert write_spill(BlockStream.from_trace(trace).rechunk(4096), spill)

        code = textwrap.dedent(
            """
            import json, sys
            import numpy as np
            from repro.comm.matrix import matrix_from_trace
            from repro.core.stream import load_spill_trace
            trace = load_spill_trace(sys.argv[1], mmap=True)
            assert all(
                isinstance(b.caller.base, np.memmap) for b in trace.blocks()
            ), "spill columns are not memory-mapped"
            m = matrix_from_trace(trace)
            json.dump(
                [
                    m.num_pairs,
                    int(m.nbytes.sum()),
                    int(m.src.sum()),
                    int(m.dst.sum()),
                    int(m.packets.sum()),
                ],
                sys.stdout,
            )
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(spill)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            matrix.num_pairs,
            int(matrix.nbytes.sum()),
            int(matrix.src.sum()),
            int(matrix.dst.sum()),
            int(matrix.packets.sum()),
        ]


# ---------------------------------------------------------- dumpi streaming


_DUMPI_SEND = textwrap.dedent(
    """\
    MPI_Send entering at walltime 100.50, cputime 0.2 seconds in thread 0.
    int count=4096
    MPI_Datatype datatype=2 (MPI_CHAR)
    int dest=3
    int tag=7
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Send returning at walltime 100.60, cputime 0.3 seconds in thread 0.
    """
)

_DUMPI_RECV = textwrap.dedent(
    """\
    MPI_Recv entering at walltime 101.00, cputime 0.4 seconds in thread 0.
    int count=128
    MPI_Datatype datatype=11 (MPI_DOUBLE)
    int source=0
    int tag=7
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Recv returning at walltime 101.10, cputime 0.5 seconds in thread 0.
    """
)

_DUMPI_ALLREDUCE = textwrap.dedent(
    """\
    MPI_Allreduce entering at walltime 102.00, cputime 0.6 seconds in thread 0.
    int count=16
    MPI_Datatype datatype=11 (MPI_DOUBLE)
    MPI_Op op=1 (MPI_SUM)
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Allreduce returning at walltime 102.20, cputime 0.7 seconds in thread 0.
    """
)

_DUMPI_SUBCOMM = textwrap.dedent(
    """\
    MPI_Bcast entering at walltime 103.00, cputime 0.8 seconds in thread 0.
    int count=4
    MPI_Datatype datatype=4 (MPI_INT)
    int root=0
    MPI_Comm comm=5 (user-defined-comm)
    MPI_Bcast returning at walltime 103.10, cputime 0.9 seconds in thread 0.
    """
)


class TestDumpiStreaming:
    def _write_dir(self, directory, bodies):
        for rank, body in enumerate(bodies):
            (directory / f"dumpi-2020-{rank:04d}.txt").write_text(body)

    @pytest.fixture()
    def dumpi_dir(self, tmp_path):
        self._write_dir(
            tmp_path,
            [
                _DUMPI_SEND + _DUMPI_ALLREDUCE,
                _DUMPI_ALLREDUCE,
                _DUMPI_SEND + _DUMPI_SEND + _DUMPI_ALLREDUCE,
                _DUMPI_RECV + _DUMPI_ALLREDUCE,
            ],
        )
        return tmp_path

    def test_matrix_matches_in_memory_loader(self, dumpi_dir):
        from repro.dumpi.ascii_dumpi import (
            load_dumpi2ascii_dir,
            stream_dumpi2ascii_dir,
        )

        trace = load_dumpi2ascii_dir(dumpi_dir, app="real")
        stream = stream_dumpi2ascii_dir(dumpi_dir, app="real")
        assert stream.meta.num_ranks == trace.meta.num_ranks
        assert stream.meta.execution_time == trace.meta.execution_time
        assert stream.num_rows() == sum(len(b) for b in trace.blocks())
        for include in (True, False):
            assert matrices_identical(
                matrix_from_stream(stream, include_collectives=include),
                matrix_from_trace(trace, include_collectives=include),
            )

    def test_single_row_chunks_still_identical(self, dumpi_dir):
        from repro.dumpi.ascii_dumpi import (
            load_dumpi2ascii_dir,
            stream_dumpi2ascii_dir,
        )

        trace = load_dumpi2ascii_dir(dumpi_dir, app="real")
        stream = stream_dumpi2ascii_dir(dumpi_dir, app="real", chunk_bytes=1)
        assert all(len(b) == 1 for b in stream)
        assert matrices_identical(
            matrix_from_stream(stream), matrix_from_trace(trace)
        )

    def test_times_normalized_to_zero(self, dumpi_dir):
        from repro.dumpi.ascii_dumpi import stream_dumpi2ascii_dir

        stream = stream_dumpi2ascii_dir(dumpi_dir, app="real")
        t_enter = np.concatenate([b.t_enter for b in stream])
        assert t_enter.min() == 0.0

    def test_strict_subcommunicator_raises_eagerly(self, tmp_path):
        from repro.dumpi.ascii_dumpi import (
            UnsupportedCommunicatorError,
            stream_dumpi2ascii_dir,
        )

        self._write_dir(tmp_path, [_DUMPI_SEND, _DUMPI_SUBCOMM])
        with pytest.raises(UnsupportedCommunicatorError):
            stream_dumpi2ascii_dir(tmp_path, app="real")


# ------------------------------------------------------------ invariant


class TestStreamingInvariant:
    def test_registered_in_catalogue(self):
        from repro.validation.base import all_invariants

        names = [inv.name for inv in all_invariants()]
        assert "streaming-equivalence" in names

    @pytest.fixture()
    def ctx(self):
        from repro.topology.configs import config_for
        from repro.validation.suite import build_static_context

        trace = get_app("BigFFT").generate(9)
        return build_static_context(trace, config_for(9).build_torus())

    def test_clean_context_passes(self, ctx):
        assert run_invariants(ctx, names=["streaming-equivalence"]) == []

    def test_detects_matrix_divergence(self, ctx):
        # BigFFT is collective-dominated, so passing the full matrix off
        # as the p2p one must trip the streamed-p2p comparison.
        ctx.p2p_matrix = ctx.full_matrix
        violations = run_invariants(ctx, names=["streaming-equivalence"])
        assert violations
        assert all(v.severity == "error" for v in violations)


# ------------------------------------------------------- peak RSS + bench


class TestPeakRss:
    def test_peak_rss_measured_on_posix(self):
        from repro import timings

        peak = timings.peak_rss_bytes()
        assert peak is not None
        assert peak > 10 * 1024 * 1024  # a running interpreter beats 10 MB

    def test_summary_reports_peak_rss(self):
        from repro import timings

        timings.enable(reset_counters=True)
        try:
            with timings.stage("trace"):
                pass
        finally:
            timings.disable()
        assert "peak RSS" in timings.summary()


class TestScaleBench:
    def test_scalehalo_registered_out_of_band(self):
        assert "ScaleHalo3D" in SCALE_APPS
        assert get_app("ScaleHalo3D").name == "ScaleHalo3D"
        assert "ScaleHalo3D" not in app_names()

    def test_scale_pipeline_smoke(self):
        from repro.bench import run_scale_pipeline

        result = run_scale_pipeline(ranks=4096, chunk_bytes=DEFAULT_CHUNK_BYTES)
        assert result["rows"] > 0
        assert result["chunks"] >= 1
        assert result["pairs"] > 4096  # 6-stencil halo plus allreduce
        assert result["peak_rss_mb"] is None or result["peak_rss_mb"] > 0

    def test_scale_bench_subprocess_ratio(self):
        from repro.bench import run_scale_bench

        data = run_scale_bench(ranks=4096, rlimit_gb=4.0)
        summary = data["summary"]
        assert summary["rss_ratio"] is not None
        assert summary["rss_ratio"] < 1.0
        assert data["scale"]["ranks"] == 4096
        assert summary["rows_per_s"] > 0
