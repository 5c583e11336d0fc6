"""Critical-path engine: matching, DAG structure, costs, sensitivity."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.registry import generate_trace
from repro.core.events import CollectiveEvent, CollectiveOp, Direction, P2PEvent
from repro.critpath import (
    DEFAULT_PARAMS,
    CycleError,
    EDGE_COLLECTIVE,
    EDGE_P2P,
    EDGE_PROGRAM,
    HappensBeforeDag,
    LogGPParams,
    MatchError,
    analyze_trace,
    build_dag,
    channel_audit,
    critical_path,
    edge_costs,
    ensure_receives,
    expand_events,
    latency_sensitivity,
    latency_table,
    match_events,
)
from repro.analysis.tables import render_latency_table

from helpers import make_trace
from oracles.critpath import match_events_oracle


def _recv(caller, peer, count, **kw):
    return P2PEvent(
        caller=caller, peer=peer, count=count, dtype="MPI_BYTE",
        direction=Direction.RECV, func="MPI_Irecv", **kw,
    )


def _send(caller, peer, count, **kw):
    return P2PEvent(caller=caller, peer=peer, count=count, dtype="MPI_BYTE", **kw)


def _pairs(result):
    return set(
        zip(
            result.send_event.tolist(),
            result.recv_event.tolist(),
            result.nbytes.tolist(),
        )
    )


# ------------------------------------------------------------------ matching


class TestMatching:
    def test_fifo_order_within_channel(self):
        """k-th send on a channel pairs with the k-th receive."""
        trace = make_trace(2)
        for count in (10, 20, 30):
            trace.add(_send(0, 1, count))
        for count in (10, 20, 30):
            trace.add(_recv(1, 0, count))
        table = expand_events(trace)
        result = match_events(table)
        assert len(result) == 3
        # Sends are events 0..2, receives 3..5, paired in order.
        assert result.send_event.tolist() == [0, 1, 2]
        assert result.recv_event.tolist() == [3, 4, 5]
        assert result.nbytes.tolist() == [10, 20, 30]

    def test_channels_are_tag_disjoint(self):
        """Same (src, dst) but different tags match independently."""
        trace = make_trace(2)
        trace.add(_send(0, 1, 1, tag=7))
        trace.add(_send(0, 1, 2, tag=9))
        trace.add(_recv(1, 0, 2, tag=9))
        trace.add(_recv(1, 0, 1, tag=7))
        result = match_events(expand_events(trace))
        assert _pairs(result) == {(0, 3, 1), (1, 2, 2)}

    def test_misaligned_repeats_match(self):
        """Repeat compression 6 vs 2+4 expands to the same FIFO stream."""
        trace = make_trace(2)
        trace.add(_send(0, 1, 5, repeat=6))
        trace.add(_recv(1, 0, 5, repeat=2))
        trace.add(_recv(1, 0, 5, repeat=4))
        result = match_events(expand_events(trace))
        assert len(result) == 6
        assert result.nbytes.tolist() == [5] * 6

    def test_unmatched_truncation_diagnostic(self):
        """A lost receive names the channel and both counts."""
        trace = make_trace(2)
        trace.add(_send(0, 1, 8, repeat=3))
        trace.add(_recv(1, 0, 8, repeat=2))
        with pytest.raises(MatchError) as err:
            match_events(expand_events(trace))
        message = str(err.value)
        assert "src=0" in message and "dst=1" in message
        assert "3 send(s)" in message and "2 recv(s)" in message

    def test_payload_mismatch_diagnostic(self):
        trace = make_trace(2)
        trace.add(_send(0, 1, 100))
        trace.add(_recv(1, 0, 99))
        with pytest.raises(MatchError, match="payload mismatch"):
            match_events(expand_events(trace))

    def test_oracle_raises_on_truncation_too(self):
        trace = make_trace(2)
        trace.add(_send(0, 1, 8))
        with pytest.raises(MatchError):
            match_events_oracle(expand_events(trace))

    @pytest.mark.parametrize(
        "app,ranks,max_repeat",
        [
            pytest.param("AMG", 8, 8, id="AMG-8"),
            pytest.param("LULESH", 64, 8, id="LULESH-64"),
            pytest.param("BigFFT", 9, 8, id="BigFFT-9"),
            # exact expansion, ~5M events: the workload `repro bench
            # critpath` times the matcher on
            pytest.param("AMG", 1728, None, id="AMG-1728"),
        ],
    )
    def test_vectorized_matches_oracle_bit_identically(
        self, app, ranks, max_repeat
    ):
        trace = ensure_receives(generate_trace(app, ranks))
        table = expand_events(trace, max_repeat)
        vec = match_events(table)
        orc = match_events_oracle(table)
        assert np.array_equal(vec.send_event, orc.send_event)
        assert np.array_equal(vec.recv_event, orc.recv_event)
        assert np.array_equal(vec.nbytes, orc.nbytes)

    def test_max_repeat_clamps_expansion(self):
        trace = make_trace(2)
        trace.add(_send(0, 1, 5, repeat=100))
        trace.add(_recv(1, 0, 5, repeat=100))
        assert len(expand_events(trace, 4)) == 8
        assert len(expand_events(trace)) == 200


class TestEnsureReceives:
    def test_synthesizes_receives_for_send_only_trace(self):
        trace = make_trace(4)
        trace.add(_send(0, 1, 100, repeat=2))
        trace.add(_send(2, 3, 50))
        out = ensure_receives(trace)
        audit = channel_audit(out)
        assert audit.balanced
        assert int(audit.send_calls.sum()) == 3

    def test_idempotent_on_traces_with_receives(self):
        trace = generate_trace("AMG", 8, emit_receives=True)
        assert ensure_receives(trace) is trace

    def test_generated_equals_emitted(self):
        """Synthesized receives match the generator's own receive rows."""
        synth = ensure_receives(generate_trace("LULESH", 64))
        emitted = generate_trace("LULESH", 64, emit_receives=True)
        a, b = channel_audit(synth), channel_audit(emitted)
        assert np.array_equal(a.recv_calls, b.recv_calls)
        assert np.array_equal(a.recv_bytes, b.recv_bytes)


# ----------------------------------------------------------------- DAG


class TestDag:
    def test_ping_pong_critical_path_by_hand(self):
        """0 sends to 1, 1 sends back: T = g + 2*(2o + L) for 1-byte pings.

        Each rank has 2 events (its send and its recv); program-order
        edges cost g, each message edge 2o + L + (k-1)G with k=1.
        """
        trace = make_trace(2)
        trace.add(_send(0, 1, 1))
        trace.add(_recv(0, 1, 1))
        trace.add(_recv(1, 0, 1))
        trace.add(_send(1, 0, 1))
        dag = build_dag(trace)
        assert dag.num_nodes == 4
        p = DEFAULT_PARAMS
        cost, lterm = edge_costs(dag, p)
        cp = critical_path(dag, cost, lterm)
        msg = 2 * p.overhead_s + p.latency_s
        assert cp.makespan_s == pytest.approx(p.gap_s + 2 * msg)
        assert cp.l_terms == 2

    def test_program_order_edge_count(self):
        trace = ensure_receives(generate_trace("LULESH", 64))
        dag = build_dag(trace, 4)
        prog = int((dag.edge_kind == EDGE_PROGRAM).sum())
        # One chain edge per consecutive event pair per rank; no
        # collectives in LULESH, so no internal completion edges.
        assert prog == dag.num_events - dag.num_ranks
        assert not (dag.edge_kind == EDGE_COLLECTIVE).any()

    def test_acyclic_on_registry_apps(self):
        for app, ranks in (("AMG", 8), ("CMC_2D", 64), ("MiniFE", 18)):
            dag = build_dag(generate_trace(app, ranks), 4)
            dag.assert_acyclic()  # does not raise

    def test_hand_built_cycle_detected(self):
        dag = HappensBeforeDag(
            num_nodes=2,
            num_events=2,
            num_ranks=2,
            node_rank=np.array([0, 1]),
            completion_of=np.array([-1, -1]),
            edge_src=np.array([0, 1]),
            edge_dst=np.array([1, 0]),
            edge_bytes=np.array([0, 0]),
            edge_kind=np.array([1, 1], dtype=np.uint8),
        )
        with pytest.raises(CycleError, match="cycle"):
            dag.assert_acyclic()

    def test_bcast_fans_out_from_root(self):
        trace = make_trace(4)
        for r in range(4):
            trace.add(
                CollectiveEvent(
                    caller=r, op=CollectiveOp.BCAST, count=16, root=0
                )
            )
        dag = build_dag(trace)
        coll = dag.edge_kind == EDGE_COLLECTIVE
        assert int(coll.sum()) == 3  # root to each non-root member
        # Every fan-out edge departs the root's event node (not its
        # completion node) and arrives at a completion node.
        src_ranks = dag.node_rank[dag.edge_src[coll]]
        assert (src_ranks == 0).all()
        assert (dag.edge_dst[coll] >= dag.num_events).all()

    def test_allreduce_two_phase_sequencing(self):
        """Fan-in must complete before the fan-out departs (no 2-cycle)."""
        trace = make_trace(4)
        for r in range(4):
            trace.add(
                CollectiveEvent(caller=r, op=CollectiveOp.ALLREDUCE, count=8)
            )
        dag = build_dag(trace)
        dag.assert_acyclic()
        coll = np.flatnonzero(dag.edge_kind == EDGE_COLLECTIVE)
        # 3 fan-in edges to rank 0 plus 3 fan-out edges back.
        assert len(coll) == 6
        fanout = coll[dag.edge_src[coll] >= dag.num_events]
        assert len(fanout) == 3  # depart from the root's completion node

    def test_collective_instance_misalignment_raises(self):
        trace = make_trace(2)
        trace.add(CollectiveEvent(caller=0, op=CollectiveOp.ALLREDUCE, count=8))
        with pytest.raises(MatchError, match="collective"):
            build_dag(trace)


# ----------------------------------------------------- cost and sensitivity


class TestSensitivity:
    def test_loggp_validation(self):
        with pytest.raises(ValueError):
            LogGPParams(latency_s=0.0)
        with pytest.raises(ValueError):
            LogGPParams(overhead_s=-1.0)

    def test_fd_equals_algebraic_exactly_with_dyadic_defaults(self):
        trace = generate_trace("CMC_2D", 64)
        dag = build_dag(trace, 8)
        sens = latency_sensitivity(dag)
        assert sens.finite_difference == sens.algebraic
        assert sens.rel_err == 0.0

    def test_hops_lengthen_the_critical_path(self):
        from repro.validation.suite import build_topology

        trace = generate_trace("LULESH", 64)
        topo = build_topology("torus3d", 64)
        flat = analyze_trace(trace, fd_check=False)
        routed = analyze_trace(trace, topology=topo, fd_check=False)
        assert routed.makespan_s > flat.makespan_s
        assert routed.topology != "none"

    def test_analyze_trace_reports_tolerance(self):
        trace = generate_trace("AMG", 8)
        result = analyze_trace(trace, fd_check=True)
        assert result.fd_rel_err == 0.0
        assert result.tolerance_s == pytest.approx(
            0.01 * result.makespan_s / result.l_terms
        )

    def test_latency_table_renders_with_na(self):
        rows = latency_table(max_ranks=16, fd_check=False)
        assert rows
        text = render_latency_table(rows)
        assert "dT/dL" in text
        # fd_check=False leaves the FD column NaN, rendered as N/A.
        assert "N/A" in text


# ----------------------------------------------------------- integrations


class TestIntegration:
    def test_sweep_critpath_axis(self):
        from repro.analysis.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            apps=(("AMG", 8),), topologies=("torus3d",), critpath=True
        )
        records = run_sweep(spec)
        assert all("critical_path_s" in r for r in records)
        assert all(r["latency_sensitivity"] >= 0 for r in records)

    def test_cells_roundtrip_critpath_fields(self):
        from repro.analysis.sweep import SweepSpec
        from repro.service.cells import cell_key, spec_from_dict, spec_to_dict

        spec = SweepSpec(critpath=True, critpath_max_repeat=8)
        clone = spec_from_dict(spec_to_dict(spec))
        assert clone == spec
        point = spec.points()[0]
        assert cell_key(spec, point) != cell_key(
            SweepSpec(critpath=False), point
        )

    def test_invariants_registered(self):
        from repro.validation.base import REGISTRY

        assert "critpath-matching" in REGISTRY
        assert "dag-acyclicity" in REGISTRY

    def test_matching_invariant_detects_truncation(self):
        from repro.comm.matrix import matrix_from_trace
        from repro.validation.base import CheckContext
        from repro.validation.invariants import check_critpath_matching

        trace = make_trace(2)
        trace.add(_send(0, 1, 8, repeat=3))
        trace.add(_recv(1, 0, 8, repeat=2))
        ctx = CheckContext(
            label="truncated",
            trace=trace,
            p2p_matrix=matrix_from_trace(trace, include_collectives=False),
        )
        violations = list(check_critpath_matching(ctx))
        assert violations and violations[0].severity == "error"
        assert "unbalanced" in violations[0].message

    def test_report_has_sensitivity_column(self):
        from repro.analysis.report import build_report, render_report

        rows = build_report(max_ranks=10)
        assert rows
        assert all(
            not math.isnan(r.latency_sensitivity) for r in rows
        )
        assert "dT/dL" in render_report(rows)

    def test_cached_dag_is_memoized(self):
        from repro.cache import cached_critpath_dag, cached_trace

        trace = cached_trace("AMG", 8)
        first = cached_critpath_dag(trace, max_repeat=4)
        assert cached_critpath_dag(trace, max_repeat=4) is first
        assert cached_critpath_dag(trace, max_repeat=8) is not first

    def test_bench_unknown_target_lists_names(self, capsys):
        from repro.cli import main

        code = main(["bench", "nonsense"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for name in ("collectives", "critpath", "tenancy"):
            assert name in err

    def test_cli_table_exact_expansion(self, capsys):
        from repro.cli import main

        argv = ["critpath", "--table", "--max-ranks", "27", "--no-fd"]
        assert main([*argv, "--max-repeat", "0"]) == 0
        exact = capsys.readouterr().out
        rows = latency_table(max_ranks=27, max_repeat=None, fd_check=False)
        assert exact == render_latency_table(rows) + "\n"
        assert main(argv) == 0
        assert capsys.readouterr().out != exact  # the 64 clamp differs

    def test_cli_table_honours_loggp_overrides(self, capsys):
        from repro.cli import main

        argv = ["critpath", "--table", "--max-ranks", "27", "--no-fd"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--latency-s", "2e-6"]) == 0
        slower = capsys.readouterr().out
        assert slower != default
        params = replace(DEFAULT_PARAMS, latency_s=2e-6)
        rows = latency_table(max_ranks=27, params=params, fd_check=False)
        assert slower == render_latency_table(rows) + "\n"

    @pytest.mark.parametrize(
        "flags",
        [["--topology", "none"], ["--mapping", "random"], ["--seed", "1"]],
    )
    def test_cli_table_rejects_single_workload_flags(self, capsys, flags):
        from repro.cli import main

        assert main(["critpath", "--table", "--max-ranks", "8", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --table does not take ")
        assert captured.err.count("\n") == 1

    def test_cli_critpath_single_app(self, capsys):
        from repro.cli import main

        assert main(["critpath", "--app", "AMG", "--ranks", "8"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "dT/dL" in out
        assert "rel err 0.00e+00" in out
