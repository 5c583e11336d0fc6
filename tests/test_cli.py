"""Tests for the command-line interface."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, _spec_from_args, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_sweep_and_submit_build_one_spec(self):
        flags = [
            "--apps", "LULESH:64,AMG:8", "--topologies", "torus3d",
            "--mappings", "consecutive,bisection", "--payloads", "1024",
            "--seed", "2", "--telemetry", "--critpath",
        ]
        parser = build_parser()
        sweep = _spec_from_args(parser.parse_args(["sweep", *flags]))
        submit = _spec_from_args(
            parser.parse_args(["submit", "--state", "s", *flags])
        )
        assert sweep == submit
        assert sweep.apps == (("LULESH", 64), ("AMG", 8))
        assert sweep.telemetry and sweep.critpath and sweep.seed == 2


class TestCommands:
    def test_table1(self, capsys):
        out = run(capsys, "table1", "--max-ranks", "30")
        assert "AMG@8" in out and "Vol[MB]" in out

    def test_sweep_text_names_app_and_ranks(self, capsys):
        out = run(
            capsys, "sweep", "--apps", "AMG:8,AMG:27", "--topologies", "torus3d"
        )
        header, *rows = out.splitlines()
        assert header.split()[:2] == ["app", "ranks"]
        assert [row.split()[:2] for row in rows] == [["AMG", "8"], ["AMG", "27"]]

    def test_sweep_reproduces_the_perfbench_sim_grid(self, capsys, monkeypatch):
        """``--sim-volume-scale`` makes the ``sim_telemetry`` grid a CLI
        sweep: its AMG@216 torus/minimal record, from the flags."""
        import json

        from repro.analysis.sweep import run_sweep

        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(loader)
        monkeypatch.setitem(sys.modules, loader.name, workloads)
        loader.loader.exec_module(workloads)
        out = run(
            capsys, "sweep", "--apps", "AMG:216", "--topologies", "torus3d",
            "--telemetry", "--sim-volume-scale", "3200", "--format", "json",
        )
        grid = run_sweep(workloads.sim_spec(0, apps=(("AMG", 216),)))
        expected = [
            r for r in grid if (r["topology"], r["routing"]) == ("torus3d", "minimal")
        ]
        assert json.loads(out) == expected

    def test_sweep_bandwidths_flag(self, capsys):
        import json

        out = run(
            capsys, "sweep", "--apps", "LULESH:64", "--topologies", "torus3d",
            "--bandwidths", "1.2e10,2.4e10", "--format", "json",
        )
        low, high = json.loads(out)
        assert (low["bandwidth"], high["bandwidth"]) == (1.2e10, 2.4e10)
        for field in ("packet_hops", "avg_hops", "used_links"):
            assert low[field] == high[field]
        assert high["utilization_percent"] < low["utilization_percent"]

    def test_table2(self, capsys):
        out = run(capsys, "table2")
        assert "(16,8,8)" in out

    def test_table3(self, capsys):
        out = run(capsys, "table3", "--max-ranks", "30")
        assert "torus" in out and "AMG@27" in out

    def test_table4(self, capsys):
        out = run(capsys, "table4", "--max-ranks", "70")
        assert "LULESH" in out

    def test_figure1(self, capsys):
        out = run(capsys, "figure1", "--app", "LULESH", "--ranks", "64")
        assert "cum share" in out

    def test_figure3(self, capsys):
        out = run(capsys, "figure3", "--max-ranks", "30")
        assert "partners@90%" in out

    def test_figure4(self, capsys):
        out = run(capsys, "figure4", "--app", "CrystalRouter")
        assert "CrystalRouter@10" in out

    def test_figure5(self, capsys):
        out = run(capsys, "figure5", "--min-ranks", "500", "--max-ranks", "600")
        assert "1c:1.00" in out

    def test_claims(self, capsys):
        out = run(capsys, "claims", "--max-ranks", "30")
        assert "selectivity" in out

    def test_apps(self, capsys):
        out = run(capsys, "apps")
        assert "SNAP" in out and "(*)" in out

    def test_trace_to_stdout(self, capsys):
        out = run(capsys, "trace", "--app", "MiniFE", "--ranks", "18")
        assert out.startswith("%repro-dumpi 1")
        assert "P2P MPI_Isend" in out

    def test_trace_to_file(self, capsys, tmp_path):
        path = tmp_path / "t.dumpi.txt"
        out = run(
            capsys, "trace", "--app", "MiniFE", "--ranks", "18", "--out", str(path)
        )
        assert path.exists()
        assert "wrote MiniFE@18" in out

    def test_trace_roundtrips_through_parser(self, capsys, tmp_path):
        from repro.dumpi.parser import load_trace

        path = tmp_path / "t.dumpi.txt"
        run(capsys, "trace", "--app", "CrystalRouter", "--ranks", "10", "--out", str(path))
        trace = load_trace(path)
        assert trace.meta.app == "CrystalRouter"
        assert trace.meta.num_ranks == 10


class TestErrorPaths:
    """User errors exit nonzero with a one-line message, never a traceback."""

    def fail(self, capsys, *argv, code=2):
        rc = main(list(argv))
        captured = capsys.readouterr()
        assert rc == code, captured.err
        err_lines = [l for l in captured.err.splitlines() if l]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert "Traceback" not in captured.err
        return err_lines[0]

    def test_unknown_app(self, capsys):
        msg = self.fail(capsys, "figure1", "--app", "Nope", "--ranks", "64")
        assert "Nope" in msg

    def test_unknown_topology_in_check(self, capsys):
        msg = self.fail(capsys, "check", "--max-ranks", "8", "--topologies", "hypercube")
        assert "hypercube" in msg

    def test_unknown_routing_in_check(self, capsys):
        msg = self.fail(capsys, "check", "--max-ranks", "8", "--routings", "bogus")
        assert "bogus" in msg

    @pytest.mark.parametrize(
        "flag, value", [("--payloads", "4096,x"), ("--apps", "LULESH")]
    )
    def test_bad_sweep_axis_value(self, capsys, flag, value):
        msg = self.fail(capsys, "sweep", flag, value)
        assert msg.startswith(f"error: {flag}: ")

    def test_missing_convert_dir(self, capsys, tmp_path):
        msg = self.fail(capsys, "convert", "--dir", str(tmp_path / "nope"), "--app", "X")
        assert "error: " in msg


    @pytest.mark.parametrize("rank", ["999", "-1"])
    def test_figure1_rank_outside_matrix(self, capsys, rank):
        msg = self.fail(capsys, "figure1", "--rank", rank)
        assert "out of range" in msg


class TestParseTimeValidation:
    """Out-of-range flag values exit 2 before any work: nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "routing", "--pairs", "0"],
            ["fuzz", "--count", "0"],
            ["fuzz", "--count", "-1"],
            ["telemetry", "--app", "LULESH", "--ranks", "64", "--threshold", "1.5"],
            ["compose", "--jobs", "LULESH:64", "--threshold", "0"],
            ["telemetry", "--app", "LULESH", "--ranks", "64", "--windows", "0"],
            ["simulate", "--app", "LULESH", "--ranks", "64", "--volume-scale", "0"],
            ["compose", "--jobs", "LULESH:64", "--volume-scale", "0.5"],
            ["critpath", "--max-repeat", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejected_at_parse_time(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "must be" in captured.err.splitlines()[-1]


class TestCommandTable:
    def test_parser_offers_exactly_the_table(self):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if a.dest == "command")
        assert list(sub.choices) == list(COMMANDS)

    def test_closed_stdout_exits_zero_without_traceback(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "table3", "--max-ranks", "64",
             "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # The reader is gone before the first write, as after `| head -1`.
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0, err
        assert err == ""


class TestCheckCommand:
    def test_check_passes_on_small_grid(self, capsys):
        rc = main(
            [
                "check",
                "--max-ranks",
                "10",
                "--topologies",
                "torus3d",
                "--routings",
                "minimal",
                "--no-sim",
                "--strict",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_check_verbose_lists_scenarios(self, capsys):
        rc = main(
            [
                "check",
                "--max-ranks",
                "10",
                "--topologies",
                "torus3d",
                "--routings",
                "minimal",
                "--no-sim",
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok (" in out


class TestFuzzCommand:
    def test_fuzz_smoke_seed(self, capsys):
        rc = main(["fuzz", "--count", "1", "--target-packets", "2000"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "0 failure(s)" in captured.out
