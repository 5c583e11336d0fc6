"""Tests for the report generator and the extended CLI commands."""

import pytest

from repro.analysis.report import build_report, render_report
from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestReport:
    @pytest.fixture(scope="class")
    def rows(self):
        return build_report(max_ranks=70)

    def test_one_row_per_base_configuration(self, rows):
        labels = [r.label for r in rows]
        assert "LULESH@64" in labels
        assert "LULESH@64/b" not in labels  # variants folded
        assert len(labels) == len(set(labels))

    def test_fields_sane(self, rows):
        for r in rows:
            assert r.total_mb > 0
            assert 0.0 <= r.p2p_share <= 1.0
            assert r.best_topology in ("torus3d", "fattree", "dragonfly")
            assert r.best_hops > 0
            assert 0.0 <= r.useful_energy_fraction <= 1.0

    def test_render_markdown(self, rows):
        text = render_report(rows)
        assert text.startswith("# Network-locality characterization report")
        assert "| LULESH@64 |" in text
        assert "N/A" in text  # the all-collective apps


class TestCLIExtensions:
    def test_report_stdout(self, capsys):
        out = run(capsys, "report", "--max-ranks", "30")
        assert "characterization report" in out

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        out = run(capsys, "report", "--max-ranks", "30", "--out", str(path))
        assert path.exists()
        assert "wrote report" in out

    def test_heatmap(self, capsys):
        out = run(capsys, "heatmap", "--app", "LULESH", "--ranks", "64", "--bins", "8")
        assert "fill" in out and "gini" in out

    def test_slack(self, capsys):
        out = run(capsys, "slack", "--app", "MiniFE", "--ranks", "18")
        assert "min slack" in out
        assert "per-link provisioning" in out

    def test_slack_dragonfly_breakdown(self, capsys):
        out = run(
            capsys, "slack", "--app", "AMG", "--ranks", "27",
            "--topology", "dragonfly",
        )
        assert "global/local" in out

    def test_convert_roundtrip(self, capsys, tmp_path):
        import textwrap

        body = textwrap.dedent(
            """\
            MPI_Send entering at walltime 10.0, cputime 0.0 seconds in thread 0.
            int count=100
            MPI_Datatype datatype=2 (MPI_CHAR)
            int dest=1
            int tag=0
            MPI_Comm comm=2 (MPI_COMM_WORLD)
            MPI_Send returning at walltime 10.1, cputime 0.1 seconds in thread 0.
            """
        )
        (tmp_path / "run-0000.txt").write_text(body)
        (tmp_path / "run-0001.txt").write_text("")
        out_file = tmp_path / "converted.dumpi.txt"
        out = run(
            capsys, "convert", "--dir", str(tmp_path), "--app", "realapp",
            "--out", str(out_file),
        )
        assert "converted realapp@2" in out
        from repro.dumpi.parser import load_trace

        trace = load_trace(out_file)
        assert trace.meta.app == "realapp"
        assert trace.p2p_bytes() == 100


class TestReportBenchPipeline:
    def test_renders_what_repro_report_prints(self, capsys):
        import hashlib

        from repro.bench import run_report_pipeline

        result = run_report_pipeline(max_ranks=16)
        out = run(capsys, "report", "--max-ranks", "16")
        assert result["sha256"] == hashlib.sha256(out.encode()).hexdigest()
        assert result["warm_identical"] is True
        assert result["rows"] == len(build_report(max_ranks=16))
