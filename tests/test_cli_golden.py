"""Golden transcripts of the command-line interface.

Every subcommand runs at a small input, in-process through
``repro.cli.main``; its stdout, the last line of its stderr and its exit
status must match ``tests/golden/cli_transcripts.json`` byte for byte.
The scratch directory of a run prints as ``{tmp}``.  The service commands
run once against a live ``repro serve``.  ``tests/golden/cli_options.json``
pins every option of the global parser and of each subcommand: option
strings, dest, default, choices, required, action and nargs.

Regenerate both files only when the CLI is meant to change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.service.client import SweepClient

from helpers import shutdown_server, spawn_server

GOLDEN = Path(__file__).resolve().parent / "golden"
TRANSCRIPTS = GOLDEN / "cli_transcripts.json"
OPTIONS = GOLDEN / "cli_options.json"

#: (name, argv) of the cases that need no service; ``{tmp}`` is a fresh
#: scratch directory holding a two-rank dumpi2ascii dump in ``dumpi/``.
CASES = [
    ("version", ["--version"]),
    ("table1", ["table1", "--max-ranks", "64"]),
    ("table1-json", ["table1", "--max-ranks", "64", "--format", "json"]),
    ("table2", ["table2"]),
    ("table2-csv", ["table2", "--format", "csv"]),
    ("table3", ["table3", "--max-ranks", "64"]),
    ("table3-csv", ["table3", "--max-ranks", "64", "--format", "csv"]),
    ("table4", ["table4", "--max-ranks", "64"]),
    ("table4-json", ["table4", "--max-ranks", "64", "--format", "json"]),
    ("figure1", ["figure1"]),
    ("figure1-rank", ["figure1", "--app", "AMG", "--ranks", "27", "--rank", "5"]),
    ("figure3", ["figure3", "--max-ranks", "64"]),
    ("figure4", ["figure4", "--app", "CrystalRouter"]),
    ("figure5", ["figure5", "--min-ranks", "500", "--max-ranks", "600"]),
    ("claims", ["claims", "--max-ranks", "64"]),
    ("report", ["report", "--max-ranks", "16"]),
    ("report-out", [
        "report", "--max-ranks", "16", "--no-collective-deltas",
        "--out", "{tmp}/report.md",
    ]),
    ("heatmap", ["heatmap", "--app", "LULESH", "--ranks", "64", "--bins", "8"]),
    ("slack", ["slack", "--app", "LULESH", "--ranks", "64"]),
    ("slack-ugal", [
        "slack", "--app", "CMC_2D", "--ranks", "64", "--topology", "fattree",
        "--routing", "ugal", "--routing-seed", "3",
        "--collective-algo", "binomial",
    ]),
    ("simulate", [
        "simulate", "--app", "LULESH", "--ranks", "64", "--volume-scale", "64",
    ]),
    ("simulate-valiant", [
        "simulate", "--app", "LULESH", "--ranks", "64", "--volume-scale", "64",
        "--topology", "dragonfly", "--routing", "valiant",
        "--engine", "reference", "--collective-algo", "ring",
    ]),
    ("telemetry", [
        "telemetry", "--app", "LULESH", "--ranks", "64", "--volume-scale", "64",
        "--windows", "8", "--threshold", "0.5",
    ]),
    ("telemetry-compare", [
        "telemetry", "--app", "LULESH", "--ranks", "64", "--volume-scale", "64",
        "--windows", "8", "--compare", "minimal,ugal",
    ]),
    ("telemetry-out", [
        "telemetry", "--app", "AMG", "--ranks", "8", "--volume-scale", "8",
        "--windows", "4", "--out", "{tmp}/telemetry.json",
    ]),
    ("compose", [
        "compose", "--jobs", "LULESH:64", "--noise", "HotspotNoise:64",
        "--allocation", "round_robin", "--volume-scale", "16", "--windows", "8",
    ]),
    ("critpath", ["critpath", "--app", "AMG", "--ranks", "8"]),
    ("critpath-none", [
        "critpath", "--app", "LULESH", "--ranks", "64", "--topology", "none",
        "--no-fd",
    ]),
    ("critpath-random", [
        "critpath", "--app", "AMG", "--ranks", "8", "--mapping", "random",
        "--seed", "1", "--latency-s", "0.000002", "--max-repeat", "0",
    ]),
    ("critpath-table", ["critpath", "--table", "--max-ranks", "27"]),
    ("sweep", ["sweep", "--apps", "LULESH:64,AMG:8", "--topologies", "torus3d,fattree"]),
    ("sweep-csv", [
        "sweep", "--app", "AMG", "--ranks", "8", "--topologies", "torus3d",
        "--mappings", "consecutive,random", "--routings", "minimal,ecmp",
        "--seed", "2", "--format", "csv",
    ]),
    ("sweep-json", [
        "sweep", "--apps", "AMG:8", "--topologies", "torus3d",
        "--collectives", "flat,binomial", "--payloads", "1024",
        "--critpath", "--telemetry", "--format", "json",
    ]),
    ("trace", ["trace", "--app", "CrystalRouter", "--ranks", "10"]),
    ("trace-out", [
        "trace", "--app", "MiniFE", "--ranks", "18", "--seed", "1",
        "--out", "{tmp}/t.dumpi.txt",
    ]),
    ("convert", ["convert", "--dir", "{tmp}/dumpi", "--app", "real"]),
    ("convert-out", [
        "convert", "--dir", "{tmp}/dumpi", "--app", "real",
        "--out", "{tmp}/real.dumpi.txt",
    ]),
    ("compare", ["compare", "--max-ranks", "64"]),
    ("validate", ["validate", "--max-ranks", "64"]),
    ("check", [
        "check", "--max-ranks", "10", "--topologies", "torus3d",
        "--routings", "minimal", "--no-sim", "--strict",
    ]),
    ("check-verbose", [
        "check", "--max-ranks", "8", "--apps", "AMG", "--topologies", "fattree",
        "--routings", "minimal,ecmp", "--collectives", "flat,binomial",
        "--target-packets", "2000", "--verbose",
    ]),
    ("fuzz", ["fuzz", "--count", "1", "--target-packets", "2000"]),
    ("fuzz-offset", [
        "fuzz", "--count", "1", "--offset", "3", "--max-ranks", "16",
        "--target-packets", "1000", "--no-shrink",
    ]),
    ("apps", ["apps"]),
    # Existing error paths: one line on stderr, exit 2.
    ("error-unknown-app", ["figure1", "--app", "Nope", "--ranks", "64"]),
    ("error-sweep-payloads", ["sweep", "--payloads", "4096,x"]),
    ("error-sweep-apps", ["sweep", "--apps", "LULESH"]),
    ("error-bench-target", ["bench", "nonsense"]),
    ("error-bench-pairs", ["bench", "critpath", "--pairs", "10"]),
    ("error-critpath-table-app", [
        "critpath", "--table", "--app", "AMG", "--ranks", "8",
    ]),
    ("error-convert-dir", ["convert", "--dir", "{tmp}/nope", "--app", "X"]),
    ("error-unreachable", ["jobs", "--state", "{tmp}/nowhere"]),
    ("error-unreachable-submit", [
        "submit", "--state", "{tmp}/nowhere", "--socket", "{tmp}/none.sock",
    ]),
]

_DUMPI_SEND = textwrap.dedent(
    """\
    MPI_Send entering at walltime 100.50, cputime 0.2 seconds in thread 0.
    int count=4096
    MPI_Datatype datatype=2 (MPI_CHAR)
    int dest=1
    int tag=7
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Send returning at walltime 100.60, cputime 0.3 seconds in thread 0.
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


def _prepare(tmp: Path) -> None:
    dumpi = tmp / "dumpi"
    dumpi.mkdir()
    (dumpi / "dumpi-0000.txt").write_text(_DUMPI_SEND + _DUMPI_ALLREDUCE)
    (dumpi / "dumpi-0001.txt").write_text(_DUMPI_ALLREDUCE)


def run_cli(argv: list[str], tmp: Path) -> dict:
    """Run one command in-process; its transcript with ``tmp`` as ``{tmp}``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{tmp}", str(tmp)) for a in argv])
        except SystemExit as exc:
            code = exc.code or 0
    lines = [line for line in err.getvalue().splitlines() if line.strip()]

    def norm(text: str) -> str:
        return text.replace(str(tmp), "{tmp}")

    return {
        "argv": argv,
        "code": code,
        "stdout": norm(out.getvalue()),
        "stderr_last": norm(lines[-1]) if lines else "",
    }


def run_service_cases(tmp: Path) -> dict[str, dict]:
    """The client commands against one live service, in a fixed order."""
    state = tmp / "state"
    socket_path = state / "service.sock"
    service = ["--state", "{tmp}/state"]
    grid = ["--apps", "AMG:8", "--topologies", "torus3d,fattree"]
    server = spawn_server(state, socket_path)
    client = None
    try:
        client = SweepClient.wait_ready(socket_path, timeout=60.0)
        found = {"submit": run_cli(["submit", *service, *grid], tmp)}
        # Wait outside the CLI, so every later attach replays a finished
        # job and prints the same lines whatever the timing.
        client.wait("job-0001")
        steps = [
            ("attach", ["attach", *service, "job-0001"]),
            ("attach-results", ["attach", *service, "job-0001", "--results"]),
            ("attach-json", [
                "attach", *service, "job-0001", "--results", "--format", "json",
            ]),
            ("submit-wait", ["submit", *service, *grid, "--wait", "--format", "csv"]),
            ("jobs", ["jobs", *service]),
            ("jobs-cancel", [
                "jobs", *service, "--socket", "{tmp}/state/service.sock",
                "--cancel", "job-0001",
            ]),
            ("error-attach-unknown", ["attach", *service, "job-9999"]),
            ("error-submit-bad-axis", ["submit", *service, "--routings", "bogus"]),
            ("jobs-shutdown", ["jobs", *service, "--shutdown"]),
        ]
        for name, argv in steps:
            found[name] = run_cli(argv, tmp)
    finally:
        if client is not None:
            shutdown_server(client, server)
        elif server.poll() is None:
            server.kill()
            server.wait(timeout=10)
    return found


def option_inventory() -> dict[str, list[dict]]:
    """Every action of the global parser and of each subcommand."""

    def describe(parser: argparse.ArgumentParser) -> list[dict]:
        rows = []
        for action in parser._actions:
            choices = action.choices
            if isinstance(choices, dict):
                choices = list(choices)
            elif choices is not None:
                choices = list(choices)
            rows.append(
                {
                    "option_strings": list(action.option_strings),
                    "dest": action.dest,
                    "default": repr(action.default),
                    "choices": choices,
                    "required": action.required,
                    "action": type(action).__name__,
                    "nargs": action.nargs,
                }
            )
        return rows

    parser = build_parser()
    inventory = {"": describe(parser)}
    (sub,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, subparser in sub.choices.items():
        inventory[name] = describe(subparser)
    return inventory


def _golden() -> dict[str, dict]:
    return json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("golden")
    _prepare(tmp)
    return tmp


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_transcript(name, argv, scratch):
    assert run_cli(argv, scratch) == _golden()[name]


def test_service_transcripts(tmp_path):
    golden = _golden()
    found = run_service_cases(tmp_path)
    assert found == {name: golden[name] for name in found}


def test_every_subcommand_has_a_transcript():
    commands = {name for name in option_inventory() if name}
    run = {entry["argv"][0] for entry in _golden().values()}
    assert commands - run == {"serve"}  # spawned as a process, not in-process


def test_option_inventory_is_unchanged():
    pinned = json.loads(OPTIONS.read_text(encoding="utf-8"))
    assert option_inventory() == pinned


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _prepare(tmp)
        transcripts = {case: run_cli(argv, tmp) for case, argv in CASES}
    with tempfile.TemporaryDirectory() as name:
        transcripts.update(run_service_cases(Path(name)))
    TRANSCRIPTS.write_text(
        json.dumps(transcripts, indent=1) + "\n", encoding="utf-8"
    )
    OPTIONS.write_text(
        json.dumps(option_inventory(), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(transcripts)} transcripts to {TRANSCRIPTS}")
