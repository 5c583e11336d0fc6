"""The component-bench declaration table (:data:`repro.bench.BENCHES`).

Cheap checks only, no bench runs: the committed ``BENCH_<target>.json``
records satisfy the table, a failing enforced gate makes ``repro bench``
exit 1, and the gate semantics (paths, ``*`` fan-out, worst value).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench import BENCHES, Gate
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _committed(name: str) -> dict:
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def _set(record: dict, path: str, value) -> None:
    """Overwrite every node ``path`` resolves to (``*`` fans out)."""
    *parents, leaf = path.split(".")
    nodes = [record]
    for key in parents:
        if key == "*":
            nodes = [
                v for n in nodes for v in (n.values() if isinstance(n, dict) else n)
            ]
        else:
            nodes = [n[key] for n in nodes]
    for node in nodes:
        for key in (node if leaf == "*" else [leaf]):
            node[key] = value


GATES = [
    pytest.param(name, gate, id=f"{name}-{gate.label}")
    for name, bench in BENCHES.items()
    for gate in bench.gates
]


class TestCommittedRecords:
    @pytest.mark.parametrize("name, gate", GATES)
    def test_carries_every_gate_and_passes_enforced_ones(self, name, gate):
        row = gate.check(_committed(name))
        assert row["value"] is not None, f"{name} record lacks {gate.path}"
        if gate.enforced:
            assert row["ok"], row

    @pytest.mark.parametrize("name", list(BENCHES))
    def test_written_by_the_declared_gates(self, name):
        record = _committed(name)
        declared = [gate.check(record) for gate in BENCHES[name].gates]
        assert record["gates"] == declared


class TestExitStatus:
    @pytest.mark.parametrize(
        "name, gate", [p for p in GATES if p.values[1].enforced]
    )
    def test_failing_enforced_gate_exits_1(
        self, name, gate, monkeypatch, tmp_path, capsys
    ):
        record = _committed(name)
        del record["gates"]
        _set(record, gate.path, None)
        bench = dataclasses.replace(BENCHES[name], run=lambda: record)
        monkeypatch.setitem(BENCHES, name, bench)
        out = tmp_path / "bench.json"
        assert main(["bench", name, "--out", str(out)]) == 1
        assert f"FAIL {gate.label}" in capsys.readouterr().out
        rows = json.loads(out.read_text())["gates"]
        assert [r["label"] for r in rows if not r["ok"]] == [gate.label]

    def test_failing_perf_only_gate_exits_0(self, monkeypatch, tmp_path):
        record = _committed("critpath")
        del record["gates"]
        record["sensitivity"]["coverage_gap"] = ["Nonesuch"]
        bench = dataclasses.replace(BENCHES["critpath"], run=lambda: record)
        monkeypatch.setitem(BENCHES, "critpath", bench)
        out = tmp_path / "bench.json"
        assert main(["bench", "critpath", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["gates"]
        assert [r["label"] for r in rows if not r["ok"]] == [
            "registry apps not covered"
        ]


class TestGate:
    RECORD = {"a": {"x": 1.0, "y": 3.0}, "b": [{"ok": True}, {"ok": False}]}

    def test_fan_out_reports_the_worst_value(self):
        row = Gate("max", "a.*", "<=", 5.0).check(self.RECORD)
        assert (row["value"], row["ok"]) == (3.0, True)
        row = Gate("min", "a.*", ">=", 2.0).check(self.RECORD)
        assert (row["value"], row["ok"]) == (1.0, False)

    def test_fan_out_over_a_list(self):
        row = Gate("all", "b.*.ok", "==", True).check(self.RECORD)
        assert (row["value"], row["ok"]) == (False, False)

    @pytest.mark.parametrize("path", ["a.z", "c", "a.x.deeper"])
    def test_missing_value_fails(self, path):
        row = Gate("missing", path, ">=", 0).check(self.RECORD)
        assert (row["value"], row["ok"]) == (None, False)

    def test_none_fails_every_comparison(self):
        row = Gate("none", "v", "<=", 1.0).check({"v": None})
        assert row["ok"] is False
