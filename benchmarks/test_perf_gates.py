"""Every component-bench gate, one test each (``pytest -m perf``).

The gates are declared once, in :data:`repro.bench.BENCHES`; this module
only derives tests from that table.  Each bench runs once per session, on
first use, and its record is written to ``BENCH_<name>.json`` at the repo
root through the same writer ``repro bench`` uses.  Enforced and
perf-only gates are asserted alike here; only the enforced ones also
fail ``repro bench`` (and CI).

Run one bench's gates with, e.g.,
``PYTHONPATH=src python -m pytest -m perf benchmarks/test_perf_gates.py -k collectives``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import BENCHES, write_bench

pytestmark = pytest.mark.perf

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def records() -> dict[str, dict]:
    """Each bench's record, measured on first use."""
    return {}


@pytest.mark.parametrize(
    "name, index",
    [
        pytest.param(name, i, id=f"{name}-{gate.label}")
        for name, bench in BENCHES.items()
        for i, gate in enumerate(bench.gates)
    ],
)
def test_gate(records, name, index):
    if name not in records:
        records[name] = BENCHES[name].measure()
        write_bench(ROOT / f"BENCH_{name}.json", records[name])
    row = records[name]["gates"][index]
    assert row["ok"], (
        f"{name}: {row['label']}: measured {row['value']!r}, "
        f"required {row['op']} {row['bound']!r}"
    )
