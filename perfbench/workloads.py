"""The benchmark's workloads: a cold leg and a warm leg each, built from a seed.

A leg returns its output *units* as ``(unit_id, output)`` pairs — one table
row, report row or sweep cell each; the rendered report is one more unit.
Unit ids never depend on the seed, so the ids recorded for the default seed
in ``expected.json`` describe every seed's grid.  Why each workload exists
is recorded in ``BENCHMARK.json`` and ``README.md``.

``repro`` is imported inside the functions: ``run.py`` reads the workload
names without importing the program, and a child interpreter pays for the
imports in its measured set-up.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

Units = list[tuple[str, Any]]

#: ``build_table{1,3,4}`` cut: 32 of the 41 configurations and 8 of the 10
#: Table-4 workloads.  The nine configurations above 1000 ranks (AMG@1728,
#: BigFFT@1024, ...) took ~90 % of the full grid's ~5.5 s, which left room
#: for only three repetitions per run; the medians of three did not repeat.
TABLES_MAX_RANKS = 1000

#: ``build_report``/``build_collective_deltas`` cut.  The full-registry
#: report runs ~93 s and peaks at 5.5 GB; at 64 ranks the critical-path
#: column still dominates the leg.
REPORT_MAX_RANKS = 64

#: The sim/telemetry grid.  LULESH runs at 64 ranks instead of 512,
#: MOCFE@256 is left out and the volume scale is raised (3200 instead of
#: 400) to keep one leg near 1.5 s.
SIM_APPS = (("LULESH", 64), ("AMG", 216), ("CMC_2D", 256))
SIM_VOLUME_SCALE = 3200.0

#: Warm legs of the sweep workloads run the grid again at this multiple of
#: the bandwidth, so every cell is recomputed from warm intermediates.
WARM_BANDWIDTH_FACTOR = 2.0

#: Sweep-record fields that do not depend on the bandwidth: the part of a
#: cell a shifted-bandwidth warm leg must reproduce exactly.
STATIC_FIELDS = (
    "app", "ranks", "topology", "mapping", "routing", "collective",
    "payload", "packet_hops", "avg_hops", "used_links",
)


@dataclass(frozen=True)
class Workload:
    name: str
    cold: Callable[[int], Units]
    warm: Callable[[int], Units]
    #: A tiny run through the same code paths, made during set-up so that
    #: imports and first-touch costs stay out of the cold leg.
    prime: Callable[[int], object]
    #: The part of a unit the warm leg must reproduce from the cold leg.
    static: Callable[[Any], Any] = lambda out: out
    #: True when a unit came back N/A (a NaN dT/dL or makespan).
    degraded: Callable[[Any], bool] = lambda out: False


# ------------------------------------------------------------ paper_tables


def _tables(seed: int, max_ranks: int = TABLES_MAX_RANKS) -> Units:
    from repro.analysis import tables

    t1 = tables.build_table1(max_ranks=max_ranks, seed=seed)
    t3 = tables.build_table3(max_ranks=max_ranks, seed=seed)
    t4 = tables.build_table4(max_ranks=max_ranks, seed=seed)
    return (
        [(f"t1:{r.label}", r) for r in t1]
        + [(f"t3:{r.label}", r) for r in t3]
        + [(f"t4:{r.label}", r) for r in t4]
    )


def _table3(seed: int) -> Units:
    from repro.analysis import tables

    rows = tables.build_table3(max_ranks=TABLES_MAX_RANKS, seed=seed)
    return [(f"t3:{r.label}", r) for r in rows]


# --------------------------------------------------------- report_critpath


def _report(seed: int, max_ranks: int = REPORT_MAX_RANKS) -> Units:
    from repro.analysis import report

    rows = report.build_report(max_ranks=max_ranks, seed=seed)
    deltas = report.build_collective_deltas(max_ranks=max_ranks, seed=seed)
    text = report.render_report(rows)
    if deltas:
        text += "\n\n" + report.render_collective_deltas(deltas)
    return (
        [(f"report:{r.label}", r) for r in rows]
        + [
            (f"delta:{d.app}@{d.ranks}/{d.topology}/{d.routing}/{d.collective}", d)
            for d in deltas
        ]
        + [("render", text)]
    )


def _report_degraded(out: Any) -> bool:
    sensitivity = getattr(out, "latency_sensitivity", 0.0)
    return math.isnan(sensitivity)


# ------------------------------------------------ sweep_mapping, sim_telemetry


def _sweep_units(spec) -> Units:
    from repro.analysis.sweep import run_sweep

    return [
        (
            f"{r['app']}@{r['ranks']}/{r['topology']}/{r['mapping']}"
            f"/{r['routing']}/{r['payload']}",
            r,
        )
        for r in run_sweep(spec, workers=1)
    ]


def _shifted(spec):
    return dataclasses.replace(
        spec, bandwidths=tuple(b * WARM_BANDWIDTH_FACTOR for b in spec.bandwidths)
    )


def mapping_spec(seed: int):
    """The 216-cell reference grid without BigFFT@1024 and payload 1024.

    BigFFT@1024 alone costs ~36 s cold, more than a whole run may take, and
    the second payload doubles the leg; without them (90 cells) ``mapping``
    still dominates the cold leg.
    """
    from repro.bench import sweep_bench_spec

    spec = sweep_bench_spec()
    apps = tuple(app for app in spec.apps if app[0] != "BigFFT")
    return dataclasses.replace(spec, apps=apps, payloads=(4096,), seed=seed)


def sim_spec(seed: int, apps=SIM_APPS):
    from repro.analysis.sweep import SweepSpec

    return SweepSpec(
        apps=apps,
        topologies=("torus3d", "fattree", "dragonfly"),
        routings=("minimal", "valiant", "ugal"),
        telemetry=True,
        sim_volume_scale=SIM_VOLUME_SCALE,
        seed=seed,
    )


def _static_fields(record: dict) -> dict:
    return {key: record[key] for key in STATIC_FIELDS}


def _sim_degraded(record: dict) -> bool:
    return math.isnan(record["makespan_inflation"])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_tables",
            cold=_tables,
            warm=_table3,
            prime=lambda seed: _tables(seed, max_ranks=16),
        ),
        Workload(
            name="report_critpath",
            cold=_report,
            warm=_report,
            prime=lambda seed: _report(seed, max_ranks=16),
            degraded=_report_degraded,
        ),
        Workload(
            name="sweep_mapping",
            cold=lambda seed: _sweep_units(mapping_spec(seed)),
            warm=lambda seed: _sweep_units(_shifted(mapping_spec(seed))),
            prime=lambda seed: _sweep_units(
                dataclasses.replace(mapping_spec(seed), apps=(("LULESH", 64),))
            ),
            static=_static_fields,
        ),
        Workload(
            name="sim_telemetry",
            cold=lambda seed: _sweep_units(sim_spec(seed)),
            warm=lambda seed: _sweep_units(_shifted(sim_spec(seed))),
            prime=lambda seed: _sweep_units(sim_spec(seed, apps=(("LULESH", 64),))),
            static=_static_fields,
            degraded=_sim_degraded,
        ),
    )
}
