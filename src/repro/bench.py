"""Component benchmarks behind ``repro bench``, each declared once.

:data:`BENCHES` is the whole harness: one :class:`Bench` per target
(name, measuring function, gates, optional detail renderer), and one
:class:`Gate` per asserted bound (label, value path into the record,
comparison, bound, ``enforced``).  Everything else is derived from it:

- the JSON record (:meth:`Bench.measure` + :func:`write_bench`): the
  measured fields under their own names, plus one ``gates`` list of
  label/value/bound/ok rows;
- the text report (:func:`render_bench`): the gate rows, plus a detail
  table only where the gates do not cover the per-row numbers;
- ``repro bench <target>``'s target list, and its exit status 1 when an
  enforced gate fails;
- ``benchmarks/test_perf_gates.py``, one parametrized test per gate;
- the CI bench matrix, which relies on that exit status.

``enforced`` marks the deterministic gates: bit-identity, route-walk
validity, structural ratios (route counts, expanded bytes, hops) and the
peak-RSS ratio over a fixed budget, all stable on shared runners.  The
other gates are same-machine wall-time ratios (and the workload-regime
checks that pin what those ratios are measured on); only ``pytest -m perf
benchmarks/`` asserts them.  Wall times themselves are provenance, never
compared across machines.  Each target's one-line description is the
first line of its measuring function's docstring.
"""

from __future__ import annotations

import hashlib
import json
import operator
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import timings

__all__ = [
    "BENCHES",
    "Bench",
    "Gate",
    "render_bench",
    "write_bench",
    "run_routing_bench",
    "run_sim_bench",
    "run_telemetry_bench",
    "run_scale_pipeline",
    "run_scale_bench",
    "run_report_pipeline",
    "run_report_bench",
    "sweep_bench_spec",
    "run_sweep_bench",
    "run_tenancy_bench",
    "run_critpath_bench",
    "run_collectives_bench",
]

_COMPARE = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Gate:
    """One bound on one measured value of a bench record.

    ``path`` is dotted keys into the record; a ``*`` segment fans out over
    every entry of a mapping or list, and the gate holds only if it holds
    for each.  A missing or ``None`` value fails the gate.
    """

    label: str
    path: str
    op: str
    bound: Any
    enforced: bool = False

    def values(self, record: dict[str, Any]) -> list[Any]:
        nodes = [record]
        for key in self.path.split("."):
            if key == "*":
                nodes = [
                    v
                    for n in nodes
                    for v in (n.values() if isinstance(n, dict) else n)
                ]
            else:
                nodes = [n[key] for n in nodes]
        return nodes

    def check(self, record: dict[str, Any]) -> dict[str, Any]:
        """This gate's row: the worst measured value and the verdict."""
        try:
            values = self.values(record)
        except (KeyError, IndexError, TypeError):
            values = []
        compare = _COMPARE[self.op]
        failing = [
            v for v in values if v is None or not compare(v, self.bound)
        ]
        if failing:
            value = failing[0]
        elif not values:
            value = None
        elif self.op == "==":
            value = values[0]
        else:  # the value closest to the bound
            value = (max if self.op.startswith("<") else min)(values)
        return {
            "label": self.label,
            "value": value,
            "op": self.op,
            "bound": self.bound,
            "enforced": self.enforced,
            "ok": bool(values) and not failing,
        }


@dataclass(frozen=True)
class Bench:
    """One ``repro bench`` target: what it measures and what it asserts."""

    name: str
    run: Callable[..., dict[str, Any]]
    gates: tuple[Gate, ...]
    #: Renders the per-row tables the gate rows do not summarize.
    detail: Callable[[dict[str, Any]], list[str]] | None = None

    @property
    def title(self) -> str:
        return (self.run.__doc__ or self.name).strip().splitlines()[0].rstrip(".")

    def measure(self, **kwargs: Any) -> dict[str, Any]:
        """Run the bench; the record carries its evaluated ``gates``."""
        record = self.run(**kwargs)
        record["gates"] = [gate.check(record) for gate in self.gates]
        return record


def write_bench(path: str | Path, record: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def render_bench(bench: Bench, record: dict[str, Any]) -> str:
    lines = [f"{bench.name}: {bench.title}"]
    if bench.detail is not None:
        lines += bench.detail(record)
    for row in record["gates"]:
        lines.append(
            f"  {'ok' if row['ok'] else 'FAIL':<4} {row['label']:<44} "
            f"{row['value']!s:>10} {row['op']:<2} {row['bound']!s:<10} "
            f"{'enforced' if row['enforced'] else 'perf only'}"
        )
    return "\n".join(lines)


#: ``scale``: rank count, per-chunk byte budget, the fixed peak-RSS budget
#: the gated ratio divides by, and the hard ``RLIMIT_AS`` cap on the
#: measured subprocess — twice the budget, since interpreter text, guard
#: pages and allocator slack live in virtual memory that never becomes
#: resident.
SCALE_RANKS = 262_144
SCALE_CHUNK_MB = 8.0
SCALE_RSS_BUDGET_MB = 2048.0
SCALE_RLIMIT_GB = 4.0

#: ``report``: the full-registry report's fixed peak-RSS budget and the
#: ``RLIMIT_AS`` cap on its subprocess, twice the budget as for ``scale``.
REPORT_RSS_BUDGET_MB = 2048.0
REPORT_RLIMIT_GB = 4.0

#: ``routing``: pairs per topology and policy whose routes are checked to
#: be valid walks (a Python loop per pair, ~40 us each).
ROUTING_WALK_SAMPLE = 1000

#: ``sim``: the dense application of perfbench's ``sim_telemetry`` grid
#: and that grid's volume scale.
SIM_GROUP_APP = ("AMG", 216)
SIM_GROUP_VOLUME_SCALE = 3200.0

#: ``sweep``: persistent service workers, and the reference grid — six
#: study apps at their largest common scales, crossed with every
#: topology, three mappings, two payloads, and two routing policies: 216
#: cells, heavy on the shared intermediates cache affinity monetizes.
SWEEP_WORKERS = 2
SWEEP_BENCH_APPS = (
    ("LULESH", 512),
    ("AMG", 216),
    ("BigFFT", 1024),
    ("Nekbone", 256),
    ("CMC_2D", 256),
    ("MOCFE", 256),
)

#: ``tenancy``: the victim-load scenario's packet scaling.
TENANCY_VOLUME_SCALE = 64.0
TENANCY_MAX_PACKETS = 5_000_000

#: ``collectives``: the collective-heavy flat-vs-binomial workload.
COLLECTIVES_DELTA_WORKLOAD = ("CMC_2D", 64)


def _timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
    """``fn(*args, **kwargs)`` and its wall time in seconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def run_routing_bench(
    ranks: int = 1728, pairs: int = 100_000, seed: int = 0
) -> dict[str, Any]:
    """Route-construction throughput of every policy at 1728 ranks.

    One batch of ``pairs`` random node pairs per topology, routed once per
    policy (load-aware policies see uniform unit weights); the routes of
    the batch's first :data:`ROUTING_WALK_SAMPLE` pairs are checked to be
    valid walks (:func:`repro.routing.validate.walks_are_valid`).  Plus a
    cold/warm pass through :func:`repro.cache.cached_route_incidence` on
    the minimal policy to measure the memoization speedup the pipeline
    relies on.
    """
    from . import cache
    from .routing import ROUTINGS, get_policy
    from .routing.validate import walks_are_valid
    from .topology.base import RouteIncidence
    from .topology.configs import build_all

    topologies = build_all(ranks)
    rng = np.random.default_rng(seed)
    per_topology: dict[str, Any] = {}
    slowdowns: dict[str, list[float]] = {name: [] for name in ROUTINGS}
    for kind, topology in topologies.items():
        src = rng.integers(0, topology.num_nodes, size=pairs)
        dst = rng.integers(0, topology.num_nodes, size=pairs)
        entry: dict[str, Any] = {}
        for name in ROUTINGS:
            policy = get_policy(name, seed=seed)
            inc, dt = _timed(policy.route_incidence, topology, src, dst)
            sampled = inc.pair_index < ROUTING_WALK_SAMPLE
            walks = walks_are_valid(
                topology,
                src[:ROUTING_WALK_SAMPLE],
                dst[:ROUTING_WALK_SAMPLE],
                RouteIncidence(inc.pair_index[sampled], inc.link_id[sampled]),
            )
            entry[name] = {
                "seconds": round(dt, 4),
                "pairs_per_s": round(pairs / dt) if dt else None,
                "incidence_rows": inc.num_incidences,
                "mean_hops": round(inc.num_incidences / pairs, 3),
                "invalid_walks": int((~walks).sum()),
            }
        for name in ROUTINGS:
            slowdowns[name].append(
                entry[name]["seconds"] / max(entry["minimal"]["seconds"], 1e-9)
            )
        per_topology[kind] = entry

    # Warm/cold memoization ratio, measured in a clean in-memory cache.
    topology = topologies["torus3d"]
    src = rng.integers(0, topology.num_nodes, size=pairs)
    dst = rng.integers(0, topology.num_nodes, size=pairs)
    cache.clear(memory=True)
    cold = _timed(cache.cached_route_incidence, topology, src, dst)[1]
    warm = _timed(cache.cached_route_incidence, topology, src, dst)[1]
    cache_speedup = round(cold / max(warm, 1e-9), 1)

    return {
        "routing": per_topology,
        "summary": {
            "ranks": ranks,
            "pairs": pairs,
            "seed": seed,
            "slowdown_vs_minimal": {
                name: round(float(np.exp(np.mean(np.log(vals)))), 2)
                for name, vals in slowdowns.items()
            },
            "cache_cold_s": round(cold, 4),
            "cache_warm_s": round(warm, 6),
            "cache_speedup": cache_speedup,
        },
    }


def _dragonfly_setup(
    num_pairs: int, packets_per_pair: int, execution_time: float, seed: int
):
    """The ~500k-packet Dragonfly(8,4,4) simulation: random node pairs,
    ``packets_per_pair`` packets each, injected over ``execution_time``."""
    from .comm.matrix import CommMatrixBuilder
    from .sim.common import prepare_simulation
    from .topology.dragonfly import Dragonfly

    topo = Dragonfly(8, 4, 4)
    rng = np.random.default_rng(0)
    builder = CommMatrixBuilder(topo.num_nodes)
    src = rng.integers(0, topo.num_nodes, num_pairs)
    dst = (src + rng.integers(1, topo.num_nodes, num_pairs)) % topo.num_nodes
    packets = np.full(num_pairs, packets_per_pair, dtype=np.int64)
    builder.add_arrays(src, dst, packets * 4096, packets, packets)
    return prepare_simulation(
        builder.finalize(),
        topo,
        execution_time=execution_time,
        seed=seed,
        max_packets=2_000_000,
    )


def _results_identical(a, b) -> bool:
    """Every field of two simulation results equal bit for bit, arrays and
    telemetry reports included."""
    from .telemetry import reports_equal

    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "telemetry":
            same = reports_equal(x, y)
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            same = x is not None and y is not None and np.array_equal(x, y)
        else:
            same = x == y
        if not same:
            return False
    return True


def _bits(value: Any) -> Any:
    """A comparable form of a result that keeps every float bit: dataclasses
    by field, floats as ``float.hex`` (so equal NaNs compare equal)."""
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, f.name)) for f in fields(value)
        )
    if isinstance(value, dict):
        return tuple((key, _bits(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_bits(item) for item in value)
    if isinstance(value, float):
        return value.hex()
    return value


def _sim_group_setups() -> list:
    """The nine AMG@216 cells of perfbench's ``sim_telemetry`` grid
    (every topology x minimal/valiant/ugal, consecutive mapping, seed 0,
    volume scale 3200), prepared as a sweep prepares them: the dense cells
    a sweep simulates as groups."""
    from .analysis.sweep import SweepSpec, _start_point, unique_points

    spec = SweepSpec(
        apps=(SIM_GROUP_APP,),
        routings=("minimal", "valiant", "ugal"),
        telemetry=True,
        sim_volume_scale=SIM_GROUP_VOLUME_SCALE,
    )
    points, _ = unique_points(spec)
    return [
        setup for point in points for _, setup, _ in _start_point(spec, point)[1]
    ]


def run_sim_bench(repeats: int = 5) -> dict[str, Any]:
    """Packet-simulation kernels and the Table-3 cache.

    Three sections.  ``simulator``: the batched kernel against the
    per-event reference loop on the ~500k-packet Dragonfly(8,4,4)
    simulation (packet-hop throughput).  ``table3_cache``: a full Table-3
    reproduction cold and then warm through the content-keyed cache (the
    incidence region is sized so the 41-config x 3-topology grid fits);
    the warm rows must equal the cold ones bit for bit (:func:`_bits`).
    ``groups``: the nine AMG@216 ``sim_telemetry`` cells with telemetry,
    run as :func:`repro.analysis.sweep.run_sweep` groups them (one
    :func:`~repro.sim.engine.run_group` per
    :data:`~repro.sim.engine.GROUP_HOP_BUDGET`) and one at a time; the
    ratio is the median over ``repeats`` rounds of both, in alternating
    order.
    """
    from . import cache
    from .analysis.tables import build_table3
    from .sim.engine import GROUP_HOP_BUDGET, run_batched, run_group
    from .sim.reference import run_reference
    from .telemetry import TelemetryConfig, WindowedCollector

    setup = _dragonfly_setup(2_000, 250, 1.1e-3, 7)
    batched, batched_s = _timed(run_batched, setup)
    reference, reference_s = _timed(run_reference, setup)
    simulator = {
        "topology": "Dragonfly(8,4,4)",
        "packets": setup.total_packets,
        "packet_hops": setup.total_hops,
        "execution_time_s": 1.1e-3,
        "dynamic_utilization": round(batched.dynamic_utilization, 4),
        "congested_packet_share": round(batched.congested_packet_share, 4),
        "reference_s": round(reference_s, 3),
        "batched_s": round(batched_s, 3),
        "reference_hops_per_s": round(setup.total_hops / reference_s),
        "batched_hops_per_s": round(setup.total_hops / batched_s),
        "speedup": round(reference_s / batched_s, 2),
        "identical": _results_identical(batched, reference),
    }
    del setup, batched, reference

    incidence = cache._regions["incidence"].maxsize
    cache.configure(disable_disk=True, memory_items={"incidence": 160})
    cache.clear()
    try:
        cold_rows, cold_s = _timed(build_table3)
        warm_rows, warm_s = _timed(build_table3)
    finally:
        cache.configure(memory_items={"incidence": incidence})
        cache.clear()
    table3_cache = {
        "rows": len(cold_rows),
        "warm_rows_identical": _bits(warm_rows) == _bits(cold_rows),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 2),
    }

    setups = _sim_group_setups()
    config = TelemetryConfig()

    def grouped() -> list:
        # Groups close at the sweep's packet-hop budget, as in run_sweep.
        results: list = []
        members: list = []
        hops = 0
        for setup in setups:
            members.append((setup, WindowedCollector(config)))
            hops += setup.total_hops
            if hops >= GROUP_HOP_BUDGET:
                results += run_group(members)
                members, hops = [], 0
        return results + (run_group(members) if members else [])

    def one_at_a_time() -> list:
        return [run_batched(m, collector=WindowedCollector(config)) for m in setups]

    ratios, grouped_s, solo_s = [], [], []
    for r in range(repeats):
        if r % 2:
            (together, t_group), (alone, t_solo) = _timed(grouped), _timed(one_at_a_time)
        else:
            (alone, t_solo), (together, t_group) = _timed(one_at_a_time), _timed(grouped)
        ratios.append(t_solo / t_group)
        grouped_s.append(t_group)
        solo_s.append(t_solo)
    groups = {
        "cells": len(setups),
        "packet_hops": sum(m.total_hops for m in setups),
        "grouped_s": round(min(grouped_s), 3),
        "one_at_a_time_s": round(min(solo_s), 3),
        "speedup": round(float(np.median(ratios)), 3),
        "identical": len(together) == len(alone)
        and all(map(_results_identical, together, alone)),
    }
    return {"simulator": simulator, "table3_cache": table3_cache, "groups": groups}


def run_telemetry_bench(
    num_pairs: int = 2_000,
    packets_per_pair: int = 250,
    execution_time: float = 1.1e-3,
    seed: int = 7,
    windows: int = 48,
    repeats: int = 6,
) -> dict[str, Any]:
    """Telemetry collector overhead and minimal-vs-adaptive congestion.

    The overhead section times the batched kernel on the 500k-packet
    dragonfly simulation three ways over the same prepared setup — no
    collector, :class:`~repro.telemetry.NullCollector`,
    and a full :class:`~repro.telemetry.WindowedCollector` — and reports
    each collector's median per-round ratio against the bare run over
    ``repeats`` rotated-order rounds (see the in-function comment for
    why that estimator).  The congestion section
    replays the hot-group traffic pattern per routing policy and records
    each policy's congestion-region summary.
    """
    from .sim.engine import run_batched
    from .telemetry import (
        NullCollector,
        TelemetryConfig,
        WindowedCollector,
        adversarial_hot_group_matrix,
        congestion_by_routing,
    )
    from .topology.dragonfly import Dragonfly

    setup = _dragonfly_setup(num_pairs, packets_per_pair, execution_time, seed)

    config = TelemetryConfig(windows=windows)

    # The asserted quantities are *ratios* against the bare kernel, and
    # machine-load noise (multi-second spikes, turbo decay) dwarfs the
    # effect under test, so the estimator is built to cancel it twice
    # over: each round times all three configurations back to back and
    # contributes one per-round ratio (a load spike covers the whole
    # round and divides out), the in-round order rotates (so no
    # configuration systematically sits in the slow late slot), and the
    # reported overhead is the median over rounds (a spike straddling a
    # round boundary spoils at most the rounds it touches).
    makers = [lambda: None, NullCollector, lambda: WindowedCollector(config)]
    samples = [[], [], []]
    for r in range(repeats):
        for i in range(len(makers)):
            i = (i + r) % len(makers)
            samples[i].append(_timed(run_batched, setup, collector=makers[i]())[1])
    bare, null, windowed = (np.asarray(s) for s in samples)
    bare_s, null_s, windowed_s = bare.min(), null.min(), windowed.min()
    null_overhead = float(np.median(null / bare))
    windowed_overhead = float(np.median(windowed / bare))

    result = run_batched(setup, collector=WindowedCollector(config))
    report = result.telemetry

    adversarial_topo = Dragonfly(4, 2, 2)
    matrix = adversarial_hot_group_matrix(adversarial_topo, packets_per_pair=40)
    congestion = congestion_by_routing(
        matrix,
        adversarial_topo,
        routings=("minimal", "valiant", "ugal"),
        execution_time=2e-3,
        threshold=0.4,
        windows=24,
        seed=seed,
    )
    longest = {r["routing"]: r["longest_region_s"] for r in congestion}

    return {
        "overhead": {
            "topology": "Dragonfly(8,4,4)",
            "packets": setup.total_packets,
            "packet_hops": setup.total_hops,
            "windows": windows,
            "bare_s": round(bare_s, 4),
            "null_s": round(null_s, 4),
            "windowed_s": round(windowed_s, 4),
            "null_overhead": round(null_overhead, 4),
            "windowed_overhead": round(windowed_overhead, 4),
            "peak_window_occupancy": round(report.peak_occupancy, 4),
            "services_recorded": int(report.serve_series.sum()),
        },
        "congestion": congestion,
        "summary": {
            "longest_region_ugal_over_minimal": (
                round(longest["ugal"] / longest["minimal"], 4)
                if longest["minimal"]
                else None
            ),
        },
    }


def run_scale_pipeline(
    app: str = "ScaleHalo3D",
    ranks: int = SCALE_RANKS,
    chunk_bytes: int | None = None,
) -> dict[str, Any]:
    """Streaming trace -> matrix -> locality pipeline in the current process.

    The trace is never materialized: the generator's plan is emitted in
    bounded :class:`~repro.core.blocks.EventBlock` chunks, collectives are
    expanded chunk by chunk, and the traffic matrix accumulates with
    periodic compaction.  The returned ``peak_rss_mb`` is this process's
    *lifetime* high-water mark, so it only measures the pipeline when
    nothing heavier ran first — :func:`run_scale_bench` therefore calls
    this through a fresh subprocess.
    """
    from .apps import stream_trace
    from .comm.matrix import matrix_from_stream
    from .core.stream import DEFAULT_CHUNK_BYTES, BlockStream
    from .metrics.locality import locality_from_distance, rank_distance
    from .metrics.peers import peers_per_rank

    if chunk_bytes is None:
        chunk_bytes = DEFAULT_CHUNK_BYTES
    counts = {"rows": 0, "chunks": 0}

    t0 = time.perf_counter()
    stream = stream_trace(app, ranks, chunk_bytes=chunk_bytes)

    def counted():
        for block in stream:
            counts["rows"] += len(block)
            counts["chunks"] += 1
            yield block

    matrix = matrix_from_stream(
        BlockStream(
            stream.meta,
            counted,
            datatypes=stream.datatypes,
            communicators=stream.communicators,
        )
    )
    front_end_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    distance = rank_distance(matrix)
    locality = locality_from_distance(distance)
    avg_peers = float(peers_per_rank(matrix).mean())
    locality_s = time.perf_counter() - t0

    peak = timings.peak_rss_bytes()
    return {
        "app": app,
        "ranks": ranks,
        "chunk_bytes": int(chunk_bytes),
        "rows": counts["rows"],
        "chunks": counts["chunks"],
        "pairs": matrix.num_pairs,
        "front_end_s": round(front_end_s, 4),
        "locality_s": round(locality_s, 4),
        "rank_distance_90": round(float(distance), 4),
        "rank_locality": round(float(locality), 6),
        "avg_peers": round(avg_peers, 4),
        "peak_rss_mb": (
            round(peak / (1024 * 1024), 1) if peak is not None else None
        ),
    }


def _run_child(code: str, cfg: dict[str, Any], what: str) -> dict[str, Any]:
    """Run ``code`` in a fresh interpreter with ``cfg`` as ``sys.argv[1]``
    (JSON); the child prints one JSON object on stdout."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(Path(__file__).resolve().parents[1]), env.get("PYTHONPATH"))
        if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-8:]
        raise RuntimeError(
            f"{what} subprocess failed (exit {proc.returncode}):\n"
            + "\n".join(tail)
        )
    return json.loads(proc.stdout)


def run_scale_bench(
    ranks: int = SCALE_RANKS, rlimit_gb: float = SCALE_RLIMIT_GB
) -> dict[str, Any]:
    """Peak RSS of the out-of-core streaming pipeline, in a capped subprocess.

    ``ru_maxrss`` never goes down, so a clean measurement needs an
    interpreter that has run nothing but the pipeline.  The child runs
    under a hard ``RLIMIT_AS`` cap of ``rlimit_gb``, so a memory
    regression aborts loudly instead of silently paging.  The gated,
    machine-portable quantity is ``rss_ratio``: measured peak RSS over
    :data:`SCALE_RSS_BUDGET_MB`.
    """
    from .apps import get_app

    # Fail eagerly (KeyError -> the CLI's one-line user-error path) rather
    # than as a subprocess traceback.
    get_app("ScaleHalo3D").calibration_for(ranks)
    cfg = {
        "app": "ScaleHalo3D",
        "ranks": ranks,
        "chunk_bytes": int(SCALE_CHUNK_MB * 1024 * 1024),
    }
    lim = int(rlimit_gb * (1 << 30))
    code = (
        "import json, resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({lim}, {lim}))\n"
        "from repro.bench import run_scale_pipeline\n"
        "json.dump(run_scale_pipeline(**json.loads(sys.argv[1])), sys.stdout)\n"
    )
    child = _run_child(
        code, cfg, f"scale pipeline (RLIMIT_AS {rlimit_gb} GB)"
    )
    peak = child["peak_rss_mb"]
    return {
        "scale": child,
        "summary": {
            "ranks": ranks,
            "chunk_mb": SCALE_CHUNK_MB,
            "budget_mb": SCALE_RSS_BUDGET_MB,
            "rlimit_gb": rlimit_gb,
            "peak_rss_mb": peak,
            "rss_ratio": (
                round(peak / SCALE_RSS_BUDGET_MB, 4) if peak is not None else None
            ),
            "rows_per_s": (
                round(child["rows"] / child["front_end_s"])
                if child["front_end_s"]
                else None
            ),
        },
    }


def run_report_pipeline(max_ranks: int | None = None) -> dict[str, Any]:
    """What ``repro report [--max-ranks N]`` prints, rendered cold and then
    warm, in the current process.

    The report is the rows plus the collective-delta table.  ``sha256`` is
    the digest of the text as ``repro report`` prints it (with the final
    newline); ``peak_rss_mb`` is this process's lifetime high-water mark,
    which is why :func:`run_report_bench` runs this in a fresh subprocess.
    """
    from .analysis import (
        build_collective_deltas,
        build_report,
        render_collective_deltas,
        render_report,
    )

    def render() -> tuple[int, str]:
        rows = build_report(max_ranks=max_ranks)
        text = render_report(rows)
        deltas = build_collective_deltas(max_ranks=max_ranks)
        if deltas:
            text += "\n\n" + render_collective_deltas(deltas)
        return len(rows), text + "\n"

    (rows, cold), cold_s = _timed(render)
    (_, warm), warm_s = _timed(render)
    peak = timings.peak_rss_bytes()
    return {
        "rows": rows,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "sha256": hashlib.sha256(cold.encode()).hexdigest(),
        "warm_identical": warm == cold,
        "peak_rss_mb": (
            round(peak / (1024 * 1024), 1) if peak is not None else None
        ),
    }


def run_report_bench() -> dict[str, Any]:
    """The full-registry ``repro report``, cold then warm, in a capped subprocess.

    The child renders every configuration's row (critical-path dT/dL
    column included) and the collective-delta table twice, under a hard
    ``RLIMIT_AS`` cap of :data:`REPORT_RLIMIT_GB`, so a memory regression
    fails loudly instead of paging.  Gated: the warm render equals the cold one,
    and ``rss_ratio``, the peak RSS over :data:`REPORT_RSS_BUDGET_MB`.
    ``warm_speedup`` (cold over warm seconds) is perf only.
    """
    lim = int(REPORT_RLIMIT_GB * (1 << 30))
    code = (
        "import json, resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({lim}, {lim}))\n"
        "from repro.bench import run_report_pipeline\n"
        "json.dump(run_report_pipeline(), sys.stdout)\n"
    )
    child = _run_child(code, {}, f"report (RLIMIT_AS {REPORT_RLIMIT_GB} GB)")
    peak = child["peak_rss_mb"]
    return {
        "report": child,
        "summary": {
            "budget_mb": REPORT_RSS_BUDGET_MB,
            "rlimit_gb": REPORT_RLIMIT_GB,
            "peak_rss_mb": peak,
            "rss_ratio": (
                round(peak / REPORT_RSS_BUDGET_MB, 4) if peak is not None else None
            ),
            "warm_identical": child["warm_identical"],
            "warm_speedup": (
                round(child["cold_s"] / child["warm_s"], 2)
                if child["warm_s"]
                else None
            ),
        },
    }


def sweep_bench_spec():
    """The reference sweep grid (216 cells) shared by bench and CI smoke."""
    from .analysis.sweep import SweepSpec

    return SweepSpec(
        apps=SWEEP_BENCH_APPS,
        topologies=("fattree", "torus3d", "dragonfly"),
        mappings=("consecutive", "greedy", "bisection"),
        payloads=(1024, 4096),
        routings=("minimal", "ecmp"),
    )


def _cold_serial_sweep(spec, cache_dir: Path) -> dict[str, Any]:
    """Cold serial baseline in a *fresh subprocess*.

    The measurement must run in an interpreter whose memory cache has never
    seen the grid — running it here would warm this process, and the
    service's fork-started workers would inherit that warmth, corrupting
    the comparison.  The subprocess populates ``cache_dir``'s disk tier,
    so the service runs that follow measure the steady-state (disk-warm,
    memory-cold) resubmission path.
    """
    from .service.cells import spec_to_dict

    cfg = {"spec": spec_to_dict(spec), "cache_dir": str(cache_dir)}
    code = (
        "import json, sys, time\n"
        "cfg = json.loads(sys.argv[1])\n"
        "from repro import cache\n"
        "cache.configure(disk_dir=cfg['cache_dir'])\n"
        "from repro.analysis.sweep import run_sweep\n"
        "from repro.service.cells import spec_from_dict\n"
        "spec = spec_from_dict(cfg['spec'])\n"
        "t0 = time.perf_counter()\n"
        "records = run_sweep(spec)\n"
        "json.dump({'seconds': time.perf_counter() - t0,"
        " 'records': records}, sys.stdout)\n"
    )
    return _run_child(code, cfg, "cold serial sweep")


def _cache_totals(stats: dict[str, Any]) -> dict[str, int]:
    totals = {"hits": 0, "misses": 0, "disk_hits": 0}
    for region in stats["cache"].values():
        for field in totals:
            totals[field] += region.get(field, 0)
    return totals


def _service_sweep(
    spec, warm_spec, state_dir: Path, cache_dir: Path, scheduler: str
) -> tuple[dict[str, Any], list[dict], list[dict]]:
    """One prime + warm service run; returns (summary, prime, warm records).

    The *prime* job runs ``spec`` on freshly started (memory-cold) workers
    and is not the measured quantity — it is the first sweep of a study,
    after which the service's whole point is that the workers stay resident
    with their caches hot.  The *measured* job runs ``warm_spec`` — the
    same grid with a shifted bandwidth axis, so every cell key is new and
    every cell is recomputed, but each worker's in-memory trace / matrix /
    mapping / incidence entries are exactly the ones affinity scheduling
    kept it fed with.  Cache counters are deltas over the measured job
    only.
    """
    import asyncio

    from .service.cells import spec_to_dict
    from .service.server import SweepService

    spec_dict = spec_to_dict(spec)
    warm_dict = spec_to_dict(warm_spec)

    async def _run():
        svc = SweepService(
            state_dir,
            workers=SWEEP_WORKERS,
            scheduler=scheduler,
            cache_dir=cache_dir,
        )
        await svc.start()
        try:
            t0 = time.perf_counter()
            prime = svc.submit(spec_dict)["job"]
            if await svc.wait(prime) != "done":
                raise RuntimeError("bench prime job failed")
            prime_seconds = time.perf_counter() - t0
            prime_records = svc.results(prime)
            before = svc.stats()

            t0 = time.perf_counter()
            job = svc.submit(warm_dict)["job"]
            status = await svc.wait(job)
            seconds = time.perf_counter() - t0
            if status != "done":
                raise RuntimeError(f"bench warm job finished {status!r}")
            return (
                prime_records,
                prime_seconds,
                svc.results(job),
                before,
                svc.stats(),
                seconds,
            )
        finally:
            await svc.stop()

    prime_records, prime_seconds, records, before, after, seconds = (
        asyncio.run(_run())
    )
    b, a = _cache_totals(before), _cache_totals(after)
    warm_cache = {field: a[field] - b[field] for field in a}
    lookups = warm_cache["hits"] + warm_cache["misses"]
    mode = {
        "scheduler": scheduler,
        "prime_seconds": round(prime_seconds, 3),
        "seconds": round(seconds, 3),
        "hit_rate": (
            round(warm_cache["hits"] / lookups, 4) if lookups else None
        ),
        "cache": warm_cache,
        "cells_computed": (
            after["counts"]["cells_computed"]
            - before["counts"]["cells_computed"]
        ),
        "cell_seconds": round(after["cell_seconds"] - before["cell_seconds"], 3),
        "respawns": after["respawns"],
    }
    return mode, prime_records, records


def run_sweep_bench() -> dict[str, Any]:
    """Cold serial sweep vs the warm sharded service on the reference grid.

    The baseline is a cold serial ``run_sweep`` in a fresh subprocess (it
    also warms the shared disk tier).  Then, per scheduler mode — affinity,
    then random — a :class:`~repro.service.server.SweepService` primes its
    resident workers with the same grid and is *measured* on the
    resubmit-with-a-tweak workflow the service exists for: the grid with a
    shifted bandwidth axis, where every cell recomputes but the workers'
    memory caches are hot.  ``records_identical`` requires each mode's
    prime job to match the cold serial records exactly, and the two modes'
    warm jobs to match each other: scheduling must never change values.
    """
    import dataclasses
    import tempfile

    spec = sweep_bench_spec()
    # Half the paper bandwidth: new cell keys, identical intermediates.
    warm_spec = dataclasses.replace(spec, bandwidths=(6e9,))
    with tempfile.TemporaryDirectory(
        prefix="repro-bench-sweep-", ignore_cleanup_errors=True
    ) as tmp:
        state = Path(tmp)
        cache_dir = state / "cache"
        cache_dir.mkdir()
        cold = _cold_serial_sweep(spec, cache_dir)
        affinity, affinity_prime, affinity_warm = _service_sweep(
            spec, warm_spec, state / "affinity", cache_dir, "affinity"
        )
        random_mode, random_prime, random_warm = _service_sweep(
            spec, warm_spec, state / "random", cache_dir, "random"
        )

    records_identical = (
        affinity_prime == cold["records"]
        and random_prime == cold["records"]
        and affinity_warm == random_warm
    )
    warm_speedup = cold["seconds"] / max(affinity["seconds"], 1e-9)
    return {
        "modes": {"affinity": affinity, "random": random_mode},
        "summary": {
            "cells": len(spec.points()),
            "apps": len(spec.apps),
            "workers": SWEEP_WORKERS,
            "cold_serial_s": round(cold["seconds"], 3),
            "warm_affinity_s": affinity["seconds"],
            "warm_random_s": random_mode["seconds"],
            "warm_speedup": round(warm_speedup, 2),
            "affinity_hit_rate": affinity["hit_rate"],
            "random_hit_rate": random_mode["hit_rate"],
            "affinity_beats_random": (
                affinity["hit_rate"] is not None
                and random_mode["hit_rate"] is not None
                and affinity["hit_rate"] > random_mode["hit_rate"]
            ),
            "records_identical": records_identical,
        },
    }


def run_tenancy_bench() -> dict[str, Any]:
    """Interference-aware victim-load reduction and solo bit-identity.

    Victim load: a LULESH victim shares a dragonfly with a deliberately
    hostile :class:`~repro.apps.noise.HotspotNoise` aggressor flooding 16
    targets.  The victim's peak exposed link load (max total services over
    links its routes traverse) is measured under minimal routing and under
    ``interference_aware`` routing primed with the victim's own structural
    loads.  Both numbers are structural route counts, deterministic on
    every machine; ``victim_load_reduction`` is their ratio.

    Solo identity: composing a single job with zero noise must be
    bit-identical to the solo run — the trace itself, every compared
    simulation observable, per-link serve counts, and the windowed
    telemetry report, on both engines (``solo_identical``).
    """
    from .apps.noise import HotspotNoise
    from .apps.registry import generate_trace
    from .comm.matrix import matrix_from_trace
    from .routing import InterferenceAwareRouting, victim_link_loads
    from .sim.common import prepare_simulation
    from .sim.engine import simulate_network
    from .telemetry import TelemetryConfig
    from .telemetry.collector import reports_equal
    from .tenancy import TenantSpec, compose_workload, victim_peak_link_load
    from .topology.dragonfly import Dragonfly
    from .topology.configs import config_for
    from .validation.invariants import traces_identical

    # --- victim load: hot-spot aggressor on a dragonfly ---------------
    topo = Dragonfly(8, 4, 4)
    aggressor = HotspotNoise(hot_ranks=16, src_ranks=16, volume_mb=16384.0)
    t0 = time.perf_counter()
    workload = compose_workload(
        [TenantSpec("LULESH", 512)],
        noise=[TenantSpec(aggressor, topo.num_nodes - 512)],
        allocation="round_robin",
    )
    victim = workload.app_job_ids()[0]
    matrix = matrix_from_trace(workload.trace)
    common = dict(
        execution_time=workload.trace.meta.execution_time,
        volume_scale=TENANCY_VOLUME_SCALE,
        max_packets=TENANCY_MAX_PACKETS,
        job_of_rank=workload.job_of_rank,
    )
    base = prepare_simulation(matrix, topo, routing="minimal", **common)
    baseline_peak = victim_peak_link_load(base, victim)
    prior = victim_link_loads(
        workload.job_matrix(matrix, victim),
        topo,
        volume_scale=TENANCY_VOLUME_SCALE,
    )
    aware = prepare_simulation(
        matrix,
        topo,
        routing=InterferenceAwareRouting(victim_loads=prior),
        **common,
    )
    aware_peak = victim_peak_link_load(aware, victim)
    gate1_s = time.perf_counter() - t0
    reduction = baseline_peak / aware_peak if aware_peak > 0 else float("inf")

    # --- solo identity: composed single job == solo run, both engines -
    t0 = time.perf_counter()
    solo_trace = generate_trace("LULESH", 64)
    composed = compose_workload([TenantSpec("LULESH", 64)])
    trace_identical = traces_identical(composed.trace, solo_trace)
    torus = config_for(64).build_torus()
    solo_matrix = matrix_from_trace(solo_trace)
    composed_matrix = matrix_from_trace(composed.trace)
    engines = {}
    for engine in ("batched", "reference"):
        # volume_scale keeps the reference engine's event loop tractable;
        # identity must hold at every scale, so checking one is enough.
        kwargs = dict(
            execution_time=solo_trace.meta.execution_time,
            volume_scale=32.0,
            telemetry=TelemetryConfig(windows=16),
            engine=engine,
        )
        solo = simulate_network(solo_matrix, torus, **kwargs)
        both = simulate_network(
            composed_matrix, torus, job_of_rank=composed.job_of_rank, **kwargs
        )
        engines[engine] = {
            "results_equal": bool(solo == both),
            "serve_counts_equal": bool(
                np.array_equal(solo.link_serve_counts, both.link_serve_counts)
            ),
            "telemetry_equal": bool(
                reports_equal(solo.telemetry, both.telemetry)
            ),
            "packets": solo.packets_simulated,
        }
    gate2_s = time.perf_counter() - t0
    identical = trace_identical and all(
        e["results_equal"] and e["serve_counts_equal"] and e["telemetry_equal"]
        for e in engines.values()
    )

    return {
        "scenario": {
            "topology": repr(topo),
            "victim": "LULESH@512",
            "aggressor": f"HotspotNoise@{topo.num_nodes - 512} "
            "(hot_ranks=16, src_ranks=16, volume_mb=16384)",
            "allocation": "round_robin",
            "volume_scale": TENANCY_VOLUME_SCALE,
            "packets": base.total_packets,
            "gate1_seconds": round(gate1_s, 3),
            "gate2_seconds": round(gate2_s, 3),
        },
        "identity": {"trace_identical": trace_identical, "engines": engines},
        "summary": {
            "victim_peak_load_minimal": baseline_peak,
            "victim_peak_load_aware": aware_peak,
            "victim_load_reduction": round(reduction, 2),
            "solo_identical": identical,
        },
    }


def run_critpath_bench() -> dict[str, Any]:
    """dT/dL vs the finite difference over the registry.

    The matcher at scale is not run here: the tier-1 suite pins it
    bit-identical to its per-event oracle (``tests/oracles/critpath.py``)
    on the 1728-rank AMG trace, and ``pytest -m perf
    benchmarks/test_oracle_speedup.py`` times the two.

    Sensitivity: every registry app's smallest configuration is analyzed
    on a torus with the finite-difference cross-check enabled;
    ``sensitivity_max_rel_err`` is the largest relative disagreement
    between the algebraic L-term count and the forward difference —
    deterministic, and exactly zero with the dyadic default LogGP
    parameters (1% is the documented tolerance for arbitrary ones).
    """
    from .apps.registry import APPS
    from .critpath import latency_table

    rows, table_s = _timed(latency_table, fd_check=True)
    apps = [
        {
            "app": r.app,
            "ranks": r.ranks,
            "nodes": r.nodes,
            "edges": r.edges,
            "makespan_s": r.makespan_s,
            "l_terms": r.l_terms,
            "fd_sensitivity": r.fd_sensitivity,
            "rel_err": r.fd_rel_err,
            "tolerance_us": round(r.tolerance_s * 1e6, 4),
        }
        for r in rows
    ]
    max_rel_err = max(r.fd_rel_err for r in rows)

    return {
        "sensitivity": {
            "apps": apps,
            "coverage_gap": _coverage_gap(APPS, (r.app for r in rows)),
            "table_seconds": round(table_s, 3),
        },
        "summary": {
            "sensitivity_max_rel_err": max_rel_err,
        },
    }


def run_collectives_bench() -> dict[str, Any]:
    """Flat collective expansion identity and the binomial locality delta.

    Identity: for every registry app's smallest configuration, the flat
    engine's matrix must be bit-identical to the parameterless default
    ``matrix_from_trace(trace)`` (``flat_identical``).  The tier-1 suite
    pins both against the per-event expansion in
    ``tests/oracles/collectives.py``, at every app's two smallest scales.

    Delta: on :data:`COLLECTIVES_DELTA_WORKLOAD` the binomial engine must
    measurably change network locality versus flat: ``bytes_ratio`` is
    binomial over flat expanded collective bytes, ``hops_delta_rel`` the
    relative move of torus average hops.  Both are deterministic
    structural ratios; seconds are provenance.
    """
    from .apps.registry import APPS, iter_configurations
    from .cache import cached_trace
    from .collectives import collective_volume
    from .comm.matrix import matrix_from_trace
    from .model.engine import analyze_network
    from .topology.configs import config_for
    from .validation.invariants import matrices_identical

    # --- identity: flat engine bit-identical on every registry app ----
    smallest: dict[str, int] = {}
    for app, point in iter_configurations():
        if point.variant:
            continue
        if app.name not in smallest or point.ranks < smallest[app.name]:
            smallest[app.name] = point.ranks
    apps = []
    t0 = time.perf_counter()
    for name in sorted(smallest):
        ranks = smallest[name]
        trace = cached_trace(name, ranks)
        default = matrix_from_trace(trace)
        flat = matrix_from_trace(trace, collective="flat")
        apps.append(
            {
                "workload": f"{name}@{ranks}",
                "pairs": len(flat.src),
                "total_bytes": int(flat.total_bytes),
                "default_identical": matrices_identical(flat, default),
            }
        )
    identity_s = time.perf_counter() - t0
    flat_identical = all(a["default_identical"] for a in apps)

    # --- delta: flat vs binomial locality -----------------------------
    app, ranks = COLLECTIVES_DELTA_WORKLOAD
    trace = cached_trace(app, ranks)
    topology = config_for(ranks).build_torus()
    t0 = time.perf_counter()
    engines = {}
    for algo in ("flat", "binomial"):
        matrix = matrix_from_trace(trace, collective=algo)
        analysis = analyze_network(
            matrix, topology, execution_time=trace.meta.execution_time
        )
        engines[algo] = {
            "collective_bytes": int(collective_volume(trace, collective=algo)),
            "total_bytes": int(matrix.total_bytes),
            "avg_hops": round(analysis.avg_hops, 6),
            "packet_hops": int(analysis.packet_hops),
            "wire_bytes": int(analysis.wire_bytes),
        }
    delta_s = time.perf_counter() - t0
    bytes_ratio = (
        engines["binomial"]["collective_bytes"]
        / engines["flat"]["collective_bytes"]
    )
    hops_delta = abs(
        engines["binomial"]["avg_hops"] / engines["flat"]["avg_hops"] - 1.0
    )

    return {
        "identity": {
            "apps": apps,
            "coverage_gap": _coverage_gap(APPS, smallest),
            "identity_seconds": round(identity_s, 3),
        },
        "delta": {
            "workload": f"{app}@{ranks}",
            "topology": "torus3d",
            "engines": engines,
            "delta_seconds": round(delta_s, 3),
        },
        "summary": {
            "flat_identical": flat_identical,
            "apps_checked": len(apps),
            "bytes_ratio": round(bytes_ratio, 4),
            "hops_delta_rel": round(hops_delta, 4),
        },
    }


def _coverage_gap(registry, covered) -> list[str]:
    """Registry apps without a row, plus rows naming no registry app."""
    return sorted(set(registry) ^ set(covered))


def _routing_detail(record: dict[str, Any]) -> list[str]:
    policies = list(record["summary"]["slowdown_vs_minimal"])
    lines = [
        f"  {'topology':<12}" + "".join(f"{p:>12}" for p in policies)
        + "   (pairs/s)"
    ]
    for kind, entry in record["routing"].items():
        cells = "".join(
            f"{entry[p]['pairs_per_s']:>12,}".replace(",", " ")
            if entry[p]["pairs_per_s"]
            else f"{'n/a':>12}"
            for p in policies
        )
        lines.append(f"  {kind:<12}{cells}")
    return lines


def _telemetry_detail(record: dict[str, Any]) -> list[str]:
    lines = [
        "  adversarial hot-group congestion (Dragonfly(4,2,2)):",
        f"  {'routing':<10} {'peak occ':>9} {'regions':>8} "
        f"{'peak links':>11} {'longest(s)':>11} {'hot win':>8}",
    ]
    for rec in record["congestion"]:
        lines.append(
            f"  {rec['routing']:<10} {rec['peak_window_occupancy']:>9.3f} "
            f"{rec['num_regions']:>8} {rec['peak_region_links']:>11} "
            f"{rec['longest_region_s']:>11.2e} {rec['hot_windows']:>8}"
        )
    return lines


def _sweep_detail(record: dict[str, Any]) -> list[str]:
    s = record["summary"]
    lines = [
        f"  cold serial (subprocess):  {s['cold_serial_s']:>8.2f}s "
        f"({s['workers']} service workers)"
    ]
    for name, mode in record["modes"].items():
        lines.append(
            f"  {'warm ' + name + ':':<26} {mode['seconds']:>8.2f}s   "
            f"hit rate {mode['hit_rate']:.4f}   "
            f"(hits {mode['cache']['hits']}, misses {mode['cache']['misses']}, "
            f"disk {mode['cache']['disk_hits']}, "
            f"prime {mode['prime_seconds']:.2f}s)"
        )
    return lines


#: Every ``repro bench`` target, in ``repro bench --help`` order.  Raising
#: or loosening a bound here is the one edit that changes what ``repro
#: bench``, ``pytest -m perf benchmarks/`` and CI assert.  The fifth
#: ``Gate`` field is ``enforced``.
BENCHES: dict[str, Bench] = {b.name: b for b in (
    Bench("routing", run_routing_bench, (
        # Loose on purpose: UGAL's chunked greedy pass is inherently ~10-50x
        # a closed-form minimal batch; this catches quadratic blowups.
        Gate("geomean slowdown vs minimal, every policy",
             "summary.slowdown_vs_minimal.*", "<=", 200.0),
        Gate("incidence cache warm/cold speedup", "summary.cache_speedup", ">=", 5.0),
        Gate("invalid sampled walks, every policy",
             "routing.*.*.invalid_walks", "==", 0, True),
    ), _routing_detail),
    Bench("sim", run_sim_bench, (
        Gate("packets simulated", "simulator.packets", ">=", 500_000),
        Gate("batched == reference, bit for bit", "simulator.identical", "==", True, True),
        Gate("batched speedup vs reference", "simulator.speedup", ">=", 10.0),
        Gate("Table-3 rows", "table3_cache.rows", "==", 41),
        Gate("warm Table-3 rows == cold", "table3_cache.warm_rows_identical", "==", True, True),
        Gate("warm Table-3 speedup over cold", "table3_cache.speedup", ">=", 3.0),
        Gate("grouped == solo, bit for bit", "groups.identical", "==", True, True),
        Gate("grouped / one-at-a-time speedup", "groups.speedup", ">=", 1.2),
    )),
    Bench("telemetry", run_telemetry_bench, (
        Gate("packets simulated", "overhead.packets", ">=", 500_000),
        Gate("null collector overhead", "overhead.null_overhead", "<=", 1.05),
        Gate("windowed collector overhead", "overhead.windowed_overhead", "<=", 1.20),
        Gate("longest congestion region, ugal/minimal",
             "summary.longest_region_ugal_over_minimal", "<", 1.0),
    ), _telemetry_detail),
    Bench("scale", run_scale_bench, (
        Gate("ranks streamed", "scale.ranks", "==", SCALE_RANKS),
        Gate("rows streamed", "scale.rows", ">", SCALE_RANKS),
        Gate("matrix pairs", "scale.pairs", ">", SCALE_RANKS),
        Gate("peak RSS / 2048 MB budget", "summary.rss_ratio", "<=", 1.0, True),
    )),
    Bench("report", run_report_bench, (
        Gate("report rows", "report.rows", "==", 38),
        Gate("warm render == cold render", "summary.warm_identical", "==", True, True),
        Gate("peak RSS / 2048 MB budget", "summary.rss_ratio", "<=", 1.0, True),
        Gate("warm report speedup over cold", "summary.warm_speedup", ">=", 5.0),
    )),
    Bench("sweep", run_sweep_bench, (
        Gate("grid cells", "summary.cells", "==", 216),
        Gate("grid apps", "summary.apps", "==", 6),
        Gate("records identical across modes", "summary.records_identical", "==", True, True),
        Gate("warm sharded / cold serial speedup", "summary.warm_speedup", ">=", 5.0),
        Gate("affinity beats random on warm hits",
             "summary.affinity_beats_random", "==", True),
    ), _sweep_detail),
    Bench("tenancy", run_tenancy_bench, (
        Gate("scaled packets", "scenario.packets", ">=", 500_000),
        Gate("victim peak load, minimal/aware",
             "summary.victim_load_reduction", ">=", 2.0, True),
        Gate("solo run == composed single job", "summary.solo_identical", "==", True, True),
    )),
    Bench("critpath", run_critpath_bench, (
        Gate("max dT/dL rel err vs finite difference",
             "summary.sensitivity_max_rel_err", "<=", 0.01, True),
        Gate("registry apps not covered", "sensitivity.coverage_gap", "==", []),
    )),
    Bench("collectives", run_collectives_bench, (
        Gate("flat == default, every app", "summary.flat_identical", "==", True, True),
        Gate("registry apps not covered", "identity.coverage_gap", "==", []),
        Gate("binomial/flat collective bytes", "summary.bytes_ratio", ">=", 1.5, True),
        Gate("avg hops rel delta, binomial vs flat", "summary.hops_delta_rel", ">=", 0.10, True),
    )),
)}
