"""Performance benchmarks behind ``repro bench`` (pipeline and routing).

Times the cold trace-generation and matrix-construction stages of the
largest study configurations on both front-end paths — the legacy leg
(per-event *generation*, ``columnar=False``, whose event list the matrix
builder converts to one block on first read) and the columnar EventBlock
path — and records the results in ``BENCH_pipeline.json``.  Stage attribution reuses
:mod:`repro.timings`: ``generate_trace`` charges the ``trace`` stage and
``matrix_from_trace`` the ``matrix`` stage, so the numbers here are exactly
what ``repro --timings`` reports.

The mapping section times the vectorized :mod:`repro.mapping.optimized`
kernels against their pinned ``*_reference`` implementations on the largest
all-collective workload (densest traffic graph).

Machine-dependent wall times are recorded for provenance; the stable,
asserted quantity (see ``benchmarks/test_perf_pipeline.py``) is the
*speedup ratio* between the two paths on the same machine.

``repro bench routing`` (:func:`run_routing_bench`, recorded in
``BENCH_routing.json``) measures route-construction throughput of every
:mod:`repro.routing` policy on the paper's 1728-rank topologies, plus the
memoization speedup of re-querying one batch through
:func:`repro.cache.cached_route_incidence`.  Again only ratios are asserted
(``benchmarks/test_perf_routing.py``): each policy's slowdown relative to
minimal routing on the same machine, and the cache's warm/cold ratio.

``repro bench scale`` (:func:`run_scale_bench`, recorded in
``BENCH_scale.json``) gates the out-of-core streaming pipeline: a
262,144-rank ``ScaleHalo3D`` trace is streamed through
:func:`repro.comm.matrix.matrix_from_stream` and the §4.1.1 locality
metrics in a *fresh subprocess* (``ru_maxrss`` is a process-lifetime
high-water mark), and the asserted quantity
(``benchmarks/test_perf_scale.py``) is measured peak RSS over the fixed
:data:`SCALE_RSS_BUDGET_MB` budget — a memory ratio, stable across
machines in a way wall times are not.

``repro bench collectives`` (:func:`run_collectives_bench`, recorded in
``BENCH_collectives.json``) pins the pluggable collective-algorithm
engines: the flat engine (the paper's collective->p2p expansion) must stay
bit-identical to the pre-engine default on every registry app, and the
binomial engine must produce a measurable locality delta versus flat on a
collective-heavy workload.  Both gates are deterministic structural
comparisons (``benchmarks/test_perf_collectives.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import timings

__all__ = [
    "run_pipeline_bench",
    "write_pipeline_bench",
    "render_pipeline_bench",
    "run_routing_bench",
    "write_routing_bench",
    "render_routing_bench",
    "run_telemetry_bench",
    "write_telemetry_bench",
    "render_telemetry_bench",
    "run_scale_pipeline",
    "run_scale_bench",
    "write_scale_bench",
    "render_scale_bench",
    "sweep_bench_spec",
    "run_sweep_bench",
    "write_sweep_bench",
    "render_sweep_bench",
    "run_tenancy_bench",
    "write_tenancy_bench",
    "render_tenancy_bench",
    "run_critpath_bench",
    "write_critpath_bench",
    "render_critpath_bench",
    "run_collectives_bench",
    "write_collectives_bench",
    "render_collectives_bench",
]

#: The asserted floor on the cold front-end (trace + matrix) speedup.
FRONT_END_TARGET = 5.0

#: The asserted ceiling on any policy's slowdown over minimal routing, and
#: the floor on the incidence cache's warm/cold speedup (ratio assertions
#: only — wall times are provenance, never compared across machines).
ROUTING_SLOWDOWN_CEILING = 200.0
CACHE_SPEEDUP_TARGET = 5.0

#: ``repro bench telemetry`` ceilings (benchmarks/test_perf_telemetry.py):
#: a disabled (null) collector must be free, and full windowed collection
#: must stay a small fraction of the batched kernel's runtime.
TELEMETRY_NULL_OVERHEAD_CEILING = 1.05
TELEMETRY_WINDOWED_OVERHEAD_CEILING = 1.20

#: ``repro bench scale``: the default rank count and the hard peak-RSS
#: budget the streaming pipeline must fit in at that scale.  The asserted
#: gate is ``peak_rss_mb / SCALE_RSS_BUDGET_MB <= 1.0``.
SCALE_RANKS = 262_144
SCALE_RSS_BUDGET_MB = 2048.0

#: ``repro bench sweep`` (benchmarks/test_perf_sweep.py): the asserted
#: floor on the sharded service's warm speedup over a cold *serial* run of
#: the reference grid, plus the scheduler comparison — cache-affinity
#: scheduling must beat random scheduling on worker warm-hit rate.  Both
#: are same-machine ratios; wall times are provenance only.
SWEEP_WARM_SPEEDUP_TARGET = 5.0
SWEEP_WORKERS = 2

#: The reference grid: six study apps at their largest common scales,
#: crossed with every topology, three mappings, two payloads, and two
#: routing policies — 216 cells, heavy on the shared intermediates the
#: service's cache affinity is supposed to monetize.
SWEEP_BENCH_APPS = (
    ("LULESH", 512),
    ("AMG", 216),
    ("BigFFT", 1024),
    ("Nekbone", 256),
    ("CMC_2D", 256),
    ("MOCFE", 256),
)

#: ``repro bench tenancy`` (benchmarks/test_perf_tenancy.py): the asserted
#: floor on how much ``interference_aware`` routing must cut the victim's
#: peak link load versus minimal routing under a hot-spot aggressor, plus
#: the hard requirement that a composed single-job/no-noise run stays
#: bit-identical to the solo run on both engines.  The reduction is a
#: structural (route-count) ratio — deterministic, no wall times involved.
TENANCY_VICTIM_LOAD_REDUCTION_TARGET = 2.0
TENANCY_VOLUME_SCALE = 64.0
TENANCY_MAX_PACKETS = 5_000_000

#: ``repro bench critpath`` (benchmarks/test_perf_critpath.py): the
#: asserted floor on the vectorized FIFO matcher's speedup over the pinned
#: per-event oracle on the exactly-expanded 1728-rank AMG trace — with the
#: hard requirement that both produce bit-identical (send, recv, bytes)
#: edge sets — and the ceiling on the relative disagreement between the
#: algebraic dT/dL (L-terms on the critical path) and a forward finite
#: difference, per registry app.  With the dyadic default LogGP parameters
#: the disagreement is exactly zero; 1% is the documented tolerance for
#: arbitrary parameters.
CRITPATH_MATCH_SPEEDUP_TARGET = 5.0
CRITPATH_SENSITIVITY_REL_TOL = 0.01
CRITPATH_MATCH_WORKLOAD = ("AMG", 1728)

#: ``repro bench collectives`` (benchmarks/test_perf_collectives.py): the
#: flat engine must reproduce today's matrices *bit-identically* on every
#: registry app — both against the parameterless default
#: (``matrix_from_trace(trace)``) and across the two independent expansion
#: paths (columnar batch fast path vs per-event ``iter_send_groups``).
#: The delta gate then requires a measurable locality difference between
#: flat and binomial expansion on a collective-heavy workload: binomial
#: point-to-point stages must inflate collective bytes by at least
#: :data:`COLLECTIVES_BYTES_RATIO_FLOOR` while shifting average packet
#: hops by at least :data:`COLLECTIVES_HOPS_DELTA_FLOOR` (relative) —
#: both structural, deterministic ratios; wall times are provenance only.
COLLECTIVES_DELTA_WORKLOAD = ("CMC_2D", 64)
COLLECTIVES_BYTES_RATIO_FLOOR = 1.5
COLLECTIVES_HOPS_DELTA_FLOOR = 0.10


def _stage_seconds() -> dict[str, float]:
    snap = timings.as_dict()
    return {name: vals["seconds"] for name, vals in snap.items()}


def _timed_front_end(name: str, ranks: int, columnar: bool) -> dict[str, float]:
    """Cold generate + matrix builds of one configuration on one path.

    Matches what a Table-3 row consumes from the front-end: the trace, the
    p2p-only matrix (§5 metrics), and the full matrix (topology analyses).
    """
    from .apps import get_app
    from .comm.matrix import matrix_from_trace

    was_enabled = timings.enabled()
    timings.enable(reset_counters=True)
    try:
        with timings.stage("trace"):
            trace = get_app(name).generate(ranks, columnar=columnar)
        matrix_from_trace(trace, include_collectives=False)
        matrix = matrix_from_trace(trace)
        cold = _stage_seconds()

        t0 = time.perf_counter()
        matrix_from_trace(trace)
        warm_matrix = time.perf_counter() - t0
    finally:
        if not was_enabled:
            timings.disable()
    return {
        "trace_s": round(cold.get("trace", 0.0), 4),
        "matrix_s": round(cold.get("matrix", 0.0), 4),
        "front_end_s": round(cold.get("trace", 0.0) + cold.get("matrix", 0.0), 4),
        "warm_matrix_s": round(warm_matrix, 4),
        "pairs": matrix.num_pairs,
    }


def _mapping_bench(name: str, ranks: int) -> dict[str, Any]:
    from .apps import get_app
    from .comm.matrix import matrix_from_trace
    from .mapping.base import Mapping
    from .mapping.optimized import (
        _greedy_ordering_reference,
        _refine_mapping_reference,
        greedy_ordering,
        refine_mapping,
    )
    from .topology.fattree import FatTree

    matrix = matrix_from_trace(get_app(name).generate(ranks))
    topology = FatTree(radix=64, stages=2)
    base = Mapping.consecutive(ranks, topology.num_nodes, 1)

    t0 = time.perf_counter()
    order_fast = greedy_ordering(matrix)
    greedy_vec = time.perf_counter() - t0
    t0 = time.perf_counter()
    order_ref = _greedy_ordering_reference(matrix)
    greedy_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    refined_fast = refine_mapping(matrix, topology, base)
    refine_vec = time.perf_counter() - t0
    t0 = time.perf_counter()
    refined_ref = _refine_mapping_reference(matrix, topology, base)
    refine_ref = time.perf_counter() - t0

    assert np.array_equal(order_fast, order_ref)
    assert np.array_equal(refined_fast.nodes, refined_ref.nodes)
    return {
        "config": f"{name}@{ranks}",
        "greedy_reference_s": round(greedy_ref, 4),
        "greedy_vectorized_s": round(greedy_vec, 4),
        "greedy_speedup": round(greedy_ref / greedy_vec, 2),
        "refine_reference_s": round(refine_ref, 4),
        "refine_vectorized_s": round(refine_vec, 4),
        "refine_speedup": round(refine_ref / refine_vec, 2),
    }


def run_pipeline_bench(
    min_ranks: int = 1000, mapping: bool = True
) -> dict[str, Any]:
    """Benchmark every configuration with at least ``min_ranks`` ranks."""
    from .apps import app_names, get_app

    configs: dict[str, Any] = {}
    speedups: list[float] = []
    for name in app_names():
        for ranks in get_app(name).scales():
            if ranks < min_ranks:
                continue
            legacy = _timed_front_end(name, ranks, columnar=False)
            columnar = _timed_front_end(name, ranks, columnar=True)
            speedup = round(legacy["front_end_s"] / columnar["front_end_s"], 2)
            speedups.append(speedup)
            configs[f"{name}@{ranks}"] = {
                "legacy": legacy,
                "columnar": columnar,
                "front_end_speedup": speedup,
            }

    result: dict[str, Any] = {
        "front_end": configs,
        "summary": {
            "min_ranks": min_ranks,
            "configs": len(configs),
            "min_front_end_speedup": min(speedups) if speedups else None,
            "geomean_front_end_speedup": (
                round(float(np.exp(np.mean(np.log(speedups)))), 2)
                if speedups
                else None
            ),
            "target": FRONT_END_TARGET,
        },
    }
    if mapping:
        # Densest traffic graph in the study: the all-collective 3D FFT.
        result["mapping"] = _mapping_bench("BigFFT", 1024)
    return result


def run_routing_bench(
    ranks: int = 1728, pairs: int = 100_000, seed: int = 0
) -> dict[str, Any]:
    """Route-construction throughput of every policy at the 1728-rank scale.

    One batch of ``pairs`` random node pairs per topology, routed once per
    policy (load-aware policies see uniform unit weights); plus a cold/warm
    pass through :func:`repro.cache.cached_route_incidence` on the minimal
    policy to measure the memoization speedup the pipeline relies on.
    """
    from . import cache
    from .routing import ROUTINGS, get_policy
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
            t0 = time.perf_counter()
            inc = policy.route_incidence(topology, src, dst)
            dt = time.perf_counter() - t0
            entry[name] = {
                "seconds": round(dt, 4),
                "pairs_per_s": round(pairs / dt) if dt else None,
                "incidence_rows": inc.num_incidences,
                "mean_hops": round(inc.num_incidences / pairs, 3),
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
    t0 = time.perf_counter()
    cache.cached_route_incidence(topology, src, dst)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    cache.cached_route_incidence(topology, src, dst)
    warm = time.perf_counter() - t0
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
            "slowdown_ceiling": ROUTING_SLOWDOWN_CEILING,
            "cache_cold_s": round(cold, 4),
            "cache_warm_s": round(warm, 6),
            "cache_speedup": cache_speedup,
            "cache_speedup_target": CACHE_SPEEDUP_TARGET,
        },
    }


def run_telemetry_bench(
    num_pairs: int = 2_000,
    packets_per_pair: int = 250,
    execution_time: float = 1.1e-3,
    seed: int = 7,
    windows: int = 48,
    repeats: int = 6,
) -> dict[str, Any]:
    """Telemetry overhead on the 500k-packet dragonfly simulation, plus the
    adversarial minimal-vs-adaptive congestion comparison.

    The overhead section times the batched kernel three ways over the same
    prepared setup — no collector, :class:`~repro.telemetry.NullCollector`,
    and a full :class:`~repro.telemetry.WindowedCollector` — and reports
    each collector's median per-round ratio against the bare run over
    ``repeats`` rotated-order rounds (see the in-function comment for
    why that estimator).  The congestion section
    replays the hot-group traffic pattern per routing policy and records
    each policy's congestion-region summary.
    """
    from .comm.matrix import CommMatrixBuilder
    from .sim.common import prepare_simulation
    from .sim.engine import run_batched
    from .telemetry import (
        NullCollector,
        TelemetryConfig,
        WindowedCollector,
        adversarial_hot_group_matrix,
        congestion_by_routing,
    )
    from .topology.dragonfly import Dragonfly

    topo = Dragonfly(8, 4, 4)
    rng = np.random.default_rng(0)
    builder = CommMatrixBuilder(topo.num_nodes)
    src = rng.integers(0, topo.num_nodes, num_pairs)
    dst = (src + rng.integers(1, topo.num_nodes, num_pairs)) % topo.num_nodes
    packets = np.full(num_pairs, packets_per_pair, dtype=np.int64)
    builder.add_arrays(src, dst, packets * 4096, packets, packets)
    setup = prepare_simulation(
        builder.finalize(),
        topo,
        execution_time=execution_time,
        seed=seed,
        max_packets=2_000_000,
    )

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
            t0 = time.perf_counter()
            run_batched(setup, collector=makers[i]())
            samples[i].append(time.perf_counter() - t0)
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
            "null_ceiling": TELEMETRY_NULL_OVERHEAD_CEILING,
            "windowed_ceiling": TELEMETRY_WINDOWED_OVERHEAD_CEILING,
            "peak_window_occupancy": round(report.peak_occupancy, 4),
            "services_recorded": int(report.serve_series.sum()),
        },
        "congestion": congestion,
    }


def write_telemetry_bench(path: str | Path, data: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_telemetry_bench(data: dict[str, Any]) -> str:
    o = data["overhead"]
    lines = [
        f"telemetry overhead on {o['topology']} "
        f"({o['packets']} packets, {o['windows']} windows)",
        f"  bare kernel:        {o['bare_s']:.3f}s",
        f"  null collector:     {o['null_s']:.3f}s "
        f"({o['null_overhead']:.3f}x, ceiling {o['null_ceiling']}x)",
        f"  windowed collector: {o['windowed_s']:.3f}s "
        f"({o['windowed_overhead']:.3f}x, ceiling {o['windowed_ceiling']}x)",
        "",
        "adversarial hot-group congestion (Dragonfly(4,2,2)):",
        f"{'routing':<10} {'peak occ':>9} {'regions':>8} "
        f"{'peak links':>11} {'longest(s)':>11} {'hot win':>8}",
    ]
    for rec in data["congestion"]:
        lines.append(
            f"{rec['routing']:<10} {rec['peak_window_occupancy']:>9.3f} "
            f"{rec['num_regions']:>8} {rec['peak_region_links']:>11} "
            f"{rec['longest_region_s']:>11.2e} {rec['hot_windows']:>8}"
        )
    return "\n".join(lines)


def write_routing_bench(path: str | Path, data: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_routing_bench(data: dict[str, Any]) -> str:
    policies = list(data["summary"]["slowdown_vs_minimal"])
    header = f"{'topology':<12}" + "".join(f"{p:>12}" for p in policies)
    lines = [header + "   (pairs/s)"]
    for kind, entry in data["routing"].items():
        cells = "".join(
            f"{entry[p]['pairs_per_s']:>12,}".replace(",", " ")
            if entry[p]["pairs_per_s"]
            else f"{'n/a':>12}"
            for p in policies
        )
        lines.append(f"{kind:<12}{cells}")
    summary = data["summary"]
    slow = ", ".join(
        f"{name} {value}x"
        for name, value in summary["slowdown_vs_minimal"].items()
        if name != "minimal"
    )
    lines.append(
        f"geomean slowdown vs minimal: {slow} "
        f"(ceiling {summary['slowdown_ceiling']}x)"
    )
    lines.append(
        f"incidence cache warm/cold speedup: {summary['cache_speedup']}x "
        f"(target >= {summary['cache_speedup_target']}x)"
    )
    return "\n".join(lines)


def write_pipeline_bench(path: str | Path, data: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_pipeline_bench(data: dict[str, Any]) -> str:
    lines = [
        f"{'config':<24} {'legacy(s)':>10} {'columnar(s)':>12} {'speedup':>8}"
    ]
    for label, entry in data["front_end"].items():
        lines.append(
            f"{label:<24} {entry['legacy']['front_end_s']:>10.3f} "
            f"{entry['columnar']['front_end_s']:>12.3f} "
            f"{entry['front_end_speedup']:>7.1f}x"
        )
    summary = data["summary"]
    lines.append(
        f"min speedup {summary['min_front_end_speedup']}x "
        f"(target >= {summary['target']}x), "
        f"geomean {summary['geomean_front_end_speedup']}x"
    )
    if "mapping" in data:
        m = data["mapping"]
        lines.append(
            f"mapping {m['config']}: greedy {m['greedy_speedup']}x, "
            f"refine {m['refine_speedup']}x vs reference"
        )
    return "\n".join(lines)


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
    from .metrics.locality import rank_distance, rank_locality
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
    locality = rank_locality(matrix)
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


def run_scale_bench(
    ranks: int = SCALE_RANKS,
    chunk_mb: float = 8.0,
    budget_mb: float = SCALE_RSS_BUDGET_MB,
    rlimit_gb: float | None = None,
    app: str = "ScaleHalo3D",
) -> dict[str, Any]:
    """Measure the streaming pipeline's peak RSS in a fresh subprocess.

    ``ru_maxrss`` never goes down, so a clean measurement needs an
    interpreter that has run nothing but the pipeline.  ``rlimit_gb``
    additionally applies a hard ``RLIMIT_AS`` cap inside the child (the CI
    ``scale-smoke`` job uses this), so a memory regression aborts loudly
    instead of silently paging.  The asserted, machine-portable quantity
    is ``rss_ratio`` — measured peak RSS over the fixed budget.
    """
    import os
    import subprocess
    import sys

    from .apps import get_app

    # Fail eagerly (KeyError -> the CLI's one-line user-error path) rather
    # than as a subprocess traceback.
    get_app(app).calibration_for(ranks)
    cfg = {"app": app, "ranks": ranks, "chunk_bytes": int(chunk_mb * 1024 * 1024)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(Path(__file__).resolve().parents[1]), env.get("PYTHONPATH"))
        if p
    )
    preamble = ""
    if rlimit_gb is not None:
        lim = int(rlimit_gb * (1 << 30))
        preamble = (
            "import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({lim}, {lim}))\n"
        )
    code = (
        "import json, sys\n"
        + preamble
        + "from repro.bench import run_scale_pipeline\n"
        "json.dump(run_scale_pipeline(**json.loads(sys.argv[1])), sys.stdout)\n"
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
            f"scale pipeline subprocess failed (exit {proc.returncode}"
            + (f", RLIMIT_AS {rlimit_gb} GB" if rlimit_gb is not None else "")
            + "):\n" + "\n".join(tail)
        )
    child = json.loads(proc.stdout)
    peak = child["peak_rss_mb"]
    return {
        "scale": child,
        "summary": {
            "ranks": ranks,
            "chunk_mb": chunk_mb,
            "budget_mb": budget_mb,
            "rlimit_gb": rlimit_gb,
            "peak_rss_mb": peak,
            "rss_ratio": (
                round(peak / budget_mb, 4) if peak is not None else None
            ),
            "rss_ratio_ceiling": 1.0,
            "rows_per_s": (
                round(child["rows"] / child["front_end_s"])
                if child["front_end_s"]
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
    import os
    import subprocess
    import sys

    from .service.cells import spec_to_dict

    cfg = {"spec": spec_to_dict(spec), "cache_dir": str(cache_dir)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(Path(__file__).resolve().parents[1]), env.get("PYTHONPATH"))
        if p
    )
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
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-8:]
        raise RuntimeError(
            f"cold serial sweep subprocess failed (exit {proc.returncode}):\n"
            + "\n".join(tail)
        )
    return json.loads(proc.stdout)


def _cache_totals(stats: dict[str, Any]) -> dict[str, int]:
    totals = {"hits": 0, "misses": 0, "disk_hits": 0}
    for region in stats["cache"].values():
        for field in totals:
            totals[field] += region.get(field, 0)
    return totals


def _service_sweep(
    spec, warm_spec, state_dir: Path, cache_dir: Path, scheduler: str,
    workers: int
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
            state_dir, workers=workers, scheduler=scheduler, cache_dir=cache_dir
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


def run_sweep_bench(
    state_dir: str | Path | None = None, workers: int = SWEEP_WORKERS
) -> dict[str, Any]:
    """Cold serial vs warm sharded service on the reference grid.

    The baseline is a cold serial ``run_sweep`` in a fresh subprocess (it
    also warms the shared disk tier).  Then, per scheduler mode — affinity,
    then random — a :class:`~repro.service.server.SweepService` primes its
    resident workers with the same grid and is *measured* on the
    resubmit-with-a-tweak workflow the service exists for: the grid with a
    shifted bandwidth axis, where every cell recomputes but the workers'
    memory caches are hot.  Asserted quantities
    (``benchmarks/test_perf_sweep.py``): ``warm_speedup`` ≥
    :data:`SWEEP_WARM_SPEEDUP_TARGET`, affinity's warm-hit rate above
    random's, and record identity — each mode's prime job must match the
    cold serial records exactly, and the two modes' warm jobs must match
    each other (scheduling must never change values).
    """
    import dataclasses
    import shutil
    import tempfile

    owns_state = state_dir is None
    if owns_state:
        state_dir = tempfile.mkdtemp(prefix="repro-bench-sweep-")
    state = Path(state_dir)
    cache_dir = state / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    spec = sweep_bench_spec()
    # Half the paper bandwidth: new cell keys, identical intermediates.
    warm_spec = dataclasses.replace(spec, bandwidths=(6e9,))
    try:
        cold = _cold_serial_sweep(spec, cache_dir)
        affinity, affinity_prime, affinity_warm = _service_sweep(
            spec, warm_spec, state / "affinity", cache_dir, "affinity", workers
        )
        random_mode, random_prime, random_warm = _service_sweep(
            spec, warm_spec, state / "random", cache_dir, "random", workers
        )
    finally:
        if owns_state:
            shutil.rmtree(state, ignore_errors=True)

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
            "workers": workers,
            "cold_serial_s": round(cold["seconds"], 3),
            "warm_affinity_s": affinity["seconds"],
            "warm_random_s": random_mode["seconds"],
            "warm_speedup": round(warm_speedup, 2),
            "warm_speedup_target": SWEEP_WARM_SPEEDUP_TARGET,
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


def write_sweep_bench(path: str | Path, data: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_sweep_bench(data: dict[str, Any]) -> str:
    s = data["summary"]
    lines = [
        f"sharded sweep service on the {s['cells']}-cell reference grid "
        f"({s['workers']} workers)",
        f"  cold serial (subprocess):  {s['cold_serial_s']:>8.2f}s",
    ]
    for name, label in (("affinity", "warm affinity"), ("random", "warm random")):
        mode = data["modes"][name]
        lines.append(
            f"  {label + ':':<26} {mode['seconds']:>8.2f}s   "
            f"hit rate {mode['hit_rate']:.4f}   "
            f"(hits {mode['cache']['hits']}, misses {mode['cache']['misses']}, "
            f"disk {mode['cache']['disk_hits']}, "
            f"prime {mode['prime_seconds']:.2f}s)"
        )
    lines.append(
        f"  warm speedup: {s['warm_speedup']}x "
        f"(target >= {s['warm_speedup_target']}x)   "
        f"affinity beats random: {s['affinity_beats_random']}   "
        f"records identical: {s['records_identical']}"
    )
    return "\n".join(lines)


def write_scale_bench(path: str | Path, data: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_scale_bench(data: dict[str, Any]) -> str:
    s = data["scale"]
    summary = data["summary"]
    chunk_mb = s["chunk_bytes"] / (1024 * 1024)
    rlimit = (
        f"RLIMIT_AS {summary['rlimit_gb']} GB"
        if summary["rlimit_gb"] is not None
        else "none"
    )
    peak = (
        f"{summary['peak_rss_mb']:.1f} MB"
        if summary["peak_rss_mb"] is not None
        else "n/a"
    )
    ratio = (
        f"{summary['rss_ratio']:.3f}"
        if summary["rss_ratio"] is not None
        else "n/a"
    )
    return "\n".join(
        [
            f"streaming scale pipeline: {s['app']}@{s['ranks']} "
            f"(chunks of {chunk_mb:.1f} MB, rlimit {rlimit})",
            f"  rows streamed: {s['rows']:,} in {s['chunks']} chunks "
            f"({summary['rows_per_s']:,} rows/s)".replace(",", " "),
            f"  matrix pairs:  {s['pairs']:,}".replace(",", " "),
            f"  front end:     {s['front_end_s']:.3f}s   "
            f"locality: {s['locality_s']:.3f}s",
            f"  rank distance (90%): {s['rank_distance_90']}   "
            f"locality: {s['rank_locality']}   "
            f"avg peers: {s['avg_peers']:.2f}",
            f"  peak RSS:      {peak} of {summary['budget_mb']:.0f} MB budget "
            f"(ratio {ratio}, ceiling {summary['rss_ratio_ceiling']})",
        ]
    )

def run_tenancy_bench() -> dict[str, Any]:
    """Multi-tenant gates: interference-aware routing and solo identity.

    Gate 1 (victim-load reduction): a LULESH victim shares a dragonfly
    with a deliberately hostile :class:`~repro.apps.noise.HotspotNoise`
    aggressor flooding 16 targets.  The victim's peak exposed link load
    (max total services over links its routes traverse) is measured under
    minimal routing and under ``interference_aware`` routing primed with
    the victim's own structural loads.  Asserted
    (``benchmarks/test_perf_tenancy.py``):
    ``baseline / aware >= TENANCY_VICTIM_LOAD_REDUCTION_TARGET``.  Both
    numbers are structural route counts — deterministic on every machine.

    Gate 2 (solo identity): composing a single job with zero noise must be
    bit-identical to the solo run — the trace itself, every compared
    simulation observable, per-link serve counts, and the windowed
    telemetry report, on both engines.
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

    # --- gate 1: hot-spot aggressor on a dragonfly --------------------
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

    # --- gate 2: composed single job == solo run, both engines --------
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
            "victim_load_reduction_target": TENANCY_VICTIM_LOAD_REDUCTION_TARGET,
            "reduction_ok": reduction >= TENANCY_VICTIM_LOAD_REDUCTION_TARGET,
            "solo_identity_ok": identical,
        },
    }


def write_tenancy_bench(path: str | Path, data: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_tenancy_bench(data: dict[str, Any]) -> str:
    s = data["summary"]
    sc = data["scenario"]
    lines = [
        f"multi-tenant gates: {sc['victim']} vs {sc['aggressor']}",
        f"  topology {sc['topology']} ({sc['allocation']} allocation, "
        f"{sc['packets']} scaled packets)",
        f"  victim peak link load:  minimal {s['victim_peak_load_minimal']:.0f}"
        f"   interference_aware {s['victim_peak_load_aware']:.0f}",
        f"  reduction: {s['victim_load_reduction']}x "
        f"(target >= {s['victim_load_reduction_target']}x)   "
        f"ok: {s['reduction_ok']}",
        f"  solo identity (1 job, no noise, both engines): "
        f"{s['solo_identity_ok']}",
    ]
    return "\n".join(lines)


def run_critpath_bench() -> dict[str, Any]:
    """Critical-path gates: matcher speedup and sensitivity cross-check.

    Gate 1 (matcher): the 1728-rank AMG trace (with emitted receives,
    exact repeat expansion — ~5M p2p events) is matched by the vectorized
    channel-sort matcher and by the pinned per-event FIFO oracle.
    Asserted (``benchmarks/test_perf_critpath.py``): bit-identical
    (send, recv, bytes) edge arrays, and
    ``oracle_s / vectorized_s >= CRITPATH_MATCH_SPEEDUP_TARGET``.

    Gate 2 (sensitivity): every registry app's smallest configuration is
    analyzed on a torus with the finite-difference cross-check enabled;
    the asserted quantity is the maximum relative disagreement between the
    algebraic L-term count and the forward difference —
    deterministic (exactly zero with the dyadic defaults), no wall times.
    """
    from .apps.registry import generate_trace
    from .critpath import latency_table
    from .critpath.match import (
        ensure_receives,
        expand_events,
        match_events,
        match_events_oracle,
    )

    # --- gate 1: vectorized matcher vs per-event oracle ---------------
    app, ranks = CRITPATH_MATCH_WORKLOAD
    trace = ensure_receives(generate_trace(app, ranks, emit_receives=True))
    t0 = time.perf_counter()
    table = expand_events(trace, None)
    expand_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    vectorized = match_events(table)
    vectorized_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = match_events_oracle(table)
    oracle_s = time.perf_counter() - t0
    identical = bool(
        np.array_equal(vectorized.send_event, oracle.send_event)
        and np.array_equal(vectorized.recv_event, oracle.recv_event)
        and np.array_equal(vectorized.nbytes, oracle.nbytes)
    )
    speedup = oracle_s / vectorized_s if vectorized_s > 0 else float("inf")

    # --- gate 2: algebraic vs finite-difference dT/dL per app ---------
    t0 = time.perf_counter()
    rows = latency_table(fd_check=True)
    table_s = time.perf_counter() - t0
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
        "matcher": {
            "workload": f"{app}@{ranks}",
            "events": len(table),
            "pairs": len(vectorized),
            "expand_seconds": round(expand_s, 4),
            "vectorized_seconds": round(vectorized_s, 4),
            "oracle_seconds": round(oracle_s, 4),
        },
        "sensitivity": {"apps": apps, "table_seconds": round(table_s, 3)},
        "summary": {
            "match_speedup": round(speedup, 2),
            "match_speedup_target": CRITPATH_MATCH_SPEEDUP_TARGET,
            "match_ok": identical
            and speedup >= CRITPATH_MATCH_SPEEDUP_TARGET,
            "edges_identical": identical,
            "sensitivity_max_rel_err": max_rel_err,
            "sensitivity_rel_tol": CRITPATH_SENSITIVITY_REL_TOL,
            "sensitivity_ok": max_rel_err <= CRITPATH_SENSITIVITY_REL_TOL,
        },
    }


def write_critpath_bench(path: str | Path, data: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_critpath_bench(data: dict[str, Any]) -> str:
    m = data["matcher"]
    s = data["summary"]
    lines = [
        f"critical-path gates: FIFO matcher on {m['workload']} "
        f"({m['events']} events, {m['pairs']} matched pairs)",
        f"  vectorized {m['vectorized_seconds']:.3f}s   "
        f"oracle {m['oracle_seconds']:.3f}s   "
        f"speedup {s['match_speedup']}x "
        f"(target >= {s['match_speedup_target']}x)",
        f"  edge sets bit-identical: {s['edges_identical']}   "
        f"ok: {s['match_ok']}",
        f"  dT/dL cross-check over {len(data['sensitivity']['apps'])} apps: "
        f"max rel err {s['sensitivity_max_rel_err']:.2e} "
        f"(tol {s['sensitivity_rel_tol']})   ok: {s['sensitivity_ok']}",
    ]
    return "\n".join(lines)


def run_collectives_bench() -> dict[str, Any]:
    """Collective-engine gates: flat-identity pin and tree locality delta.

    Gate 1 (identity): for every registry app's smallest configuration,
    the flat engine's matrix must be bit-identical to the parameterless
    default ``matrix_from_trace(trace)`` (the pre-engine behavior is the
    pinned baseline) *and* to a matrix rebuilt through the independent
    per-event path (``iter_send_groups`` feeding
    ``CommMatrixBuilder.add_group``) — two code paths, one answer.

    Gate 2 (delta): on :data:`COLLECTIVES_DELTA_WORKLOAD` the binomial
    engine must measurably change network locality versus flat: expanded
    collective bytes grow by >= :data:`COLLECTIVES_BYTES_RATIO_FLOOR` and
    torus average hops move by >= :data:`COLLECTIVES_HOPS_DELTA_FLOOR`
    relative.  Both are deterministic structural ratios
    (``benchmarks/test_perf_collectives.py``); seconds are provenance.
    """
    from .apps.registry import iter_configurations
    from .cache import cached_trace
    from .collectives import collective_volume, iter_send_groups
    from .comm.matrix import CommMatrixBuilder, matrix_from_trace
    from .model.engine import analyze_network
    from .topology.configs import config_for
    from .validation.invariants import matrices_identical

    # --- gate 1: flat engine bit-identical on every registry app ------
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
        builder = CommMatrixBuilder(trace.meta.num_ranks)
        for classified in iter_send_groups(trace):
            builder.add_group(classified.group)
        per_event = builder.finalize()
        apps.append(
            {
                "workload": f"{name}@{ranks}",
                "pairs": len(flat.src),
                "total_bytes": int(flat.total_bytes),
                "default_identical": matrices_identical(flat, default),
                "per_event_identical": matrices_identical(flat, per_event),
            }
        )
    identity_s = time.perf_counter() - t0
    flat_identity_ok = all(
        a["default_identical"] and a["per_event_identical"] for a in apps
    )

    # --- gate 2: flat vs binomial locality delta ----------------------
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
            "identity_seconds": round(identity_s, 3),
        },
        "delta": {
            "workload": f"{app}@{ranks}",
            "topology": "torus3d",
            "engines": engines,
            "delta_seconds": round(delta_s, 3),
        },
        "summary": {
            "flat_identity_ok": flat_identity_ok,
            "apps_checked": len(apps),
            "bytes_ratio": round(bytes_ratio, 4),
            "bytes_ratio_floor": COLLECTIVES_BYTES_RATIO_FLOOR,
            "bytes_ratio_ok": bytes_ratio >= COLLECTIVES_BYTES_RATIO_FLOOR,
            "hops_delta_rel": round(hops_delta, 4),
            "hops_delta_floor": COLLECTIVES_HOPS_DELTA_FLOOR,
            "hops_delta_ok": hops_delta >= COLLECTIVES_HOPS_DELTA_FLOOR,
        },
    }


def write_collectives_bench(path: str | Path, data: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_collectives_bench(data: dict[str, Any]) -> str:
    s = data["summary"]
    d = data["delta"]
    flat = d["engines"]["flat"]
    binom = d["engines"]["binomial"]
    lines = [
        f"collective-engine gates: flat identity over "
        f"{s['apps_checked']} apps "
        f"({data['identity']['identity_seconds']:.1f}s)   "
        f"ok: {s['flat_identity_ok']}",
        f"  delta on {d['workload']} ({d['topology']}): "
        f"collective bytes {flat['collective_bytes']} -> "
        f"{binom['collective_bytes']} "
        f"(ratio {s['bytes_ratio']}x, floor {s['bytes_ratio_floor']}x)   "
        f"ok: {s['bytes_ratio_ok']}",
        f"  avg hops {flat['avg_hops']:.3f} -> {binom['avg_hops']:.3f} "
        f"(rel delta {s['hops_delta_rel']}, "
        f"floor {s['hops_delta_floor']})   ok: {s['hops_delta_ok']}",
    ]
    return "\n".join(lines)
