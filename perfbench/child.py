"""One benchmark repetition in a fresh interpreter: set-up, cold leg, warm leg.

``run.py`` starts this script once per repetition::

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1

with ``src`` on ``PYTHONPATH`` and ``REPRO_CACHE_DIR`` unset.  The disk
cache tier is off, so the cold leg starts from empty caches.  Set-up covers
the imports and a tiny priming run of the same code paths; the wall clock at
its end is reported as ``ready_at``.  The warm leg then re-queries the caches
the cold leg filled, and repeats until it has run ``WARM_MIN_S`` seconds (at
most ``WARM_MAX_REPEATS`` times).  A fixed calibration kernel is timed
before, between and after the legs, so ``run.py`` can tell a slower host
from slower code.

With ``--trace 1`` every layer entry point in :data:`ENTRY_POINTS` records a
span.  The last stdout line is one JSON object: leg wall times, unit
digests, cache-stat deltas, per-layer totals and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from typing import Any

WARM_MIN_S = 1.0
WARM_MAX_REPEATS = 10

#: Calibration-kernel samples taken before the cold leg, between the legs
#: and after the warm legs.
CALIBRATION_SAMPLES = 3

#: Cache regions whose per-leg hit/miss deltas are reported.
CACHE_REGIONS = ("trace", "matrix", "incidence", "mapping", "critpath")


def _rows(args, trace) -> dict[str, float]:
    return {"rows": len(trace)}


def _pairs(args, matrix) -> dict[str, float]:
    return {"pairs": matrix.num_pairs}


def _routed_pairs(args, incidence) -> dict[str, float]:
    return {"pairs": len(args[1])}


def _dag_size(args, dag) -> dict[str, float]:
    return {"events": dag.num_events, "edges": dag.num_edges}


def _packet_hops(args, result) -> dict[str, float]:
    return {"packet_hops": result.total_hops}


def _regions(args, summary) -> dict[str, float]:
    return {"regions": summary.num_regions}


#: (module, attribute, layer, counter, cache region gating the counter).
#: Each attribute is the binding its caller resolves at call time.
ENTRY_POINTS = (
    ("repro.analysis.tables", "cached_trace", "apps", _rows, "trace"),
    ("repro.analysis.report", "cached_trace", "apps", _rows, "trace"),
    ("repro.analysis.sweep", "cached_trace", "apps", _rows, "trace"),
    ("repro.analysis.tables", "cached_matrix", "comm", _pairs, "matrix"),
    ("repro.analysis.report", "cached_matrix", "comm", _pairs, "matrix"),
    ("repro.analysis.sweep", "cached_matrix", "comm", _pairs, "matrix"),
    ("repro.collectives", "collective_volume", "comm", None, None),
    ("repro.analysis.tables", "trace_stats", "metrics", None, None),
    ("repro.analysis.tables", "mpi_level_metrics", "metrics", None, None),
    ("repro.analysis.tables", "locality_by_dimension", "metrics", None, None),
    ("repro.analysis.report", "trace_stats", "metrics", None, None),
    ("repro.analysis.report", "mpi_level_metrics", "metrics", None, None),
    ("repro.analysis.report", "heatmap_summary", "metrics", None, None),
    ("repro.analysis.sweep", "cached_mapping", "mapping", None, None),
    ("repro.model.engine", "cached_route_incidence", "routing", _routed_pairs, "incidence"),
    ("repro.sim.common", "cached_route_incidence", "routing", _routed_pairs, "incidence"),
    ("repro.cache", "cached_route_incidence", "routing", _routed_pairs, "incidence"),
    ("repro.analysis.tables", "analyze_network", "model", None, None),
    ("repro.analysis.report", "analyze_network", "model", None, None),
    ("repro.analysis.sweep", "analyze_network", "model", None, None),
    ("repro.sim.engine", "simulate_network", "sim", _packet_hops, None),
    ("repro.telemetry", "congestion_summary", "telemetry", _regions, None),
    ("repro.critpath.dag", "ensure_receives", "critpath.match", None, None),
    ("repro.critpath.dag", "expand_events", "critpath.match", None, None),
    ("repro.critpath.dag", "match_events", "critpath.match", None, None),
    ("repro.critpath.dag", "build_dag", "critpath.dag", _dag_size, None),
    # The Kahn level schedule is built lazily by the first longest-path
    # pass and kept on the (cached) DAG: structure, not path search.
    ("repro.critpath.dag.HappensBeforeDag", "level_schedule", "critpath.dag", None, None),
    ("repro.critpath.analyze", "edge_costs", "critpath.path", None, None),
    ("repro.critpath.analyze", "critical_path", "critpath.path", None, None),
)


def canonical(obj: Any) -> Any:
    """A JSON-ready form of a unit's output that keeps every float bit."""
    import numpy

    if isinstance(obj, numpy.generic):
        obj = obj.item()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__name__,
            **{f.name: canonical(getattr(obj, f.name)) for f in fields(obj)},
        }
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(obj: Any) -> str:
    raw = json.dumps(canonical(obj), sort_keys=True).encode()
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def calibration_s() -> float:
    """Wall time of a fixed kernel that never touches ``repro``.

    An interpreter loop plus an in-place NumPy sort and gather, so that it
    slows down with a contended host the way the workloads do; ``run.py``
    scales the leg times by it.  The timed part allocates nothing, so the
    state of the heap cannot move it.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    values = rng.random(1 << 17)
    index = rng.integers(0, values.size, values.size)
    work = numpy.empty_like(values)
    gathered = numpy.empty_like(values)
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i & 7
    for _ in range(10):
        work[:] = values
        work.sort()
        numpy.take(work, index, out=gathered)
    return time.perf_counter() - start


def _calibrate() -> list[float]:
    return [calibration_s() for _ in range(CALIBRATION_SAMPLES)]


def _cache_counts() -> dict[str, dict[str, int]]:
    from repro import cache

    stats = cache.stats()
    return {region: dict(stats[region]) for region in CACHE_REGIONS}


def _run_leg(fn, seed: int, workload, recorder) -> dict[str, Any]:
    """Time one leg; digest its units afterwards, outside the timed region."""
    from spans import layer_totals, root_seconds, to_json

    before = _cache_counts()
    error = None
    start = time.perf_counter()
    try:
        units = fn(seed)
    except Exception:  # a failed leg is reported, its units count as failed
        error = traceback.format_exc()
        units = []
    wall = time.perf_counter() - start
    after = _cache_counts()
    leg: dict[str, Any] = {
        "wall_s": wall,
        "error": error,
        "units": [
            [uid, digest(out), digest(workload.static(out)), workload.degraded(out)]
            for uid, out in units
        ],
        "cache": {
            region: {
                key: after[region][key] - before[region][key]
                for key in ("hits", "misses")
            }
            for region in CACHE_REGIONS
        },
    }
    if recorder is not None:
        spans = recorder.take()
        leg["layers"] = layer_totals(spans)
        leg["layer_root_s"] = root_seconds(spans)
        leg["layer_self_sum_s"] = sum(s.self_s for s in spans)
        leg["spans"] = to_json(spans, start)
    return leg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy

    from repro import cache
    from spans import SpanRecorder
    from workloads import WORKLOADS

    cache.configure(disable_disk=True)
    workload = WORKLOADS[args.workload]
    workload.prime(args.seed)
    cache.clear()
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        for module, attr, layer, count, region in ENTRY_POINTS:
            recorder.wrap(module, attr, layer, count=count, miss_region=region)
    ready_at = time.time()

    calibration = {"before": _calibrate()}
    cold = _run_leg(workload.cold, args.seed, workload, recorder)
    calibration["between"] = _calibrate()
    warm_legs = []
    while len(warm_legs) < WARM_MAX_REPEATS and (
        sum(leg["wall_s"] for leg in warm_legs) < WARM_MIN_S
    ):
        warm_legs.append(_run_leg(workload.warm, args.seed, workload, recorder))
        if cold["error"] or warm_legs[-1]["error"]:
            break
    calibration["after"] = _calibrate()

    result = {
        "ready_at": ready_at,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cold": cold,
        "warm": warm_legs,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
