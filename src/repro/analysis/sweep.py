"""Generic parameter-sweep harness.

The paper's evaluation is one fixed grid (41 configurations x 3
topologies).  Downstream users usually want *their own* grid — a different
payload, a different bandwidth, an optimized mapping, a custom topology
size.  ``run_sweep`` crosses any subset of those axes and returns flat
records (compatible with :mod:`repro.analysis.export`), so custom studies
are a few lines:

    from repro.analysis.sweep import SweepSpec, run_sweep
    records = run_sweep(SweepSpec(
        apps=[("LULESH", 64), ("AMG", 216)],
        topologies=("torus3d", "fattree"),
        mappings=("consecutive", "bisection"),
        payloads=(1024, 4096),
    ), workers=4)

Traces, matrices, and route incidences are memoized through
:mod:`repro.cache`, so repeated sweeps (and the many points sharing one
app/payload) rebuild nothing.  ``workers=N`` evaluates grid points in
``N`` processes; records are returned in the same deterministic order —
and with identical values — as the sequential run, because every point is
a pure function of the spec.  Points are dispatched in contiguous chunks
so each worker's process-local cache still gets within-app hits.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator

from .. import timings
from ..cache import cached_mapping, cached_matrix, cached_trace
from ..collectives.registry import COLLECTIVES
from ..mapping.base import Mapping
from ..model.engine import BANDWIDTH_BYTES_PER_S, analyze_network
from ..routing import ROUTINGS
from ..topology.configs import TOPOLOGY_KINDS, build_topology

__all__ = [
    "AXES",
    "Axis",
    "AxisError",
    "MAPPING_METHODS",
    "POINT_NAMES",
    "SweepSpec",
    "axis",
    "run_sweep",
    "unique_points",
]

_log = logging.getLogger("repro.sweep")

MAPPING_METHODS = ("consecutive", "random", "greedy", "spectral", "bisection")


# ------------------------------------------------------------ converters
# Each returns the canonical form of one value or raises ValueError.  They
# are strict on purpose: a JSON "false" or "48" is an error, not a truthy
# flag or a string that fails later.


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _int(minimum: int) -> Callable[[Any], int]:
    def convert(value: Any) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return int(value)

    return convert


def _float(ok: Callable[[float], bool], expected: str) -> Callable[[Any], float]:
    def convert(value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"must be a number, got {value!r}")
        if not ok(float(value)):
            raise ValueError(f"must be {expected}, got {value!r}")
        return float(value)

    return convert


def _one_of(registry: tuple[str, ...], what: str) -> Callable[[Any], str]:
    def convert(value: Any) -> str:
        if not isinstance(value, str) or value not in registry:
            raise ValueError(f"unknown {what} {value!r}; known: {list(registry)}")
        return value

    return convert


def _app(value: Any) -> tuple[str, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"entries are (name, ranks) pairs, got {value!r}")
    name, ranks = value
    if not isinstance(name, str) or not name:
        raise ValueError(f"app name must be a non-empty string, got {name!r}")
    try:
        return (name, _int(1)(ranks))
    except ValueError as exc:
        raise ValueError(f"ranks of {name} {exc}") from None


def _parse_app(text: str) -> tuple[str, int]:
    name, _, ranks = text.partition(":")
    if not name or not ranks.isdigit():
        raise ValueError(f"entries are NAME:RANKS, got {text!r}")
    return (name, int(ranks))


_positive = _float(lambda v: 0.0 < v < math.inf, "positive and finite")


# ------------------------------------------------------------ declaration


@dataclass(frozen=True)
class Axis:
    """How one :class:`SweepSpec` field is checked, keyed, and exposed.

    ``point`` names the slots a point axis fills in every grid point (and
    record); a field with no point names is *shared* by every cell.  A
    shared field with a ``gate`` shapes records only while that boolean
    field is on, so it enters the cell key only then.  ``flag`` (with
    ``help`` and the text parser ``parse``) exposes the field on the
    ``sweep`` and ``submit`` commands.
    """

    default: Any
    convert: Callable[[Any], Any]
    point: tuple[str, ...] = ()
    gate: str | None = None
    flag: str | None = None
    help: str = ""
    parse: Callable[[str], Any] = str

    @property
    def many(self) -> bool:
        """A tuple of values, each checked by ``convert``."""
        return isinstance(self.default, tuple)


class AxisError(ValueError):
    """A :class:`SweepSpec` field value its converter rejected.

    The text names the field; ``field`` and ``reason`` let a front end
    name its own flag for it instead.
    """

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def axis(default: Any, convert: Callable[[Any], Any], **kwargs: Any) -> Any:
    """Declare one spec field; see :class:`Axis` for the keywords."""
    if isinstance(kwargs.get("point"), str):
        kwargs["point"] = (kwargs["point"],)
    return field(default=default, metadata={"axis": Axis(default, convert, **kwargs)})


@dataclass(frozen=True)
class SweepSpec:
    """The axes of one sweep.

    Every field is declared once, through :func:`axis`; validation, the
    grid, the wire format (``repro.service.cells``), cell keys, and the
    ``sweep``/``submit`` flags are all derived from those declarations.
    Point axes come first, in grid order (outermost first); every tuple
    field multiplies the record count, bandwidths looping innermost.
    ``include_collectives`` mirrors the §5 (False) vs §6 (True) analysis
    modes.
    """

    apps: tuple[tuple[str, int], ...] = axis(
        (("LULESH", 64),), _app, point=("app", "ranks"), flag="--apps",
        parse=_parse_app,
        help="comma-separated NAME:RANKS pairs, e.g. LULESH:64,AMG:216",
    )
    payloads: tuple[int, ...] = axis(
        (4096,), _int(1), point="payload", flag="--payloads", parse=int,
        help="comma-separated packet payloads",
    )
    topologies: tuple[str, ...] = axis(
        TOPOLOGY_KINDS, _one_of(TOPOLOGY_KINDS, "topology"), point="topology",
        flag="--topologies",
        help=f"comma-separated topology kinds ({', '.join(TOPOLOGY_KINDS)})",
    )
    mappings: tuple[str, ...] = axis(
        ("consecutive",), _one_of(MAPPING_METHODS, "mapping method"),
        point="mapping", flag="--mappings",
        help=f"comma-separated mapping methods ({', '.join(MAPPING_METHODS)})",
    )
    routings: tuple[str, ...] = axis(
        ("minimal",), _one_of(ROUTINGS, "routing policy"), point="routing",
        flag="--routings",
        help=f"comma-separated routing policies ({', '.join(ROUTINGS)})",
    )
    collectives: tuple[str, ...] = axis(
        ("flat",), _one_of(COLLECTIVES, "collective algorithm"),
        point="collective", flag="--collectives",
        help="comma-separated collective-algorithm engines "
        f"({', '.join(COLLECTIVES)}; flat is the paper's expansion)",
    )
    bandwidths: tuple[float, ...] = axis(
        (BANDWIDTH_BYTES_PER_S,), _positive, flag="--bandwidths", parse=float,
        help="comma-separated link bandwidths in bytes/s, one record each "
        "(default: the paper's 12e9)",
    )
    include_collectives: bool = axis(True, _bool)
    seed: int = axis(
        0, _int(0), flag="--seed", parse=int,
        help="seed of traces, random mappings and randomized routings",
    )
    telemetry: bool = axis(
        False, _bool, flag="--telemetry",
        help="also simulate each point with a windowed collector and merge "
        "a compact congestion summary into the records",
    )
    telemetry_windows: int = axis(48, _int(1), gate="telemetry")
    telemetry_threshold: float = axis(
        0.7, _float(lambda v: 0.0 < v <= 1.0, "in (0, 1]"), gate="telemetry"
    )
    sim_volume_scale: float = axis(
        1.0, _float(lambda v: 1.0 <= v < math.inf, ">= 1 and finite"),
        gate="telemetry", flag="--sim-volume-scale", parse=float,
        help="with --telemetry: simulate 1/k of the volume at 1/k "
        "bandwidth (for big traces)",
    )
    critpath: bool = axis(
        False, _bool, flag="--critpath",
        help="also build each point's happens-before DAG and merge the "
        "LogGP critical path and latency sensitivity into the records",
    )
    critpath_max_repeat: int = axis(64, _int(1), gate="critpath")

    def __post_init__(self) -> None:
        for name, decl in AXES.items():
            value = getattr(self, name)
            try:
                if not decl.many:
                    value = decl.convert(value)
                elif not isinstance(value, (list, tuple)):
                    raise ValueError(f"must be a list of values, got {value!r}")
                elif not value:
                    raise ValueError("needs at least one value")
                else:
                    value = tuple(decl.convert(v) for v in value)
            except ValueError as exc:
                raise AxisError(name, str(exc)) from None
            object.__setattr__(self, name, value)

    @property
    def num_points(self) -> int:
        """Records the sweep yields: the product of every tuple field."""
        return math.prod(
            len(getattr(self, name)) for name, decl in AXES.items() if decl.many
        )

    def points(self) -> list[tuple]:
        """The grid in canonical evaluation order (bandwidths loop inside).

        Each point is a flat tuple named by :data:`POINT_NAMES`.
        """
        grid = (
            [v if len(decl.point) > 1 else (v,) for v in getattr(self, name)]
            for name, decl in AXES.items()
            if decl.point
        )
        return [sum(combo, ()) for combo in itertools.product(*grid)]


#: Every spec field's declaration, in field order.
AXES: dict[str, Axis] = {f.name: f.metadata["axis"] for f in fields(SweepSpec)}

#: The slots of a grid point: ``(app, ranks, payload, topology, mapping,
#: routing, collective)``.
POINT_NAMES: tuple[str, ...] = tuple(
    slot for decl in AXES.values() for slot in decl.point
)


def unique_points(spec: SweepSpec) -> tuple[list[tuple], int]:
    """The grid with duplicate cells collapsed, plus the collapsed count.

    Duplicate axis values (``apps=(("LULESH", 64), ("LULESH", 64))``) used
    to evaluate — and record — the same cell twice.  Every consumer
    (:func:`run_sweep` and the job service) expands through this helper, so
    each distinct cell is computed and recorded exactly once, in first-
    occurrence order.  Collapsing emits one warning here — the single
    shared site — so the direct API and the service path (``repro
    submit`` via ``expand_cells``) both surface it.
    """
    seen: set[tuple] = set()
    points = []
    for point in spec.points():
        if point in seen:
            continue
        seen.add(point)
        points.append(point)
    collapsed = len(spec.points()) - len(points)
    if collapsed:
        _log.warning(
            "sweep: collapsed %d duplicate grid cells (%d unique of %d)",
            collapsed,
            len(points),
            len(points) + collapsed,
        )
    return points, collapsed


def _build_mapping(method: str, matrix, topology, seed: int) -> Mapping:
    if method == "random":
        return Mapping.random(matrix.num_ranks, topology.num_nodes, seed=seed)
    return cached_mapping(matrix, topology, method=method, seed=seed)


@dataclass
class _Cell:
    """One grid point between its start and its records.

    ``telemetry`` holds one field dict per bandwidth (with telemetry); a
    deferred simulation's slot stays ``None`` until its group has run.
    """

    point: tuple
    trace: Any
    matrix: Any
    topology: Any
    mapping: Mapping
    critpath_fields: dict[str, Any]
    telemetry: list[dict[str, Any] | None] = field(default_factory=list)


def _start_point(spec: SweepSpec, point: tuple) -> tuple[_Cell, list[tuple]]:
    """Everything a point needs before its records, simulations included.

    With telemetry, each bandwidth's simulation is prepared here: sparse
    ones run at once on the reference loop and are reduced to their record
    fields.  Dense ones (those ``engine="auto"`` sends to the batched
    kernel) are returned as ``(bandwidth index, setup, collector)``
    triples for the caller to run as a group.
    """
    app, ranks, payload, topo_kind, mapping_method, routing, collective = point
    trace = cached_trace(app, ranks, seed=spec.seed)
    matrix = cached_matrix(
        trace,
        include_collectives=spec.include_collectives,
        payload=payload,
        collective=collective,
    )
    topology = build_topology(topo_kind, ranks)
    mapping = _build_mapping(mapping_method, matrix, topology, spec.seed)
    critpath_fields: dict[str, Any] = {}
    if spec.critpath:
        # Independent of payload and bandwidth: computed once per point and
        # merged into every bandwidth record.
        critpath_fields = _critpath_fields(
            spec, trace, topology, mapping, routing, collective
        )
    cell = _Cell(point, trace, matrix, topology, mapping, critpath_fields)
    dense: list[tuple] = []
    if spec.telemetry:
        from ..sim.common import empty_result, prepare_simulation
        from ..sim.engine import choose_engine
        from ..sim.reference import run_reference
        from ..telemetry import TelemetryConfig, WindowedCollector

        cell.telemetry = [None] * len(spec.bandwidths)
        for index, bandwidth in enumerate(spec.bandwidths):
            # The simulator prepares first: it keeps the route rows it
            # walks, and the model's route summary derives from them
            # without a second walk.
            setup = prepare_simulation(
                matrix,
                topology,
                mapping=mapping,
                execution_time=trace.meta.execution_time,
                bandwidth=bandwidth,
                payload=payload,
                volume_scale=spec.sim_volume_scale,
                seed=spec.seed,
                routing=routing,
                routing_seed=spec.seed,
            )
            collector = WindowedCollector(
                TelemetryConfig(windows=spec.telemetry_windows)
            )
            if setup is None:
                sim = empty_result()
            elif choose_engine(setup) == "batched":
                dense.append((index, setup, collector))
                continue
            else:
                with timings.stage("sim"):
                    sim = run_reference(setup, collector=collector)
            cell.telemetry[index] = _telemetry_fields(spec, sim, topology)
    return cell, dense


def _finish_point(spec: SweepSpec, cell: _Cell) -> list[dict[str, Any]]:
    """The records of a started point whose simulations have all run."""
    app, ranks, payload, topo_kind, mapping_method, routing, collective = cell.point
    records = []
    for index, bandwidth in enumerate(spec.bandwidths):
        telemetry_fields = cell.telemetry[index] if spec.telemetry else {}
        result = analyze_network(
            cell.matrix,
            cell.topology,
            mapping=cell.mapping,
            execution_time=cell.trace.meta.execution_time,
            bandwidth=bandwidth,
            payload=payload,
            routing=routing,
            routing_seed=spec.seed,
        )
        record = {
            "app": app,
            "ranks": ranks,
            "topology": topo_kind,
            "mapping": mapping_method,
            "routing": routing,
            "collective": collective,
            "payload": payload,
            "bandwidth": bandwidth,
            "packet_hops": result.packet_hops,
            "avg_hops": round(result.avg_hops, 4),
            "utilization_percent": round(result.utilization_percent, 6),
            "used_links": result.used_links,
            **telemetry_fields,
            **cell.critpath_fields,
        }
        records.append(record)
    return records


def _eval_points(spec: SweepSpec, points: list[tuple]) -> Iterator[list[dict[str, Any]]]:
    """Evaluate grid points in order, yielding each point's records.

    Each point is a pure function of ``(spec, point)``.  Dense simulations
    wait in one pending group until it holds
    :data:`~repro.sim.engine.GROUP_HOP_BUDGET` packet-hops (or the points
    run out); the group then runs as one
    :func:`~repro.sim.engine.run_group`, and the points that waited on it
    are finished in grid order.  Results are bit-identical to simulating
    each point alone.
    """
    from ..sim import engine

    pending: list[tuple] = []  # (cell, bandwidth index, setup, collector)
    hops = 0
    waiting: list[_Cell] = []

    def simulate() -> None:
        with timings.stage("sim"):
            results = engine.run_group([(s, c) for _, _, s, c in pending])
        for (cell, index, _, _), sim in zip(pending, results):
            cell.telemetry[index] = _telemetry_fields(spec, sim, cell.topology)

    for point in points:
        cell, dense = _start_point(spec, point)
        waiting.append(cell)
        for index, setup, collector in dense:
            pending.append((cell, index, setup, collector))
            hops += setup.total_hops
            if hops >= engine.GROUP_HOP_BUDGET:
                simulate()
                pending, hops = [], 0
        if not pending:
            for cell in waiting:
                yield _finish_point(spec, cell)
            waiting = []
    if pending:
        simulate()
    for cell in waiting:
        yield _finish_point(spec, cell)


def _eval_point(
    spec: SweepSpec, point: tuple[str, int, int, str, str, str, str]
) -> list[dict[str, Any]]:
    """Evaluate one grid point — a pure function of (spec, point).

    The job service evaluates cells one at a time through this; all heavy
    intermediates go through the process-local :mod:`repro.cache`, so
    points sharing an app/payload rebuild nothing.
    """
    return next(_eval_points(spec, [point]))


def _critpath_fields(
    spec: SweepSpec, trace, topology, mapping, routing, collective
) -> dict[str, Any]:
    """Critical-path profile of one grid point under the LogGP model.

    The DAG is memoized per trace content key, so the many points sharing
    one app build it once.  Traces the matcher rejects (or an acyclicity
    failure) degrade to NaN fields rather than sinking the whole sweep —
    ``repro check`` is the tool that diagnoses those.
    """
    from ..critpath import CycleError, MatchError, analyze_trace

    try:
        analysis = analyze_trace(
            trace,
            topology=topology,
            mapping=mapping,
            routing=routing,
            routing_seed=spec.seed,
            max_repeat=spec.critpath_max_repeat,
            fd_check=False,
            collective=collective,
        )
    except (MatchError, CycleError) as exc:
        _log.warning("critpath axis skipped for %s: %s", trace.meta.app, exc)
        return {
            "critical_path_s": float("nan"),
            "latency_sensitivity": float("nan"),
        }
    return {
        "critical_path_s": round(analysis.makespan_s, 9),
        "latency_sensitivity": float(analysis.l_terms),
    }


def _telemetry_fields(spec, sim, topology) -> dict[str, Any]:
    """Flatten a telemetry-instrumented simulation into compact fields.

    All values are plain floats/ints so records stay picklable for the
    process pool and serializable by :mod:`repro.analysis.export`.
    """
    from ..telemetry import congestion_summary

    fields: dict[str, Any] = {
        "makespan_inflation": round(sim.makespan_inflation, 4),
        "peak_link_busy_fraction": round(sim.peak_link_busy_fraction, 6),
    }
    if sim.telemetry is not None:
        summary = congestion_summary(
            sim.telemetry, topology, threshold=spec.telemetry_threshold
        )
        fields["peak_window_occupancy"] = round(
            sim.telemetry.peak_occupancy, 6
        )
        fields.update(summary.as_dict())
    return fields


def _eval_chunk(
    spec: SweepSpec, chunk: list[tuple[str, int, int, str, str, str, str]]
) -> list[list[dict[str, Any]]]:
    """Evaluate a contiguous run of grid points in one worker process."""
    return list(_eval_points(spec, chunk))


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list[dict[str, Any]]:
    """Evaluate every sweep point; one flat record per (point, bandwidth).

    Duplicate cells within the spec (repeated axis values) are collapsed
    before evaluation — each distinct cell is computed and recorded once,
    with a one-line warning giving the collapsed count.

    ``workers`` > 1 distributes grid points over that many processes — one
    future per contiguous *chunk* of cells rather than one per cell, so the
    executor schedules ``workers`` tasks instead of thousands and same-app
    cells land on one worker whose process-local trace/matrix caches hit.
    Results are deterministic: the record order and every value are
    identical for any worker count (each point is a pure function of the
    spec, and chunks are reassembled in grid order).

    With telemetry, dense simulations run in groups that share kernel
    rounds (:func:`repro.sim.engine.run_group`), within each process.

    ``progress`` is called as ``progress(done, total)`` in cells — after
    every finished cell sequentially (cells waiting on a simulation group
    finish together, in grid order), after every finished chunk in
    parallel runs.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    points, _collapsed = unique_points(spec)
    total = len(points)
    if workers == 1 or total <= 1:
        per_point = []
        for records in _eval_points(spec, points):
            per_point.append(records)
            if progress is not None:
                progress(len(per_point), total)
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        chunksize = max(1, -(-total // workers))
        chunks = [points[i : i + chunksize] for i in range(0, total, chunksize)]
        results: list[list[list[dict[str, Any]]] | None] = [None] * len(chunks)
        done = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_eval_chunk, spec, chunk): i
                for i, chunk in enumerate(chunks)
            }
            for future in as_completed(futures):
                i = futures[future]
                results[i] = future.result()
                done += len(chunks[i])
                if progress is not None:
                    progress(done, total)
        per_point = [cell for chunk_result in results for cell in chunk_result]
    return [record for records in per_point for record in records]
