"""Cell identity: content keys, affinity tokens, and spec serialization.

A **cell** is one grid point of a :class:`~repro.analysis.sweep.SweepSpec`
together with every spec-level field that influences its records (seed,
collectives mode, bandwidths, telemetry configuration).  Its ``key`` is a
BLAKE2 digest of exactly those fields, so two cells with equal keys produce
bit-identical records no matter which job, worker, or server lifetime
computes them — the property the journal, the in-flight dedup table, and
the record cache all rest on.

Everything here is derived from the spec's field declarations
(:data:`~repro.analysis.sweep.AXES`).  A *gated* shared field — the
``telemetry_*`` fields and ``sim_volume_scale`` behind ``telemetry``,
``critpath_max_repeat`` behind ``critpath`` — enters the key only while
its gate is on: with the gate off it shapes no record, so it must not split
one computation over several keys.  Values enter the key in the canonical
form ``SweepSpec`` converts them to, so ``telemetry=True`` from Python and
``"telemetry": true`` from the wire share one key.

The **affinity token** is the coarser grouping the scheduler routes on: the
subset of the key that selects the expensive cached artifacts (the trace
and its matrices).  Cells sharing a token want to land on the same worker,
where the first one pays the deserialization and the rest hit that
process's warm memory LRU.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ..analysis.sweep import AXES, POINT_NAMES, SweepSpec, unique_points

__all__ = [
    "CELL_KEY_VERSION",
    "Cell",
    "spec_to_dict",
    "spec_from_dict",
    "cell_key",
    "affinity_token",
    "expand_cells",
]

#: Bump when record semantics change (new record fields, changed rounding,
#: changed cell evaluation) — journals and record caches never mix versions.
#: ``tests/test_service.py`` pins a digest of one cell's records to this
#: number, so such a change fails there until both move together.
#: v2: critical-path axis (critpath / critpath_max_repeat spec fields).
#: v3: collective-algorithm axis (points grew a ``collective`` field).
#: v4: gated shared fields enter the key only while their gate is on.
CELL_KEY_VERSION = 4


def _jsonable(value: Any) -> Any:
    return [_jsonable(v) for v in value] if isinstance(value, tuple) else value


def spec_to_dict(spec: SweepSpec) -> dict[str, Any]:
    """A JSON-safe dict that :func:`spec_from_dict` inverts exactly."""
    return {name: _jsonable(getattr(spec, name)) for name in AXES}


def spec_from_dict(data: dict[str, Any]) -> SweepSpec:
    """Rebuild a :class:`SweepSpec` from :func:`spec_to_dict` output.

    Missing fields take their declared defaults; ``SweepSpec`` validates
    the rest with the same strict converters the Python API and the CLI
    use.  Unknown keys raise so a stale client cannot silently submit
    fields the server ignores.
    """
    unknown = set(data) - set(AXES)
    if unknown:
        raise ValueError(f"unknown sweep spec fields {sorted(unknown)}")
    return SweepSpec(**data)


def cell_key(spec: SweepSpec, point: tuple) -> str:
    """Content key of one cell: a hex digest over (point, shared fields)."""
    shared = {
        name: _jsonable(getattr(spec, name))
        for name, axis in AXES.items()
        if not axis.point and (axis.gate is None or getattr(spec, axis.gate))
    }
    payload = {
        "v": CELL_KEY_VERSION,
        "point": dict(zip(POINT_NAMES, point)),
        "shared": shared,
    }
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()


def affinity_token(spec: SweepSpec, point: tuple) -> str:
    """The cache-affinity group of a cell.

    ``(app, ranks, seed)`` selects the trace — the heaviest artifact a
    worker deserializes — and through it every matrix the cell's payloads
    derive.  Cells of one token therefore share a worker so the trace is
    paged in once per pool, not once per worker.
    """
    app, ranks = point[0], point[1]
    return f"{app}:{ranks}:{spec.seed}"


@dataclass(frozen=True)
class Cell:
    """One schedulable unit: a grid point plus its identity keys."""

    index: int  # position in the spec's canonical deduplicated order
    point: tuple  # (app, ranks, payload, topology, mapping, routing, collective)
    key: str  # content key (journal / dedup identity)
    token: str  # cache-affinity group


def expand_cells(spec: SweepSpec) -> tuple[list[Cell], int]:
    """Expand a spec into deduplicated cells, plus the collapsed count.

    Shares :func:`repro.analysis.sweep.unique_points` with ``run_sweep``,
    so the service's record order (cells in index order, bandwidths inside)
    is bit-identical to the library path for the same spec.
    """
    points, collapsed = unique_points(spec)
    cells = [
        Cell(
            index=i,
            point=point,
            key=cell_key(spec, point),
            token=affinity_token(spec, point),
        )
        for i, point in enumerate(points)
    ]
    return cells, collapsed
