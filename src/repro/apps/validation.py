"""Generator self-validation.

Every synthetic generator carries two kinds of promises: **calibration**
(its trace hits the Table-1 aggregates) and **structure** (its pattern has
the documented shape — stencil peer counts, sweep grids, collective mixes).
This module checks both for any configuration and reports violations, so a
change to a generator that silently breaks its contract is caught at the
library level, not just by downstream metric drift.

Used by the test suite and the ``repro-locality validate`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..comm.matrix import matrix_from_trace
from ..comm.stats import trace_stats
from ..metrics.peers import peers
from ..metrics.selectivity import selectivity
from .base import SyntheticApp
from .registry import iter_configurations

__all__ = ["ValidationIssue", "ValidationResult", "validate_app", "validate_all"]

#: Peak-peers expectations per (app, ranks), from the paper's Table 3; a
#: generator is flagged when outside [expected / factor, expected * factor].
_PEERS_EXPECTATIONS: dict[tuple[str, int], int] = {
    ("AMG", 8): 7,
    ("AMG", 27): 26,
    ("AMG", 216): 127,
    ("AMG", 1728): 293,
    ("AMR_Miniapp", 64): 39,
    ("AMR_Miniapp", 1728): 490,
    ("Boxlib_CNS", 64): 63,
    ("Boxlib_CNS", 256): 255,
    ("Boxlib_CNS", 1024): 1023,
    ("Boxlib_MultiGrid_C", 64): 26,
    ("Boxlib_MultiGrid_C", 256): 26,
    ("Boxlib_MultiGrid_C", 1024): 26,
    ("MOCFE", 64): 12,
    ("MOCFE", 256): 20,
    ("MOCFE", 1024): 20,
    ("Nekbone", 64): 27,
    ("Nekbone", 256): 15,
    ("Nekbone", 1024): 36,
    ("CrystalRouter", 10): 4,
    ("CrystalRouter", 100): 8,
    ("CrystalRouter", 1000): 11,
    ("LULESH", 64): 26,
    ("LULESH", 512): 26,
    ("FillBoundary", 125): 26,
    ("FillBoundary", 1000): 26,
    ("MiniFE", 18): 8,
    ("MiniFE", 144): 22,
    ("MiniFE", 1152): 22,
    ("MultiGrid_C", 125): 22,
    ("MultiGrid_C", 1000): 22,
    ("PARTISN", 168): 167,
    ("SNAP", 168): 48,
}

_PEERS_FACTOR = 2.5


@dataclass(frozen=True)
class ValidationIssue:
    """One violated contract."""

    label: str
    kind: str  # "calibration" | "structure"
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.label}: {self.message}"


@dataclass
class ValidationResult:
    """Validation outcome of one or more configurations."""

    checked: int = 0
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def merge(self, other: "ValidationResult") -> None:
        self.checked += other.checked
        self.issues.extend(other.issues)

    def summary(self) -> str:
        if self.ok:
            return f"{self.checked} configuration(s) validated, no issues"
        lines = [f"{self.checked} configuration(s) validated, "
                 f"{len(self.issues)} issue(s):"]
        lines += [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)


def validate_app(
    app: SyntheticApp,
    ranks: int,
    variant: str = "",
    seed: int = 0,
) -> ValidationResult:
    """Validate one configuration of one generator."""
    point = app.calibration_for(ranks, variant)
    trace = app.generate(ranks, variant=variant, seed=seed)
    label = trace.meta.label
    result = ValidationResult(checked=1)

    def issue(kind: str, message: str) -> None:
        result.issues.append(ValidationIssue(label, kind, message))

    # determinism, checked before any analysis below resolves opaque
    # datatype names into the registry (which ``==`` compares)
    if app.generate(ranks, variant=variant, seed=seed) != trace:
        issue("structure", "generator is not deterministic for a fixed seed")

    # -- calibration contracts ------------------------------------------------
    stats = trace_stats(trace)
    if not math.isclose(stats.total_mb, point.volume_mb, rel_tol=0.03):
        issue(
            "calibration",
            f"volume {stats.total_mb:.1f} MB vs target {point.volume_mb:.1f} MB",
        )
    if abs(stats.p2p_share - point.p2p_share) > 0.03:
        issue(
            "calibration",
            f"p2p share {stats.p2p_share:.3f} vs target {point.p2p_share:.3f}",
        )
    if stats.execution_time != point.time_s:
        issue("calibration", "execution time does not match the calibration point")

    # -- structural contracts ----------------------------------------------------
    if trace.active_ranks() and max(trace.active_ranks()) >= ranks:
        issue("structure", "events reference out-of-range ranks")
    if not trace.uses_only_global_communicators:
        issue("structure", "paper requires global communicators only (§4.3)")
    if app.uses_derived_types:
        dtypes = {
            block.dtype_names[i]
            for block in trace.blocks()
            for i in np.unique(block.dtype_id).tolist()
        }
        if dtypes != {app.dtype_name}:
            issue("structure", f"derived-type app uses datatypes {sorted(dtypes)}")

    matrix = matrix_from_trace(trace, include_collectives=False)
    expected_peers = _PEERS_EXPECTATIONS.get((app.name, ranks))
    if point.p2p_share == 0.0:
        if matrix.num_pairs:
            issue("structure", "all-collective app emits p2p traffic")
    else:
        got = peers(matrix)
        if got == 0:
            issue("structure", "p2p app has no point-to-point traffic")
        elif expected_peers is not None and not (
            expected_peers / _PEERS_FACTOR <= got <= expected_peers * _PEERS_FACTOR
        ):
            issue(
                "structure",
                f"peers {got} outside band of paper value {expected_peers}",
            )
        sel = selectivity(matrix)
        if not math.isnan(sel) and sel > ranks:
            issue("structure", f"selectivity {sel:.1f} exceeds rank count")

    return result


def validate_all(max_ranks: int | None = None, seed: int = 0) -> ValidationResult:
    """Validate every configuration (optionally capped by rank count)."""
    total = ValidationResult()
    for app, point in iter_configurations(max_ranks=max_ranks):
        total.merge(validate_app(app, point.ranks, point.variant, seed=seed))
    return total
