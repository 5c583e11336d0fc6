"""Full markdown report generation.

``build_report`` ties every analysis together into one self-contained
markdown document — the artifact a characterization study hands to system
architects: per-workload MPI-level metrics, topology comparison,
utilization/energy headroom, and the heat-map summaries the paper's metrics
replace.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.registry import iter_configurations
from ..cache import cached_matrix, cached_trace
from ..comm.stats import trace_stats
from ..metrics.heatmap import heatmap_summary
from ..metrics.summary import mpi_level_metrics
from ..model.energy import EnergyModel
from ..model.engine import analyze_network
from ..topology.configs import TOPOLOGY_KINDS, build_topology
from ..util import fmt_float

__all__ = [
    "WorkloadReport",
    "build_report",
    "render_report",
    "CollectiveDeltaRow",
    "build_collective_deltas",
    "render_collective_deltas",
]


@dataclass(frozen=True)
class WorkloadReport:
    """Everything the report says about one configuration."""

    label: str
    total_mb: float
    p2p_share: float
    peers: int
    rank_distance: float
    selectivity: float
    fill: float
    diagonal_share: float
    best_topology: str
    best_hops: float
    max_utilization: float
    useful_energy_fraction: float
    #: Algebraic dT/dL (L-terms on the critical path, zero-diameter
    #: network, clamped expansion); NaN when the trace cannot be matched.
    latency_sensitivity: float = float("nan")


def build_report(
    max_ranks: int | None = None, seed: int = 0
) -> list[WorkloadReport]:
    """Analyze every configuration and collect the report rows."""
    model = EnergyModel()
    rows: list[WorkloadReport] = []
    for app, point in iter_configurations(max_ranks=max_ranks):
        if point.variant:
            continue  # variants duplicate the pattern; keep the report terse
        trace = cached_trace(app.name, point.ranks, variant=point.variant, seed=seed)
        stats = trace_stats(trace)
        p2p = cached_matrix(trace, include_collectives=False)
        metrics = mpi_level_metrics(trace, p2p)
        heat = heatmap_summary(p2p)

        full = cached_matrix(trace)
        analyses = {
            kind: analyze_network(
                full, build_topology(kind, point.ranks), execution_time=point.time_s
            )
            for kind in TOPOLOGY_KINDS
        }
        best = min(analyses, key=lambda k: analyses[k].avg_hops)
        max_util = max(a.utilization for a in analyses.values())
        energy = model.report(analyses[best])
        sensitivity = _latency_sensitivity(trace)

        rows.append(
            WorkloadReport(
                label=stats.label,
                total_mb=stats.total_mb,
                p2p_share=stats.p2p_share,
                peers=metrics.peers,
                rank_distance=metrics.rank_distance_90,
                selectivity=metrics.selectivity_90,
                fill=heat.fill,
                diagonal_share=heat.diagonal_band_share,
                best_topology=best,
                best_hops=analyses[best].avg_hops,
                max_utilization=max_util,
                useful_energy_fraction=energy.useful_fraction,
                latency_sensitivity=sensitivity,
            )
        )
    return rows


#: Iteration clamp for the report's critical-path column — tighter than the
#: analysis default so the full-registry report stays interactive; dT/dL
#: ranking is stable once a few iterations of each phase are unrolled.
_REPORT_MAX_REPEAT = 16


def _latency_sensitivity(trace) -> float:
    """The report's dT/dL column: algebraic L-terms, zero-diameter network.

    Degrades to NaN (rendered ``N/A``) when matching or acyclicity fails,
    so one malformed trace cannot sink the whole report.
    """
    from ..critpath import CycleError, MatchError, analyze_trace

    try:
        analysis = analyze_trace(
            trace, max_repeat=_REPORT_MAX_REPEAT, fd_check=False
        )
    except (MatchError, CycleError):
        return float("nan")
    return float(analysis.l_terms)


@dataclass(frozen=True)
class CollectiveDeltaRow:
    """One (app, topology, routing, collective-engine) cell of the delta table."""

    app: str
    ranks: int
    topology: str
    routing: str
    collective: str
    collective_mb: float  # expanded collective traffic under this engine
    avg_hops: float
    utilization: float
    #: Average-hops change relative to the flat engine on the same
    #: (app, topology, routing) cell, in percent; 0.0 for flat itself.
    hops_delta_pct: float


def build_collective_deltas(
    max_ranks: int | None = None,
    seed: int = 0,
    topologies: tuple[str, ...] = TOPOLOGY_KINDS,
    routings: tuple[str, ...] = ("minimal", "valiant"),
    collectives: tuple[str, ...] | None = None,
) -> list[CollectiveDeltaRow]:
    """The (app x topology x routing x collective-algo) delta grid.

    One block per registry app at its smallest configuration, restricted to
    apps that carry collective traffic (the others are bit-identical across
    engines by construction).  Every engine's matrix is analyzed under
    every (topology, routing) pair; the flat engine — the paper's expansion
    — is the baseline each delta is measured against.
    """
    from ..collectives import collective_volume
    from ..collectives.registry import COLLECTIVES

    if collectives is None:
        collectives = tuple(COLLECTIVES)
    smallest: dict[str, int] = {}
    for app, point in iter_configurations(max_ranks=max_ranks):
        if point.variant:
            continue
        if app.name not in smallest or point.ranks < smallest[app.name]:
            smallest[app.name] = point.ranks
    rows: list[CollectiveDeltaRow] = []
    for name, ranks in smallest.items():
        trace = cached_trace(name, ranks, seed=seed)
        if collective_volume(trace) == 0:
            continue
        matrices = {
            algo: cached_matrix(trace, collective=algo) for algo in collectives
        }
        volumes = {
            algo: collective_volume(trace, collective=algo)
            for algo in collectives
        }
        for kind in topologies:
            topology = build_topology(kind, ranks)
            for routing in routings:
                base_hops: float | None = None
                for algo in collectives:
                    analysis = analyze_network(
                        matrices[algo],
                        topology,
                        execution_time=trace.meta.execution_time,
                        routing=routing,
                        routing_seed=seed,
                    )
                    if algo == "flat":
                        base_hops = analysis.avg_hops
                    delta = (
                        100.0 * (analysis.avg_hops / base_hops - 1.0)
                        if base_hops
                        else float("nan")
                    )
                    rows.append(
                        CollectiveDeltaRow(
                            app=name,
                            ranks=ranks,
                            topology=kind,
                            routing=routing,
                            collective=algo,
                            collective_mb=volumes[algo] / 1e6,
                            avg_hops=analysis.avg_hops,
                            utilization=analysis.utilization,
                            hops_delta_pct=delta,
                        )
                    )
    return rows


def render_collective_deltas(rows: list[CollectiveDeltaRow]) -> str:
    """Render the delta grid as a markdown section."""
    lines = [
        "## Collective-algorithm deltas",
        "",
        "Average packet hops per (app, topology, routing) cell under each",
        "collective-algorithm engine, relative to the paper's flat",
        "collective->p2p expansion (apps without collective traffic are",
        "identical across engines and omitted).",
        "",
        "| workload | topology | routing | engine | coll [MB] | hops | Δ hops vs flat | util % |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        delta = "—" if r.collective == "flat" else f"{r.hops_delta_pct:+.1f}%"
        lines.append(
            f"| {r.app}@{r.ranks} | {r.topology} | {r.routing} "
            f"| {r.collective} | {r.collective_mb:.1f} | {r.avg_hops:.3f} "
            f"| {delta} | {100 * r.utilization:.4f} |"
        )
    return "\n".join(lines)


def render_report(rows: list[WorkloadReport]) -> str:
    """Render the collected rows as a markdown document."""
    lines = [
        "# Network-locality characterization report",
        "",
        "Static analysis per the methodology of Zahn & Fröning (ICPP 2020):",
        "MPI-level locality metrics, best-fit topology by average packet",
        "hops (Table-2 configurations, consecutive mapping), and the",
        "utilization/energy headroom of the interconnect.",
        "",
        "| workload | vol [MB] | p2p % | peers | dist90 | sel90 | matrix fill | diag % | best topo | hops | max util % | useful energy % | dT/dL |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        peers = str(r.peers) if r.peers else "N/A"
        dist = fmt_float(r.rank_distance, ".1f") if r.peers else "N/A"
        sel = fmt_float(r.selectivity, ".1f") if r.peers else "N/A"
        lines.append(
            f"| {r.label} | {r.total_mb:.0f} | {100 * r.p2p_share:.1f} "
            f"| {peers} | {dist} | {sel} "
            f"| {100 * r.fill:.1f}% | {100 * r.diagonal_share:.0f}% "
            f"| {r.best_topology} | {r.best_hops:.2f} "
            f"| {100 * r.max_utilization:.4f} "
            f"| {100 * r.useful_energy_fraction:.4f} "
            f"| {fmt_float(r.latency_sensitivity, '.0f')} |"
        )
    lines += [
        "",
        "Reading guide: *dist90*/*sel90* are the paper's rank distance and",
        "selectivity at the 90% traffic share; *diag %* is the byte share",
        "within one rank of the diagonal (the heat-map impression the",
        "metrics formalize); *useful energy* is utilization-scaled static",
        "interconnect energy on the best topology; *dT/dL* is the",
        "critical-path latency sensitivity (messages on the longest",
        "happens-before path under the LogGP model).",
    ]
    return "\n".join(lines)
