"""Table builders: Tables 1, 2, 3, and 4 of the paper.

Each builder returns structured rows (dataclasses) plus a ``render_*``
companion that prints the same columns the paper reports.  Builders accept a
``max_ranks`` cut so tests and quick runs can work on the small
configurations only; the benchmarks run the full set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.registry import iter_configurations
from ..cache import cached_matrix, cached_trace
from ..comm.matrix import CommMatrix
from ..comm.stats import TraceStats, trace_stats
from ..core.trace import Trace
from ..metrics.dimensionality import locality_by_dimension
from ..metrics.summary import MPILevelMetrics, mpi_level_metrics
from ..model.engine import NetworkAnalysis, analyze_network
from ..topology.configs import TABLE2, TOPOLOGY_KINDS, TopologyConfig, build_all
from ..util import fmt_float

__all__ = [
    "Table1Row",
    "build_table1",
    "render_table1",
    "build_table2",
    "render_table2",
    "Table3Row",
    "build_table3",
    "build_table3_row",
    "render_table3",
    "Table4Row",
    "build_table4",
    "render_table4",
    "TABLE4_WORKLOADS",
    "render_latency_table",
]


# ---------------------------------------------------------------- Table 1


@dataclass(frozen=True)
class Table1Row:
    """Application overview: volume, split, throughput."""

    stats: TraceStats

    @property
    def label(self) -> str:
        return self.stats.label


def build_table1(max_ranks: int | None = None, seed: int = 0) -> list[Table1Row]:
    """Per-configuration traffic statistics over the full workload set."""
    rows = []
    for app, point in iter_configurations(max_ranks=max_ranks):
        trace = cached_trace(app.name, point.ranks, variant=point.variant, seed=seed)
        rows.append(Table1Row(trace_stats(trace)))
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    header = (
        f"{'Application':<28} {'Ranks':>6} {'Time[s]':>10} {'Vol[MB]':>12} "
        f"{'P2P[%]':>7} {'Coll[%]':>7} {'Vol/t':>10}"
    )
    lines = [header, "-" * len(header)]
    lines += [row.stats.format_row() for row in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------- Table 2


def build_table2() -> list[TopologyConfig]:
    """The paper's topology configurations, ascending by size."""
    return [TABLE2[size] for size in sorted(TABLE2)]


def render_table2(configs: list[TopologyConfig] | None = None) -> str:
    if configs is None:
        configs = build_table2()
    header = (
        f"{'Size':>6} | {'Torus (x,y,z)':>14} {'Nodes':>6} | "
        f"{'FT (rad,st)':>12} {'Nodes':>6} | {'DF (a,h,p)':>11} {'Nodes':>6}"
    )
    lines = [header, "-" * len(header)]
    for cfg in configs:
        x, y, z = cfg.torus_dims
        a, h, p = cfg.dragonfly_ahp
        lines.append(
            f"{cfg.size:>6} | {f'({x},{y},{z})':>14} {cfg.torus_nodes:>6} | "
            f"{f'(48,{cfg.fat_tree_stages})':>12} {cfg.fat_tree_nodes:>6} | "
            f"{f'({a},{h},{p})':>11} {cfg.dragonfly_nodes:>6}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------- Table 3


@dataclass(frozen=True)
class Table3Row:
    """One workload line of Table 3: MPI metrics + all three topologies."""

    metrics: MPILevelMetrics
    network: dict[str, NetworkAnalysis]  # keyed by topology kind

    @property
    def label(self) -> str:
        return self.metrics.label


def build_table3_row(trace: Trace, p2p_matrix: CommMatrix | None = None) -> Table3Row:
    """Compute one Table-3 row from a trace."""
    if p2p_matrix is None:
        p2p_matrix = cached_matrix(trace, include_collectives=False)
    metrics = mpi_level_metrics(trace, p2p_matrix)
    full_matrix = cached_matrix(trace)
    network = {
        kind: analyze_network(
            full_matrix, topo, execution_time=trace.meta.execution_time
        )
        for kind, topo in build_all(trace.meta.num_ranks).items()
    }
    return Table3Row(metrics=metrics, network=network)


def build_table3(max_ranks: int | None = None, seed: int = 0) -> list[Table3Row]:
    """The full Table 3 over all configurations (optionally size-capped)."""
    rows = []
    for app, point in iter_configurations(max_ranks=max_ranks):
        trace = cached_trace(app.name, point.ranks, variant=point.variant, seed=seed)
        rows.append(build_table3_row(trace))
    return rows


def render_table3(rows: list[Table3Row]) -> str:
    header = (
        f"{'Workload':<28} {'Peers':>6} {'Dist90':>8} {'Sel90':>6} |"
        + "".join(
            f" {name:>9} {'hops':>5} {'util%':>8} |"
            for name in ("torus", "fattree", "dragonfly")
        )
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        m = row.metrics
        if m.has_p2p:
            left = (
                f"{m.label:<28} {m.peers:>6d} "
                f"{fmt_float(m.rank_distance_90, '.1f'):>8} "
                f"{fmt_float(m.selectivity_90, '.1f'):>6} |"
            )
        else:
            left = f"{m.label:<28} {'N/A':>6} {'N/A':>8} {'N/A':>6} |"
        cells = ""
        for kind in TOPOLOGY_KINDS:
            net = row.network[kind]
            cells += (
                f" {net.packet_hops:>9.2e} "
                f"{fmt_float(net.avg_hops, '.2f'):>5} "
                f"{fmt_float(net.utilization_percent, '.4f'):>8} |"
            )
        lines.append(left + cells)
    return "\n".join(lines)


# ---------------------------------------------------------------- Table 4


#: The (app, ranks) pairs the paper's Table 4 reports.
TABLE4_WORKLOADS: tuple[tuple[str, int], ...] = (
    ("AMG", 216),
    ("AMG", 1728),
    ("Boxlib_CNS", 64),
    ("Boxlib_CNS", 256),
    ("Boxlib_CNS", 1024),
    ("LULESH", 64),
    ("LULESH", 512),
    ("MultiGrid_C", 125),
    ("MultiGrid_C", 1000),
    ("PARTISN", 168),
)


@dataclass(frozen=True)
class Table4Row:
    """Rank locality of one workload under 1D/2D/3D re-linearization."""

    app: str
    ranks: int
    locality: dict[int, float]  # dim -> locality in [0, 1]

    @property
    def label(self) -> str:
        return f"{self.app}@{self.ranks}"


def build_table4(
    workloads: tuple[tuple[str, int], ...] = TABLE4_WORKLOADS,
    max_ranks: int | None = None,
    seed: int = 0,
) -> list[Table4Row]:
    rows = []
    for app, ranks in workloads:
        if max_ranks is not None and ranks > max_ranks:
            continue
        trace = cached_trace(app, ranks, seed=seed)
        matrix = cached_matrix(trace, include_collectives=False)
        rows.append(Table4Row(app, ranks, locality_by_dimension(matrix)))
    return rows


def render_table4(rows: list[Table4Row]) -> str:
    header = f"{'Workload':<24} {'Ranks':>6} {'1D':>6} {'2D':>6} {'3D':>6}"
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = " ".join(
            f"{100 * row.locality[d]:>5.0f}%" for d in (1, 2, 3)
        )
        lines.append(f"{row.app:<24} {row.ranks:>6} {cells}")
    return "\n".join(lines)


# --------------------------------------------------- Latency tolerance


def render_latency_table(rows) -> str:
    """The latency-tolerance ranking: most-tolerant mini-app first."""
    header = (
        f"{'Application':<24} {'Ranks':>6} {'T[s]':>10} {'dT/dL':>8} "
        f"{'FD':>10} {'Tol[us]':>9}"
    )
    lines = [header, "-" * len(header)]
    ordered = sorted(
        rows,
        key=lambda r: -r.tolerance_s if r.l_terms > 0 else float("inf"),
    )
    for r in ordered:
        tol_us = r.tolerance_s * 1e6
        lines.append(
            f"{r.app:<24} {r.ranks:>6} {r.makespan_s:>10.6f} "
            f"{r.l_terms:>8d} {fmt_float(r.fd_sensitivity, '.1f'):>10} "
            f"{fmt_float(tol_us, '.3f'):>9}"
        )
    return "\n".join(lines)
