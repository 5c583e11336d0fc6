"""Command-line interface: regenerate any of the paper's tables and figures.

Usage::

    python -m repro table1 [--max-ranks N]
    python -m repro table2
    python -m repro table3 [--max-ranks N]
    python -m repro table4 [--max-ranks N]
    python -m repro figure1 [--app LULESH --ranks 64 --rank 0]
    python -m repro figure3 [--max-ranks N]
    python -m repro figure4 [--app AMG]
    python -m repro figure5 [--min-ranks 512]
    python -m repro claims  [--max-ranks N]
    python -m repro report  [--max-ranks N] [--out PATH]
    python -m repro heatmap --app LULESH --ranks 64 [--bins 32]
    python -m repro slack   --app BigFFT --ranks 100 [--topology torus3d] [--routing ugal] [--collective-algo binomial]
    python -m repro simulate --app BigFFT --ranks 100 [--volume-scale K] [--routing valiant] [--collective-algo ring]
    python -m repro telemetry --app BigFFT --ranks 100 [--windows N] [--compare minimal,ugal]
    python -m repro compose --jobs LULESH:64,CMC_2D:64 [--noise HotspotNoise:64] [--allocation round_robin]
    python -m repro critpath --app LULESH --ranks 64 [--topology torus3d] [--routing ugal] [--collective-algo binomial]
    python -m repro critpath --table [--max-ranks N] [--topology torus3d]
    python -m repro sweep   --apps LULESH:64,AMG:216 [--routings minimal,valiant,ugal] [--collectives flat,binomial] [--critpath]
    python -m repro serve   --state DIR [--workers N] [--scheduler affinity|random]
    python -m repro submit  --state DIR --app LULESH --ranks 64 [--wait]
    python -m repro jobs    --state DIR [--stats | --cancel JOB | --shutdown]
    python -m repro attach  --state DIR JOB [--results]
    python -m repro trace   --app LULESH --ranks 64 [--out PATH]
    python -m repro convert --dir DUMPI_DIR --app NAME [--out PATH]
    python -m repro compare [--max-ranks N]
    python -m repro validate [--max-ranks N]
    python -m repro check   [--max-ranks N] [--strict] [--no-sim] [--composed] [--collectives flat,binomial]
    python -m repro fuzz    [--count N] [--offset K] [--no-shrink]
    python -m repro apps
    python -m repro bench TARGET [--out PATH]       # targets: repro bench --help
    python -m repro bench routing --pairs N

Global options (before the subcommand): ``--timings`` prints a per-stage
wall-time breakdown (trace generation / matrix build / routing / analysis /
simulation) to stderr after the command; ``--cache-dir PATH`` persists the
content-keyed trace/matrix/route caches to disk so repeated invocations
skip regeneration entirely.

The installed console script ``repro-locality`` is equivalent.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BENCHES
from .util import fmt_float

__all__ = ["main", "build_parser"]

#: User-input errors that should print one line and exit 2 — never a
#: traceback.  Every layer raises one of these for unknown names, missing
#: files, and invalid parameter combinations.
_USER_ERRORS = (ValueError, KeyError, FileNotFoundError, NotADirectoryError)


def _split(value: str) -> tuple[str, ...]:
    """The non-empty items of a comma-separated flag value."""
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    """The sweep-grid flags, one per flagged ``SweepSpec`` field."""
    from .analysis.sweep import AXES

    (app, ranks), = AXES["apps"].default
    p.add_argument("--app", default=app, help="one app (--apps overrides)")
    p.add_argument("--ranks", type=int, default=ranks, help="its rank count")
    for name, axis in AXES.items():
        if axis.flag is None:
            continue
        action = "store_true" if isinstance(axis.default, bool) else "store"
        p.add_argument(
            axis.flag, dest=name, action=action, default=None, help=axis.help
        )


def _spec_from_args(args):
    """The ``SweepSpec`` the flags of :func:`_add_spec_arguments` describe."""
    from .analysis.sweep import AXES, SweepSpec

    kwargs = {"apps": ((args.app, args.ranks),)}
    for name, axis in AXES.items():
        value = getattr(args, name, None)
        if axis.flag is None or value is None:
            continue
        if isinstance(value, str):
            try:
                if axis.many:
                    value = tuple(axis.parse(v) for v in _split(value))
                else:
                    value = axis.parse(value)
            except ValueError as exc:
                raise ValueError(f"{axis.flag}: {exc}") from None
        kwargs[name] = value
    return SweepSpec(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    from .collectives.registry import COLLECTIVES
    from .routing import ROUTINGS
    from .topology.configs import TOPOLOGY_KINDS

    parser = argparse.ArgumentParser(
        prog="repro-locality",
        description=(
            "Reproduction of 'On Network Locality in MPI-Based HPC "
            "Applications' (ICPP 2020)"
        ),
    )
    from . import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print a per-stage wall-time breakdown to stderr when done",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist trace/matrix/route caches under PATH "
        "(also honoured via REPRO_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_max_ranks(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-ranks",
            type=int,
            default=None,
            help="only configurations up to this many ranks (default: all)",
        )

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "csv", "json"),
            default="text",
            help="output format (default: paper-style text)",
        )

    t1 = sub.add_parser("table1", help="application overview (Table 1)")
    add_max_ranks(t1)
    add_format(t1)
    t2 = sub.add_parser("table2", help="topology configurations (Table 2)")
    add_format(t2)
    t3 = sub.add_parser("table3", help="full locality metrics (Table 3)")
    add_max_ranks(t3)
    add_format(t3)
    t4 = sub.add_parser("table4", help="dimensionality study (Table 4)")
    add_max_ranks(t4)
    add_format(t4)

    f1 = sub.add_parser("figure1", help="per-partner volumes of one rank (Figure 1)")
    f1.add_argument("--app", default="LULESH")
    f1.add_argument("--ranks", type=int, default=64)
    f1.add_argument("--rank", type=int, default=0)

    add_max_ranks(sub.add_parser("figure3", help="selectivity curves (Figure 3)"))

    f4 = sub.add_parser("figure4", help="selectivity scaling of one app (Figure 4)")
    f4.add_argument("--app", default="AMG")

    f5 = sub.add_parser("figure5", help="multi-core traffic scaling (Figure 5)")
    f5.add_argument("--min-ranks", type=int, default=512)
    f5.add_argument("--max-ranks", type=int, default=None)

    add_max_ranks(sub.add_parser("claims", help="headline-claim statistics"))

    rp = sub.add_parser("report", help="full markdown characterization report")
    rp.add_argument("--max-ranks", type=int, default=None)
    rp.add_argument("--out", default=None, help="output path (default: stdout)")
    rp.add_argument(
        "--no-collective-deltas", action="store_true",
        help="skip the (app x topology x routing x collective-algo) "
        "delta section",
    )

    hm = sub.add_parser("heatmap", help="ASCII communication heat map")
    hm.add_argument("--app", required=True)
    hm.add_argument("--ranks", type=int, required=True)
    hm.add_argument("--bins", type=int, default=32)

    def add_routing(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--routing", default="minimal", choices=ROUTINGS,
            help="routing policy carrying the traffic (default: minimal)",
        )
        p.add_argument(
            "--routing-seed", type=int, default=0,
            help="seed for randomized policies (ecmp/valiant/ugal)",
        )

    def add_collective(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--collective-algo", default="flat", choices=COLLECTIVES,
            help="collective-algorithm engine expanding collectives to "
            "point-to-point traffic (default: flat, the paper's expansion)",
        )

    sl = sub.add_parser("slack", help="per-link bandwidth slack (paper \u00a77)")
    sl.add_argument("--app", required=True)
    sl.add_argument("--ranks", type=int, required=True)
    sl.add_argument(
        "--topology", default="torus3d", choices=TOPOLOGY_KINDS,
    )
    add_routing(sl)
    add_collective(sl)

    sm = sub.add_parser(
        "simulate", help="dynamic packet-level simulation vs the static model"
    )
    sm.add_argument("--app", required=True)
    sm.add_argument("--ranks", type=int, required=True)
    sm.add_argument(
        "--topology", default="torus3d", choices=TOPOLOGY_KINDS,
    )
    sm.add_argument(
        "--volume-scale", type=float, default=1.0,
        help="simulate 1/k of the volume at 1/k bandwidth (for big traces)",
    )
    sm.add_argument(
        "--engine", default="auto", choices=("auto", "batched", "reference"),
        help="simulation kernel (all bit-identical; default picks by load)",
    )
    add_routing(sm)
    add_collective(sm)

    tm = sub.add_parser(
        "telemetry",
        help="windowed link telemetry and congestion-region analysis",
    )
    tm.add_argument("--app", required=True)
    tm.add_argument("--ranks", type=int, required=True)
    tm.add_argument(
        "--topology", default="torus3d", choices=TOPOLOGY_KINDS,
    )
    tm.add_argument(
        "--windows", type=int, default=48,
        help="number of time windows in the occupancy series (default: 48)",
    )
    tm.add_argument(
        "--threshold", type=float, default=0.7,
        help="hot-link occupancy fraction for region detection (default: 0.7)",
    )
    tm.add_argument(
        "--volume-scale", type=float, default=1.0,
        help="simulate 1/k of the volume at 1/k bandwidth (for big traces)",
    )
    tm.add_argument(
        "--engine", default="auto", choices=("auto", "batched", "reference"),
        help="simulation kernel (all bit-identical; default picks by load)",
    )
    tm.add_argument(
        "--compare", default=None, metavar="POLICIES",
        help="comma-separated routing policies to contrast on this traffic "
        "(e.g. minimal,ugal) instead of the single-policy timeline",
    )
    tm.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full report to PATH (.npz exact, .json summary)",
    )
    add_routing(tm)
    add_collective(tm)

    cm = sub.add_parser(
        "compose",
        help="co-schedule jobs on one machine and attribute interference",
    )
    cm.add_argument(
        "--jobs", required=True, metavar="APP:RANKS,...",
        help="tenant applications, e.g. LULESH:64,CMC_2D:64",
    )
    cm.add_argument(
        "--noise", default=None, metavar="APP:RANKS,...",
        help="background aggressors, e.g. HotspotNoise:64 or UniformNoise:32",
    )
    cm.add_argument(
        "--allocation", default="contiguous",
        choices=("contiguous", "round_robin", "random"),
        help="rank-allocation policy placing jobs on the machine",
    )
    cm.add_argument(
        "--alloc-seed", type=int, default=0,
        help="seed for the random allocation policy",
    )
    cm.add_argument(
        "--topology", default="torus3d", choices=TOPOLOGY_KINDS,
    )
    cm.add_argument(
        "--windows", type=int, default=48,
        help="telemetry windows for congestion-region detection (default: 48)",
    )
    cm.add_argument(
        "--threshold", type=float, default=0.7,
        help="hot-link occupancy fraction for region detection (default: 0.7)",
    )
    cm.add_argument(
        "--volume-scale", type=float, default=1.0,
        help="simulate 1/k of the volume at 1/k bandwidth (for big traces)",
    )
    cm.add_argument(
        "--engine", default="auto", choices=("auto", "batched", "reference"),
        help="simulation kernel (all bit-identical; default picks by load)",
    )
    cm.add_argument(
        "--seed", type=int, default=0,
        help="trace-generation seed shared by every tenant",
    )
    add_routing(cm)

    cp = sub.add_parser(
        "critpath",
        help="critical path and latency tolerance under the LogGP model",
    )
    cp.add_argument("--app", default="LULESH")
    cp.add_argument("--ranks", type=int, default=64)
    cp.add_argument(
        "--table", action="store_true",
        help="latency-tolerance table over every registry app "
        "(smallest configurations) instead of one workload",
    )
    add_max_ranks(cp)
    cp.add_argument(
        "--topology", default="torus3d", choices=(*TOPOLOGY_KINDS, "none"),
        help="'none' models a zero-diameter network (no per-hop term)",
    )
    cp.add_argument(
        "--mapping", default="consecutive", choices=("consecutive", "random"),
        help="rank placement feeding the per-hop cost term",
    )
    add_routing(cp)
    add_collective(cp)
    cp.add_argument(
        "--max-repeat", type=int, default=None,
        help="iteration-truncation clamp for repeat expansion "
        "(default: 64; 0 = exact expansion)",
    )
    cp.add_argument(
        "--no-fd", action="store_true",
        help="skip the finite-difference sensitivity cross-check",
    )
    for flag, letter in (
        ("latency-s", "L"),
        ("overhead-s", "o"),
        ("gap-s", "g"),
        ("gap-per-byte-s", "G"),
        ("hop-s", "per-hop latency"),
    ):
        cp.add_argument(
            f"--{flag}", type=float, default=None,
            help=f"LogGP {letter} override in seconds (default: dyadic)",
        )
    cp.add_argument("--seed", type=int, default=0)

    sw = sub.add_parser(
        "sweep", help="cross a custom parameter grid (incl. routing policies)"
    )
    _add_spec_arguments(sw)
    sw.add_argument(
        "--workers", type=int, default=1,
        help="evaluate grid points in this many processes",
    )
    add_format(sw)

    def add_service(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--state", required=True, metavar="DIR",
            help="service state directory (jobs, journals, shared cache)",
        )
        p.add_argument(
            "--socket", default=None, metavar="PATH",
            help="unix socket path (default: <state>/service.sock)",
        )

    sv = sub.add_parser(
        "serve", help="run the persistent sharded sweep job service"
    )
    add_service(sv)
    sv.add_argument(
        "--workers", type=int, default=2,
        help="persistent worker processes (default: 2)",
    )
    sv.add_argument(
        "--scheduler", choices=("affinity", "random"), default="affinity",
        help="cell placement: cache-affinity (default) or random hashing",
    )
    sv.add_argument(
        "--journal-batch", type=int, default=16,
        help="journal appends per fsync (1 = fsync every cell)",
    )

    sb = sub.add_parser(
        "submit", help="submit a sweep grid to a running service"
    )
    add_service(sb)
    _add_spec_arguments(sb)
    sb.add_argument(
        "--wait", action="store_true",
        help="stream progress until done, then print the records",
    )
    add_format(sb)

    jb = sub.add_parser(
        "jobs", help="list service jobs (or stats / cancel / shutdown)"
    )
    add_service(jb)
    jb.add_argument(
        "--stats", action="store_true",
        help="print pool-wide service stats as JSON instead",
    )
    jb.add_argument(
        "--cancel", default=None, metavar="JOB", help="cancel one job"
    )
    jb.add_argument(
        "--shutdown", action="store_true", help="stop the service"
    )

    at = sub.add_parser(
        "attach", help="stream a job's progress until it finishes"
    )
    add_service(at)
    at.add_argument("job", metavar="JOB")
    at.add_argument(
        "--results", action="store_true",
        help="print the job's records once it is done",
    )
    add_format(at)

    cv = sub.add_parser(
        "convert", help="convert real dumpi2ascii output to repro-dumpi"
    )
    cv.add_argument("--dir", required=True, help="directory of per-rank files")
    cv.add_argument("--app", required=True, help="application name for metadata")
    cv.add_argument("--out", default=None, help="output path (default: stdout)")

    tr = sub.add_parser("trace", help="generate and serialize one trace")
    tr.add_argument("--app", required=True)
    tr.add_argument("--ranks", type=int, required=True)
    tr.add_argument("--variant", default="")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", default=None, help="output path (default: stdout)")

    cp = sub.add_parser(
        "compare", help="cell-by-cell paper-vs-measured deviation summary"
    )
    cp.add_argument("--max-ranks", type=int, default=None)

    va = sub.add_parser("validate", help="self-validate the synthetic generators")
    va.add_argument("--max-ranks", type=int, default=None)

    ck = sub.add_parser(
        "check",
        help="run the cross-layer invariant suite over the study grid",
    )
    ck.add_argument("--max-ranks", type=int, default=None)
    ck.add_argument(
        "--apps", default=None,
        help="comma-separated application names to check (default: all)",
    )
    ck.add_argument(
        "--topologies", default=",".join(TOPOLOGY_KINDS),
        help="comma-separated topology kinds to check",
    )
    ck.add_argument(
        "--routings", default=None,
        help=f"comma-separated routing policies (default: all of "
        f"{', '.join(ROUTINGS)})",
    )
    ck.add_argument(
        "--collectives", default="flat",
        help="comma-separated collective-algorithm engines to cross the "
        f"grid with ({', '.join(COLLECTIVES)})",
    )
    ck.add_argument(
        "--no-sim", action="store_true",
        help="skip the dynamic-simulation and telemetry invariants",
    )
    ck.add_argument(
        "--composed", action="store_true",
        help="also check multi-tenant composed-workload scenarios",
    )
    ck.add_argument(
        "--target-packets", type=int, default=20_000,
        help="volume-scale each simulation down to about this many packets",
    )
    ck.add_argument(
        "--strict", action="store_true",
        help="treat invariant warnings as failures",
    )
    ck.add_argument(
        "--verbose", action="store_true",
        help="list every scenario, not just violations",
    )
    ck.add_argument("--seed", type=int, default=0)

    fz = sub.add_parser(
        "fuzz",
        help="differential fuzz: random configs through every engine pair",
    )
    fz.add_argument(
        "--count", type=int, default=8,
        help="number of seeded cases to run (default: 8, the CI smoke set)",
    )
    fz.add_argument(
        "--offset", type=int, default=0,
        help="first seed (cases run seeds offset..offset+count-1)",
    )
    fz.add_argument(
        "--max-ranks", type=int, default=64,
        help="largest workload configuration a case may draw",
    )
    fz.add_argument(
        "--target-packets", type=int, default=8_000,
        help="volume-scale each simulation down to about this many packets",
    )
    fz.add_argument(
        "--no-shrink", action="store_true",
        help="report raw failing cases without minimizing them",
    )

    sub.add_parser("apps", help="list applications and configurations")

    be = sub.add_parser(
        "bench",
        help="run one component benchmark and check its gates "
        "(exit 1 if an enforced gate fails)",
    )
    be.add_argument(
        "target",
        help="; ".join(f"{b.name}: {b.title}" for b in BENCHES.values()),
    )
    be.add_argument(
        "--pairs",
        type=int,
        default=None,
        help="(routing) node pairs routed per policy (default: 100000)",
    )
    be.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="where to write the JSON record (default: ./BENCH_<target>.json)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    # Imports deferred so --help stays fast.
    from . import analysis, timings
    from .apps.registry import APPS, generate_trace

    try:
        if args.cache_dir:
            from . import cache

            cache.configure(disk_dir=args.cache_dir)
        if args.timings:
            timings.enable()
            try:
                return _run_command(args, analysis, APPS, generate_trace)
            finally:
                print(timings.summary(), file=sys.stderr)
        return _run_command(args, analysis, APPS, generate_trace)
    except _USER_ERRORS as exc:
        # KeyError carries its message as the single arg; str(exc) would
        # wrap it in quotes.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def _run_command(args, analysis, APPS, generate_trace) -> int:

    def emit(records, text):
        if getattr(args, "format", "text") == "csv":
            sys.stdout.write(analysis.rows_to_csv(records))
        elif getattr(args, "format", "text") == "json":
            print(analysis.rows_to_json(records))
        else:
            print(text)

    if args.command == "table1":
        rows = analysis.build_table1(max_ranks=args.max_ranks)
        emit(analysis.table1_records(rows), analysis.render_table1(rows))
    elif args.command == "table2":
        configs = analysis.build_table2()
        emit(analysis.table2_records(configs), analysis.render_table2(configs))
    elif args.command == "table3":
        rows = analysis.build_table3(max_ranks=args.max_ranks)
        emit(analysis.table3_records(rows), analysis.render_table3(rows))
    elif args.command == "table4":
        rows = analysis.build_table4(max_ranks=args.max_ranks)
        emit(analysis.table4_records(rows), analysis.render_table4(rows))
    elif args.command == "figure1":
        series = analysis.build_figure1(args.app, args.ranks, args.rank)
        print(f"# {series.app}@{series.ranks}, rank {series.rank}")
        print(f"{'partner#':>8} {'bytes':>14} {'cum share':>10}")
        cum = series.cumulative_share
        for i, (v, c) in enumerate(zip(series.volumes, cum), start=1):
            print(f"{i:>8} {v:>14d} {c:>10.3f}")
    elif args.command == "figure3":
        print(analysis.render_curves(analysis.build_figure3(max_ranks=args.max_ranks)))
    elif args.command == "figure4":
        print(analysis.render_curves(analysis.build_figure4(args.app)))
    elif args.command == "figure5":
        series = analysis.build_figure5(
            min_ranks=args.min_ranks, max_ranks=args.max_ranks
        )
        for s in series:
            points = "  ".join(
                f"{p.cores_per_node}c:{p.relative_traffic:.2f}" for p in s.points
            )
            print(f"{s.label:<28} {points}")
    elif args.command == "claims":
        report = analysis.build_claim_report(max_ranks=args.max_ranks)
        print(analysis.render_claims(report))
    elif args.command == "report":
        rows = analysis.build_report(max_ranks=args.max_ranks)
        text = analysis.render_report(rows)
        if not args.no_collective_deltas:
            deltas = analysis.build_collective_deltas(max_ranks=args.max_ranks)
            if deltas:
                text += "\n\n" + analysis.render_collective_deltas(deltas)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text + "\n", encoding="utf-8")
            print(f"wrote report ({len(rows)} workloads) to {args.out}")
        else:
            print(text)
    elif args.command == "heatmap":
        from .comm.matrix import matrix_from_trace
        from .metrics.heatmap import heatmap_summary, render_ascii

        trace = generate_trace(args.app, args.ranks)
        matrix = matrix_from_trace(trace, include_collectives=False)
        print(render_ascii(matrix, bins=args.bins))
        summary = heatmap_summary(matrix)
        print(
            f"\nfill {100 * summary.fill:.1f}%  "
            f"diagonal(+-1) {100 * summary.diagonal_band_share:.0f}%  "
            f"pairs for 90%: {summary.top_pairs_for_90pct}  "
            f"gini {summary.gini:.2f}"
        )
    elif args.command == "slack":
        from .comm.matrix import matrix_from_trace
        from .model.slack import bandwidth_slack
        from .topology.configs import build_topology

        trace = generate_trace(args.app, args.ranks)
        matrix = matrix_from_trace(trace, collective=args.collective_algo)
        topo = build_topology(args.topology, args.ranks)
        report = bandwidth_slack(
            matrix,
            topo,
            execution_time=trace.meta.execution_time,
            routing=args.routing,
            routing_seed=args.routing_seed,
        )
        print(
            f"{trace.meta.label} on {topo!r} "
            f"({args.routing} routing): {report.num_links} used links"
        )
        print(f"min slack (busiest link):   {report.min_slack:.1f}x")
        print(f"median slack:               {report.median_slack:.1f}x")
        print(
            f"uniform slow-down saving:   "
            f"{100 * report.uniform_power_saving():.1f}% (power ~ bw^2)"
        )
        print(
            f"per-link provisioning:      "
            f"{100 * report.per_link_power_saving():.1f}%"
        )
        gl = report.global_vs_local_slack()
        if gl:
            print(f"median slack global/local:  {gl[0]:.1f}x / {gl[1]:.1f}x")
    elif args.command == "simulate":
        from .comm.matrix import matrix_from_trace
        from .model.engine import analyze_network
        from .sim.engine import simulate_network
        from .topology.configs import build_topology

        trace = generate_trace(args.app, args.ranks)
        matrix = matrix_from_trace(trace, collective=args.collective_algo)
        topo = build_topology(args.topology, args.ranks)
        t = trace.meta.execution_time
        static = analyze_network(
            matrix,
            topo,
            execution_time=t,
            routing=args.routing,
            routing_seed=args.routing_seed,
        )
        dyn = simulate_network(
            matrix,
            topo,
            execution_time=t,
            volume_scale=args.volume_scale,
            engine=args.engine,
            routing=args.routing,
            routing_seed=args.routing_seed,
        )
        print(f"{trace.meta.label} on {topo!r} ({args.routing} routing)")
        print(f"static utilization (Eq. 5):  {static.utilization_percent:.4f}%")
        print(f"dynamic busy fraction:       {100 * dyn.dynamic_utilization:.4f}%")
        print(f"packets simulated:           {dyn.packets_simulated}")
        print(f"congested packets:           {100 * dyn.congested_packet_share:.2f}%")
        print(f"mean queueing delay:         {dyn.mean_queue_delay:.3e} s")
        print(
            "makespan inflation:          "
            f"{fmt_float(dyn.makespan_inflation, '.3f')}x"
        )
    elif args.command == "telemetry":
        from .comm.matrix import matrix_from_trace
        from .sim.engine import simulate_network
        from .telemetry import (
            TelemetryConfig,
            congestion_by_routing,
            congestion_summary,
            render_congestion_timeline,
            render_summary,
            report_to_json_dict,
            save_report_npz,
        )
        from .topology.configs import build_topology

        trace = generate_trace(args.app, args.ranks)
        matrix = matrix_from_trace(trace, collective=args.collective_algo)
        topo = build_topology(args.topology, args.ranks)
        if args.compare:
            policies = _split(args.compare)
            records = congestion_by_routing(
                matrix,
                topo,
                routings=policies,
                execution_time=trace.meta.execution_time,
                threshold=args.threshold,
                windows=args.windows,
                volume_scale=args.volume_scale,
                routing_seed=args.routing_seed,
                engine=args.engine,
            )
            print(
                f"# {trace.meta.label} on {topo!r}: congestion by routing "
                f"(threshold {args.threshold})"
            )
            print(
                f"{'routing':<10} {'inflation':>9} {'peak occ':>9} "
                f"{'regions':>8} {'peak links':>11} {'longest(s)':>11}"
            )
            for r in records:
                print(
                    f"{r['routing']:<10} "
                    f"{fmt_float(r['makespan_inflation'], '.3f'):>9} "
                    f"{r['peak_window_occupancy']:>9.3f} {r['num_regions']:>8} "
                    f"{r['peak_region_links']:>11} {r['longest_region_s']:>11.2e}"
                )
            return 0
        result = simulate_network(
            matrix,
            topo,
            execution_time=trace.meta.execution_time,
            volume_scale=args.volume_scale,
            engine=args.engine,
            routing=args.routing,
            routing_seed=args.routing_seed,
            telemetry=TelemetryConfig(windows=args.windows),
        )
        report = result.telemetry
        if report is None:
            print("nothing to report: simulation carried no crossing traffic")
            return 0
        print(
            f"{trace.meta.label} on {topo!r} ({args.routing} routing), "
            f"{result.packets_simulated} packets"
        )
        print(render_congestion_timeline(report, topo, threshold=args.threshold))
        print()
        print(render_summary(congestion_summary(report, topo, args.threshold)))
        if args.out:
            from pathlib import Path

            out = Path(args.out)
            if out.suffix == ".json":
                import json as _json

                out.write_text(
                    _json.dumps(report_to_json_dict(report), indent=2) + "\n"
                )
            else:
                save_report_npz(report, out)
            print(f"\nwrote report to {out}")
    elif args.command == "compose":
        from .telemetry import TelemetryConfig
        from .tenancy import (
            TenantSpec,
            compose_workload,
            interference_report,
            render_interference_report,
        )
        from .topology.configs import build_topology

        def parse_specs(value: str) -> list:
            specs = []
            for item in (s.strip() for s in value.split(",")):
                if not item:
                    continue
                name, sep, ranks = item.rpartition(":")
                if not sep or not ranks.isdigit():
                    raise ValueError(
                        f"bad job spec {item!r}: expected APP:RANKS"
                    )
                specs.append(TenantSpec(name, int(ranks), seed=args.seed))
            return specs

        jobs = parse_specs(args.jobs)
        noise = parse_specs(args.noise) if args.noise else []
        workload = compose_workload(
            jobs,
            noise=noise,
            allocation=args.allocation,
            alloc_seed=args.alloc_seed,
        )
        topo = build_topology(args.topology, workload.num_ranks)
        print(
            f"composed {workload.trace.meta.label} "
            f"({workload.num_jobs} jobs, {args.allocation} allocation) "
            f"on {topo!r} ({args.routing} routing)"
        )
        for job in workload.jobs:
            tag = "noise" if job.is_noise else "app"
            lo, hi = int(job.ranks.min()), int(job.ranks.max())
            print(
                f"  job {job.job_id} [{tag:<5}] {job.label:<24} "
                f"{job.num_ranks} ranks in [{lo}, {hi}]"
            )
        report = interference_report(
            workload,
            topo,
            volume_scale=args.volume_scale,
            engine=args.engine,
            routing=args.routing,
            routing_seed=args.routing_seed,
            telemetry=TelemetryConfig(windows=args.windows),
            threshold=args.threshold,
        )
        print()
        print(render_interference_report(report))
    elif args.command == "critpath":
        from .critpath import DEFAULT_PARAMS, analyze_trace, latency_table

        params = DEFAULT_PARAMS
        overrides = {
            "latency_s": args.latency_s,
            "overhead_s": args.overhead_s,
            "gap_s": args.gap_s,
            "gap_per_byte_s": args.gap_per_byte_s,
            "hop_s": args.hop_s,
        }
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if overrides:
            from dataclasses import replace

            params = replace(params, **overrides)
        max_repeat = args.max_repeat
        if max_repeat == 0:
            max_repeat = None  # exact expansion
        elif max_repeat is None:
            from .critpath import DEFAULT_MAX_REPEAT

            max_repeat = DEFAULT_MAX_REPEAT
        if args.table:
            rows = analysis.build_latency_rows(
                topology=args.topology if args.topology != "none" else "torus3d",
                routing=args.routing,
                max_ranks=args.max_ranks,
                max_repeat=max_repeat,
                fd_check=not args.no_fd,
                collective=args.collective_algo,
            )
            print(analysis.render_latency_table(rows))
        else:
            from .cache import cached_trace
            from .topology.configs import build_topology

            trace = cached_trace(args.app, args.ranks, seed=args.seed)
            topo = None
            mapping = None
            if args.topology != "none":
                topo = build_topology(args.topology, args.ranks)
                from .mapping.base import Mapping

                if args.mapping == "random":
                    mapping = Mapping.random(
                        args.ranks, topo.num_nodes, seed=args.seed
                    )
                else:
                    mapping = Mapping.consecutive(args.ranks, topo.num_nodes)
            result = analyze_trace(
                trace,
                topology=topo,
                mapping=mapping,
                routing=args.routing,
                routing_seed=args.routing_seed,
                params=params,
                max_repeat=max_repeat,
                fd_check=not args.no_fd,
                collective=args.collective_algo,
            )
            print(
                f"{result.app}@{result.ranks} on {args.topology} "
                f"({args.routing} routing, {args.mapping} mapping, "
                f"{result.collective} collectives)"
            )
            print(f"DAG:                  {result.nodes} nodes, "
                  f"{result.edges} edges ({result.msg_edges} messages)")
            print(f"critical path:        {result.makespan_s:.6f} s")
            print(f"latency sensitivity:  dT/dL = {result.l_terms}")
            if not args.no_fd:
                print(
                    f"finite difference:    "
                    f"{fmt_float(result.fd_sensitivity, '.1f')} "
                    f"(rel err {fmt_float(result.fd_rel_err, '.2e')})"
                )
            print(
                "latency tolerance:    "
                f"{fmt_float(result.tolerance_s * 1e6, '.3f')} us "
                "(+1% critical path)"
            )
    elif args.command == "sweep":
        from .analysis.sweep import run_sweep

        spec = _spec_from_args(args)

        def cells_done(done: int, total: int) -> None:
            print(f"  {done}/{total} cells done", file=sys.stderr)

        try:
            records = run_sweep(
                spec, workers=args.workers, progress=cells_done
            )
        except _USER_ERRORS:
            raise
        except Exception as exc:
            # A worker process died or raised mid-grid-point; surface one
            # line instead of the executor's traceback chain.
            print(
                f"error: sweep failed in a worker: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return 1
        _print_job_records(args, analysis, records)
    elif args.command == "serve":
        from pathlib import Path

        from .service.server import run_server

        socket_path = args.socket or str(Path(args.state) / "service.sock")
        return run_server(
            args.state,
            socket_path,
            workers=args.workers,
            scheduler=args.scheduler,
            journal_batch=args.journal_batch,
            cache_dir=args.cache_dir,
        )
    elif args.command in ("submit", "jobs", "attach"):
        return _run_service_client(args, analysis)
    elif args.command == "convert":
        from .dumpi.ascii_dumpi import load_dumpi2ascii_dir
        from .dumpi.writer import dump_trace, dumps_trace

        trace = load_dumpi2ascii_dir(args.dir, app=args.app)
        if args.out:
            path = dump_trace(trace, args.out)
            print(f"converted {trace.meta.label} ({len(trace)} records) to {path}")
        else:
            sys.stdout.write(dumps_trace(trace))
    elif args.command == "trace":
        from .dumpi.writer import dump_trace, dumps_trace

        trace = generate_trace(
            args.app, args.ranks, variant=args.variant, seed=args.seed
        )
        if args.out:
            path = dump_trace(trace, args.out)
            print(f"wrote {trace.meta.label} ({len(trace)} records) to {path}")
        else:
            sys.stdout.write(dumps_trace(trace))
    elif args.command == "compare":
        from .paper.compare import compare_table3, deviation_summary

        rows = analysis.build_table3(max_ranks=args.max_ranks)
        cells = compare_table3(rows)
        summary = deviation_summary(cells)
        print("Paper-vs-measured deviation (Table 3 cells)")
        print("-" * 48)
        for line in summary.lines():
            print(line)
        print("\nlargest per-column deviations:")
        worst_by_column: dict[str, object] = {}
        for cell in cells:
            r = cell.ratio
            if r is None:
                continue
            import math as _math

            prev = worst_by_column.get(cell.column)
            if prev is None or abs(_math.log(r)) > abs(_math.log(prev[1])):  # type: ignore[index]
                worst_by_column[cell.column] = (cell.label, r)
        for column, (label, ratio) in sorted(worst_by_column.items()):
            print(f"  {column:<24} {label:<28} {ratio:6.2f}x")
    elif args.command == "validate":
        from .apps.validation import validate_all

        result = validate_all(max_ranks=args.max_ranks)
        print(result.summary())
        return 0 if result.ok else 1
    elif args.command == "check":
        from .validation import run_check_suite

        report = run_check_suite(
            max_ranks=args.max_ranks,
            apps=_split(args.apps) if args.apps else None,
            topologies=_split(args.topologies),
            routings=_split(args.routings) if args.routings else None,
            collectives=_split(args.collectives),
            sim=not args.no_sim,
            target_packets=args.target_packets,
            seed=args.seed,
            composed=args.composed,
        )
        print(report.render(verbose=args.verbose))
        return 0 if report.ok(strict=args.strict) else 1
    elif args.command == "fuzz":
        from .validation import run_fuzz

        report = run_fuzz(
            seeds=range(args.offset, args.offset + args.count),
            max_ranks=args.max_ranks,
            target_packets=args.target_packets,
            shrink_failures=not args.no_shrink,
            progress=lambda label: print(f"  {label}", file=sys.stderr),
        )
        print(report.render())
        return 0 if report.ok else 1
    elif args.command == "apps":
        for name, app in APPS.items():
            configs = ", ".join(
                f"{c.ranks}{'/' + c.variant if c.variant else ''}"
                for c in app.configurations()
            )
            star = " (*)" if app.uses_derived_types else ""
            print(f"{name:<22}{star:<5} ranks: {configs}")
    elif args.command == "bench":
        from .bench import render_bench, write_bench

        bench = BENCHES.get(args.target)
        if bench is None:
            raise ValueError(
                f"unknown bench target {args.target!r}; available: "
                + ", ".join(sorted(BENCHES))
            )
        kwargs = {}
        if args.pairs is not None:
            if bench.name != "routing":
                raise ValueError("--pairs applies to the routing bench only")
            kwargs["pairs"] = args.pairs
        record = bench.measure(**kwargs)
        print(render_bench(bench, record))
        path = write_bench(args.out or f"BENCH_{bench.name}.json", record)
        print(f"wrote {path}")
        if any(row["enforced"] and not row["ok"] for row in record["gates"]):
            return 1
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command}")
    return 0


def _print_job_records(args, analysis, records) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "csv":
        sys.stdout.write(analysis.rows_to_csv(records))
    elif fmt == "json":
        print(analysis.rows_to_json(records))
    else:
        print(
            f"{'app':<12} {'ranks':>6} {'topology':<10} {'mapping':<12} "
            f"{'routing':<8} {'collective':<10} {'payload':>7} "
            f"{'avg hops':>9} {'util %':>10} {'links':>7}"
        )
        for r in records:
            print(
                f"{r['app']:<12} {r['ranks']:>6} {r['topology']:<10} "
                f"{r['mapping']:<12} {r['routing']:<8} "
                f"{r.get('collective', 'flat'):<10} {r['payload']:>7} "
                f"{r['avg_hops']:>9.3f} {r['utilization_percent']:>10.5f} "
                f"{r['used_links']:>7}"
            )


def _stream_job(args, analysis, client, job: str, want_results: bool) -> int:
    """Follow one job's event stream; optionally print its records."""
    for event in client.attach(job):
        kind = event.get("event")
        if kind == "cell":
            replay = " (replayed)" if event.get("replayed") else ""
            print(
                f"  {event['done']}/{event['total']} cells done{replay}",
                file=sys.stderr,
            )
        elif kind == "end":
            status = event.get("status")
            if status != "done":
                error = event.get("error")
                suffix = f": {error}" if error else ""
                print(f"error: job {job} {status}{suffix}", file=sys.stderr)
                return 1
    if want_results:
        _print_job_records(args, analysis, client.results(job))
    else:
        print(f"{job}: done")
    return 0


def _run_service_client(args, analysis) -> int:
    """The ``submit`` / ``jobs`` / ``attach`` client commands."""
    from pathlib import Path

    from .service.client import ServiceError, SweepClient

    socket_path = args.socket or str(Path(args.state) / "service.sock")
    client = SweepClient(socket_path)

    try:
        if args.command == "submit":
            from .service.cells import spec_to_dict

            spec = _spec_from_args(args)
            resp = client.submit(spec_to_dict(spec))
            print(
                f"{resp['job']}: {resp['cells']} cells "
                f"({resp['collapsed']} collapsed)",
                file=sys.stderr if args.wait else sys.stdout,
            )
            if args.wait:
                return _stream_job(
                    args, analysis, client, resp["job"], want_results=True
                )
        elif args.command == "attach":
            return _stream_job(
                args, analysis, client, args.job, want_results=args.results
            )
        elif args.shutdown:
            client.shutdown()
            print("service stopping")
        elif args.cancel:
            summary = client.cancel(args.cancel)
            print(f"{summary['job']}: {summary['status']}")
        elif args.stats:
            import json as _json

            stats = client.stats()
            stats.pop("ok", None)
            print(_json.dumps(stats, indent=2, sort_keys=True))
        else:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
            for j in jobs:
                counts = j.get("counts", {})
                dedup = counts.get("dedup_warm", 0) + counts.get(
                    "dedup_inflight", 0
                )
                print(
                    f"{j['job']:<10} {j['status']:<10} "
                    f"{j['cells_done']:>5}/{j['cells_total']:<5} "
                    f"restored {counts.get('restored', 0):<4} "
                    f"dedup {dedup}"
                )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped through `head`) — not a failure.
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the dead pipe doesn't print a spurious traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(
            f"error: cannot reach sweep service at {socket_path}: {exc}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
