"""Command-line interface: regenerate any of the paper's tables and figures.

``python -m repro --help`` lists the commands and ``python -m repro
COMMAND --help`` the flags of one; for example::

    python -m repro table3 [--max-ranks N] [--format csv]
    python -m repro figure1 [--app LULESH --ranks 64 --rank 0]
    python -m repro simulate --app BigFFT --ranks 100 [--volume-scale K]
    python -m repro critpath --table [--max-ranks N] [--max-repeat 0]
    python -m repro sweep --apps LULESH:64,AMG:216 [--routings minimal,ugal]
    python -m repro serve --state DIR    # then: submit / jobs / attach --state DIR
    python -m repro bench TARGET [--out PATH]

Global options (before the subcommand): ``--timings`` prints the start-up
cost (seconds from ``import repro`` to dispatch, ``repro`` modules loaded)
and a per-stage wall-time breakdown (trace generation / matrix build /
routing / analysis / simulation) to stderr after the command;
``--cache-dir PATH`` persists the content-keyed trace/matrix/route caches
to disk so repeated invocations skip regeneration entirely.

Every subcommand is one :class:`Command` in :data:`COMMANDS`: its flags
(built from the shared argument groups below) and its handler.  The
parser and the dispatch derive from that table, and :func:`main` alone
maps failures to exit statuses.

The installed console script ``repro-locality`` is equivalent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from . import _IMPORT_STARTED, __version__, analysis, timings
from .analysis.sweep import AXES, AxisError, SweepSpec
from .apps.registry import APPS, generate_trace
from .collectives.registry import COLLECTIVES
from .routing import ROUTINGS
from .topology.configs import TOPOLOGY_KINDS, build_topology
from .util import fmt_float

if TYPE_CHECKING:
    from .service.client import SweepClient

__all__ = ["COMMANDS", "Command", "CommandFailed", "build_parser", "main"]

#: User-input errors that should print one line and exit 2 — never a
#: traceback.  Every layer raises one of these for unknown names, missing
#: files, and invalid parameter combinations.
_USER_ERRORS = (ValueError, KeyError, FileNotFoundError, NotADirectoryError)


class CommandFailed(Exception):
    """A command ran and failed (a sweep worker, a service job): exit 1."""


# ------------------------------------------------------------ arguments
# One argument is ``(flags, add_argument keywords)``; a group is a tuple
# of them.  Shared flags are declared once here and spliced into commands.

Arg = tuple[tuple[str, ...], dict[str, Any]]


def _arg(*flags: str, **kwargs: Any) -> Arg:
    return flags, kwargs


def _with(arg: Arg, **overrides: Any) -> Arg:
    """``arg`` with some of its keywords replaced."""
    flags, kwargs = arg
    return flags, {**kwargs, **overrides}


def _checked(parse: Callable[[str], Any], check: Callable[[Any], Any]):
    """A parse-time converter: ``parse`` the text, then ``check`` the value.

    ``check`` raises ``ValueError`` for a value out of range; argparse then
    prints usage and exits 2 before the command does any work.
    """

    def convert(text: str) -> Any:
        value = parse(text)
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = parse.__name__  # argparse's "invalid int value"
    return convert


def _at_least(minimum: int) -> Callable[[int], int]:
    def check(value: int) -> int:
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value

    return check


def _axis_flag(flag: str, name: str, help: str) -> Arg:
    """A flag defaulted and range-checked like the sweep axis ``name``."""
    axis = AXES[name]
    parse = type(axis.default)
    return _arg(
        flag, type=_checked(parse, axis.convert), default=axis.default, help=help
    )


MAX_RANKS = _arg(
    "--max-ranks", type=int, default=None,
    help="only configurations up to this many ranks (default: all)",
)
FORMAT = _arg(
    "--format", choices=("text", "csv", "json"), default="text",
    help="output format (default: paper-style text)",
)
OUT = _arg(
    "--out", default=None, metavar="PATH",
    help="output path (default: stdout)",
)
SEED = _arg("--seed", type=int, default=0, help="trace-generation seed")
TARGET_PACKETS = _arg(
    "--target-packets", type=int, default=8_000,
    help="volume-scale each simulation down to about this many packets",
)
APP_RANKS = (
    _arg("--app", required=True),
    _arg("--ranks", type=int, required=True),
)
LULESH_64 = (
    _arg("--app", default="LULESH"),
    _arg("--ranks", type=int, default=64),
)
#: ``critpath``'s workload: unset (``None``) means LULESH@64 on the
#: single-workload path, so ``--table`` can reject a given one.
CRITPATH_WORKLOAD = (
    _with(LULESH_64[0], default=None, help="application (default: LULESH)"),
    _with(LULESH_64[1], default=None, help="rank count (default: 64)"),
)
TOPOLOGY = _arg("--topology", default="torus3d", choices=TOPOLOGY_KINDS)
ROUTING = (
    _arg(
        "--routing", default="minimal", choices=ROUTINGS,
        help="routing policy carrying the traffic (default: minimal)",
    ),
    _arg(
        "--routing-seed", type=int, default=0,
        help="seed for randomized policies (ecmp/valiant/ugal)",
    ),
)
COLLECTIVE = _arg(
    "--collective-algo", default="flat", choices=COLLECTIVES,
    help="collective-algorithm engine expanding collectives to "
    "point-to-point traffic (default: flat, the paper's expansion)",
)
SIMULATION = (
    _axis_flag(
        "--volume-scale", "sim_volume_scale",
        "simulate 1/k of the volume at 1/k bandwidth (for big traces)",
    ),
    _arg(
        "--engine", default="auto", choices=("auto", "batched", "reference"),
        help="simulation kernel (all bit-identical; default picks by load)",
    ),
)
REGIONS = (
    _axis_flag(
        "--windows", "telemetry_windows",
        "number of telemetry time windows (default: 48)",
    ),
    _axis_flag(
        "--threshold", "telemetry_threshold",
        "hot-link occupancy fraction for region detection, in (0, 1] "
        "(default: 0.7)",
    ),
)
SERVICE = (
    _arg(
        "--state", required=True, metavar="DIR",
        help="service state directory (jobs, journals, shared cache)",
    ),
    _arg(
        "--socket", default=None, metavar="PATH",
        help="unix socket path (default: <state>/service.sock)",
    ),
)


def _spec_arguments() -> tuple[Arg, ...]:
    """The sweep-grid flags, one per flagged ``SweepSpec`` field."""
    (app, ranks), = AXES["apps"].default
    return (
        _arg("--app", default=app, help="one app (--apps overrides)"),
        _arg("--ranks", type=int, default=ranks, help="its rank count"),
        *(
            _arg(
                axis.flag, dest=name, default=None, help=axis.help,
                action="store_true" if isinstance(axis.default, bool) else "store",
            )
            for name, axis in AXES.items()
            if axis.flag is not None
        ),
    )


SPEC = _spec_arguments()


def _split(value: str) -> tuple[str, ...]:
    """The non-empty items of a comma-separated flag value."""
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _parsed(flag: str, parse: Callable[[str], Any], text: str) -> Any:
    """``parse(text)``, naming ``flag`` in the error if the text is bad."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _spec_from_args(args):
    """The ``SweepSpec`` the :data:`SPEC` flags describe."""
    kwargs = {"apps": ((args.app, args.ranks),)}
    for name, axis in AXES.items():
        value = getattr(args, name, None)
        if axis.flag is None or value is None:
            continue
        if isinstance(value, str):
            if axis.many:
                value = tuple(_parsed(axis.flag, axis.parse, v) for v in _split(value))
            else:
                value = _parsed(axis.flag, axis.parse, value)
        kwargs[name] = value
    try:
        return SweepSpec(**kwargs)
    except AxisError as exc:
        raise ValueError(f"{AXES[exc.field].flag}: {exc.reason}") from None


# ------------------------------------------------------------ output


def _emit(args, records: list[dict], text: Callable[[], str]) -> None:
    """Print ``records`` in the command's ``--format``; ``text()`` is the text form."""
    if args.format == "csv":
        sys.stdout.write(analysis.rows_to_csv(records))
    elif args.format == "json":
        print(analysis.rows_to_json(records))
    else:
        print(text())


def _job_table(records: list[dict]) -> str:
    """Sweep records as one fixed-width line per cell."""
    lines = [
        f"{'app':<12} {'ranks':>6} {'topology':<10} {'mapping':<12} "
        f"{'routing':<8} {'collective':<10} {'payload':>7} "
        f"{'avg hops':>9} {'util %':>10} {'links':>7}"
    ]
    for r in records:
        lines.append(
            f"{r['app']:<12} {r['ranks']:>6} {r['topology']:<10} "
            f"{r['mapping']:<12} {r['routing']:<8} "
            f"{r.get('collective', 'flat'):<10} {r['payload']:>7} "
            f"{r['avg_hops']:>9.3f} {r['utilization_percent']:>10.5f} "
            f"{r['used_links']:>7}"
        )
    return "\n".join(lines)


def _table(build, records, render):
    """A handler printing one paper table in the ``--format`` asked for."""

    def run(args) -> None:
        rows = build(max_ranks=args.max_ranks) if "max_ranks" in args else build()
        _emit(args, records(rows), lambda: render(rows))

    return run


def _write_trace(trace, out: str | None, verb: str) -> None:
    """Serialize ``trace`` to ``out``, or to stdout when no path is given."""
    from .dumpi.writer import dump_trace, dumps_trace

    if out:
        path = dump_trace(trace, out)
        print(f"{verb} {trace.meta.label} ({len(trace)} records) to {path}")
    else:
        sys.stdout.write(dumps_trace(trace))


# ------------------------------------------------------------ handlers
# Each takes the parsed namespace and returns an exit status (None = 0).


def _figure1(args) -> None:
    series = analysis.build_figure1(args.app, args.ranks, args.rank)
    print(f"# {series.app}@{series.ranks}, rank {series.rank}")
    print(f"{'partner#':>8} {'bytes':>14} {'cum share':>10}")
    cum = series.cumulative_share
    for i, (v, c) in enumerate(zip(series.volumes, cum), start=1):
        print(f"{i:>8} {v:>14d} {c:>10.3f}")


def _figure5(args) -> None:
    for s in analysis.build_figure5(min_ranks=args.min_ranks, max_ranks=args.max_ranks):
        points = "  ".join(
            f"{p.cores_per_node}c:{p.relative_traffic:.2f}" for p in s.points
        )
        print(f"{s.label:<28} {points}")


def _report(args) -> None:
    rows = analysis.build_report(max_ranks=args.max_ranks)
    text = analysis.render_report(rows)
    if not args.no_collective_deltas:
        deltas = analysis.build_collective_deltas(max_ranks=args.max_ranks)
        if deltas:
            text += "\n\n" + analysis.render_collective_deltas(deltas)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote report ({len(rows)} workloads) to {args.out}")
    else:
        print(text)


def _heatmap(args) -> None:
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


def _traffic(args):
    """The ``--app``/``--ranks`` trace, its matrix, and the ``--topology``."""
    from .comm.matrix import matrix_from_trace

    trace = generate_trace(args.app, args.ranks)
    matrix = matrix_from_trace(trace, collective=args.collective_algo)
    return trace, matrix, build_topology(args.topology, args.ranks)


def _slack(args) -> None:
    from .model.slack import bandwidth_slack

    trace, matrix, topo = _traffic(args)
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


def _simulate(args) -> None:
    from .model.engine import analyze_network
    from .sim.engine import simulate_network

    trace, matrix, topo = _traffic(args)
    t = trace.meta.execution_time
    routing = {"routing": args.routing, "routing_seed": args.routing_seed}
    static = analyze_network(matrix, topo, execution_time=t, **routing)
    dyn = simulate_network(
        matrix,
        topo,
        execution_time=t,
        volume_scale=args.volume_scale,
        engine=args.engine,
        **routing,
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


def _telemetry(args) -> None:
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

    trace, matrix, topo = _traffic(args)
    if args.compare:
        records = congestion_by_routing(
            matrix,
            topo,
            routings=_split(args.compare),
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
        return
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
        return
    print(
        f"{trace.meta.label} on {topo!r} ({args.routing} routing), "
        f"{result.packets_simulated} packets"
    )
    print(render_congestion_timeline(report, topo, threshold=args.threshold))
    print()
    print(render_summary(congestion_summary(report, topo, args.threshold)))
    if args.out:
        out = Path(args.out)
        if out.suffix == ".json":
            out.write_text(json.dumps(report_to_json_dict(report), indent=2) + "\n")
        else:
            save_report_npz(report, out)
        print(f"\nwrote report to {out}")


def _compose(args) -> None:
    from .telemetry import TelemetryConfig
    from .tenancy import (
        TenantSpec,
        compose_workload,
        interference_report,
        render_interference_report,
    )

    def tenants(flag: str, value: str | None) -> list:
        return [
            TenantSpec(*_parsed(flag, AXES["apps"].parse, item), seed=args.seed)
            for item in _split(value or "")
        ]

    workload = compose_workload(
        tenants("--jobs", args.jobs),
        noise=tenants("--noise", args.noise),
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


#: critpath's LogGP overrides: ``LogGPParams`` field -> the term it sets.
_LOGGP = {
    "latency_s": "L",
    "overhead_s": "o",
    "gap_s": "g",
    "gap_per_byte_s": "G",
    "hop_s": "per-hop latency",
}


def _critpath(args) -> None:
    from dataclasses import replace

    from .critpath import (
        DEFAULT_MAX_REPEAT,
        DEFAULT_PARAMS,
        analyze_trace,
        latency_table,
    )

    params = replace(DEFAULT_PARAMS, **{
        field: getattr(args, field)
        for field in _LOGGP
        if getattr(args, field) is not None
    })
    if args.max_repeat is None:
        max_repeat = DEFAULT_MAX_REPEAT
    else:
        max_repeat = args.max_repeat or None  # 0: exact expansion
    if args.table:
        # The table analyzes seed-0 traces, consecutively mapped, on a network.
        unsupported = [flag for flag, given in (
            (f"--app {args.app}", args.app is not None),
            (f"--ranks {args.ranks}", args.ranks is not None),
            ("--topology none", args.topology == "none"),
            (f"--mapping {args.mapping}", args.mapping != "consecutive"),
            (f"--seed {args.seed}", args.seed != 0),
        ) if given]
        if unsupported:
            raise ValueError(f"--table does not take {', '.join(unsupported)}")
        rows = latency_table(
            topology=args.topology,
            routing=args.routing,
            max_ranks=args.max_ranks,
            params=params,
            max_repeat=max_repeat,
            fd_check=not args.no_fd,
            collective=args.collective_algo,
        )
        print(analysis.render_latency_table(rows))
        return

    from .cache import cached_trace
    from .mapping.base import Mapping

    app = "LULESH" if args.app is None else args.app
    ranks = 64 if args.ranks is None else args.ranks
    trace = cached_trace(app, ranks, seed=args.seed)
    topo = mapping = None
    if args.topology != "none":
        topo = build_topology(args.topology, ranks)
        if args.mapping == "random":
            mapping = Mapping.random(ranks, topo.num_nodes, seed=args.seed)
        else:
            mapping = Mapping.consecutive(ranks, topo.num_nodes)
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


def _sweep(args) -> None:
    from .analysis.sweep import run_sweep

    spec = _spec_from_args(args)
    try:
        records = run_sweep(
            spec,
            workers=args.workers,
            progress=lambda done, total: print(
                f"  {done}/{total} cells done", file=sys.stderr
            ),
        )
    except _USER_ERRORS:
        raise
    except Exception as exc:
        # A worker process died or raised mid-grid-point.
        raise CommandFailed(
            f"sweep failed in a worker: {type(exc).__name__}: {exc}"
        ) from exc
    _emit(args, records, lambda: _job_table(records))


def _socket_path(args) -> str:
    return args.socket or str(Path(args.state) / "service.sock")


def _serve(args) -> int:
    from .service.server import run_server

    return run_server(
        args.state,
        _socket_path(args),
        workers=args.workers,
        scheduler=args.scheduler,
        journal_batch=args.journal_batch,
        cache_dir=args.cache_dir,
    )


def _client(args) -> SweepClient:
    from .service.client import SweepClient

    return SweepClient(_socket_path(args))


def _follow(args, client: SweepClient, job: str, results: bool) -> None:
    """Stream one job's progress to stderr; then print its records or status."""
    for event in client.attach(job):
        kind = event.get("event")
        if kind == "cell":
            replay = " (replayed)" if event.get("replayed") else ""
            print(
                f"  {event['done']}/{event['total']} cells done{replay}",
                file=sys.stderr,
            )
        elif kind == "end" and event.get("status") != "done":
            error = event.get("error")
            suffix = f": {error}" if error else ""
            raise CommandFailed(f"job {job} {event.get('status')}{suffix}")
    if results:
        records = client.results(job)
        _emit(args, records, lambda: _job_table(records))
    else:
        print(f"{job}: done")


def _submit(args) -> None:
    from .service.cells import spec_to_dict

    spec = _spec_from_args(args)
    client = _client(args)
    resp = client.submit(spec_to_dict(spec))
    print(
        f"{resp['job']}: {resp['cells']} cells ({resp['collapsed']} collapsed)",
        file=sys.stderr if args.wait else sys.stdout,
    )
    if args.wait:
        _follow(args, client, resp["job"], results=True)


def _attach(args) -> None:
    _follow(args, _client(args), args.job, results=args.results)


def _jobs(args) -> None:
    client = _client(args)
    if args.shutdown:
        client.shutdown()
        print("service stopping")
    elif args.cancel:
        summary = client.cancel(args.cancel)
        print(f"{summary['job']}: {summary['status']}")
    elif args.stats:
        stats = client.stats()
        stats.pop("ok", None)
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
        for j in jobs:
            counts = j.get("counts", {})
            dedup = counts.get("dedup_warm", 0) + counts.get("dedup_inflight", 0)
            print(
                f"{j['job']:<10} {j['status']:<10} "
                f"{j['cells_done']:>5}/{j['cells_total']:<5} "
                f"restored {counts.get('restored', 0):<4} "
                f"dedup {dedup}"
            )


def _convert(args) -> None:
    from .dumpi.ascii_dumpi import load_dumpi2ascii_dir

    _write_trace(load_dumpi2ascii_dir(args.dir, app=args.app), args.out, "converted")


def _trace(args) -> None:
    trace = generate_trace(args.app, args.ranks, variant=args.variant, seed=args.seed)
    _write_trace(trace, args.out, "wrote")


def _compare(args) -> None:
    from .paper.compare import compare_table3, deviation_summary

    cells = compare_table3(analysis.build_table3(max_ranks=args.max_ranks))
    print("Paper-vs-measured deviation (Table 3 cells)")
    print("-" * 48)
    for line in deviation_summary(cells).lines():
        print(line)
    print("\nlargest per-column deviations:")
    worst: dict[str, tuple[str, float]] = {}
    for cell in cells:
        r = cell.ratio
        if r is None:
            continue
        prev = worst.get(cell.column)
        if prev is None or abs(math.log(r)) > abs(math.log(prev[1])):
            worst[cell.column] = (cell.label, r)
    for column, (label, ratio) in sorted(worst.items()):
        print(f"  {column:<24} {label:<28} {ratio:6.2f}x")


def _validate(args) -> int:
    from .apps.validation import validate_all

    result = validate_all(max_ranks=args.max_ranks)
    print(result.summary())
    return 0 if result.ok else 1


def _check(args) -> int:
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


def _fuzz(args) -> int:
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


def _apps(args) -> None:
    for name, app in APPS.items():
        configs = ", ".join(
            f"{c.ranks}{'/' + c.variant if c.variant else ''}"
            for c in app.configurations()
        )
        star = " (*)" if app.uses_derived_types else ""
        print(f"{name:<22}{star:<5} ranks: {configs}")


class _BenchTargets:
    """The ``bench`` target help, rendered only when help is printed.

    Building the parser then needs no :mod:`repro.bench`; argparse reads a
    help text through ``strip`` and ``%`` alone.
    """

    def __str__(self) -> str:
        from .bench import BENCHES

        return "; ".join(f"{b.name}: {b.title}" for b in BENCHES.values())

    def strip(self) -> str:
        return str(self).strip()

    def __mod__(self, params: dict[str, Any]) -> str:
        return str(self) % params


def _bench(args) -> int:
    from .bench import BENCHES, render_bench, write_bench

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
    print(f"wrote {write_bench(args.out or f'BENCH_{bench.name}.json', record)}")
    return int(any(row["enforced"] and not row["ok"] for row in record["gates"]))


# ------------------------------------------------------------ the table


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, its flags, and its handler.

    ``client`` marks the commands that talk to a running service: an
    ``OSError`` from them means the service is unreachable.
    """

    name: str
    help: str
    run: Callable[[argparse.Namespace], int | None]
    args: tuple[Arg, ...] = ()
    client: bool = False


COMMANDS: dict[str, Command] = {c.name: c for c in (
    Command("table1", "application overview (Table 1)", _table(
        analysis.build_table1, analysis.table1_records, analysis.render_table1
    ), (MAX_RANKS, FORMAT)),
    Command("table2", "topology configurations (Table 2)", _table(
        analysis.build_table2, analysis.table2_records, analysis.render_table2
    ), (FORMAT,)),
    Command("table3", "full locality metrics (Table 3)", _table(
        analysis.build_table3, analysis.table3_records, analysis.render_table3
    ), (MAX_RANKS, FORMAT)),
    Command("table4", "dimensionality study (Table 4)", _table(
        analysis.build_table4, analysis.table4_records, analysis.render_table4
    ), (MAX_RANKS, FORMAT)),
    Command(
        "figure1", "per-partner volumes of one rank (Figure 1)", _figure1,
        (*LULESH_64, _arg("--rank", type=int, default=0)),
    ),
    Command("figure3", "selectivity curves (Figure 3)", lambda a: print(
        analysis.render_curves(analysis.build_figure3(max_ranks=a.max_ranks))
    ), (MAX_RANKS,)),
    Command("figure4", "selectivity scaling of one app (Figure 4)", lambda a: print(
        analysis.render_curves(analysis.build_figure4(a.app))
    ), (_arg("--app", default="AMG"),)),
    Command(
        "figure5", "multi-core traffic scaling (Figure 5)", _figure5,
        (_arg("--min-ranks", type=int, default=512), MAX_RANKS),
    ),
    Command("claims", "headline-claim statistics", lambda a: print(
        analysis.render_claims(analysis.build_claim_report(max_ranks=a.max_ranks))
    ), (MAX_RANKS,)),
    Command("report", "full markdown characterization report", _report, (
        MAX_RANKS,
        OUT,
        _arg("--no-collective-deltas", action="store_true", help="skip the "
             "(app x topology x routing x collective-algo) delta section"),
    )),
    Command(
        "heatmap", "ASCII communication heat map", _heatmap,
        (*APP_RANKS, _arg("--bins", type=int, default=32)),
    ),
    Command(
        "slack", "per-link bandwidth slack (paper \u00a77)", _slack,
        (*APP_RANKS, TOPOLOGY, *ROUTING, COLLECTIVE),
    ),
    Command(
        "simulate", "dynamic packet-level simulation vs the static model",
        _simulate, (*APP_RANKS, TOPOLOGY, *SIMULATION, *ROUTING, COLLECTIVE),
    ),
    Command(
        "telemetry", "windowed link telemetry and congestion-region analysis",
        _telemetry, (
            *APP_RANKS,
            TOPOLOGY,
            *REGIONS,
            *SIMULATION,
            _arg("--compare", default=None, metavar="POLICIES",
                 help="comma-separated routing policies to contrast on this "
                 "traffic (e.g. minimal,ugal) instead of the timeline"),
            _with(OUT, help="write the full report to PATH "
                  "(.npz exact, .json summary)"),
            *ROUTING,
            COLLECTIVE,
        ),
    ),
    Command(
        "compose", "co-schedule jobs on one machine and attribute interference",
        _compose, (
            _arg("--jobs", required=True, metavar="APP:RANKS,...",
                 help="tenant applications, e.g. LULESH:64,CMC_2D:64"),
            _arg("--noise", default=None, metavar="APP:RANKS,...",
                 help="background aggressors, e.g. HotspotNoise:64"),
            _arg("--allocation", default="contiguous",
                 choices=("contiguous", "round_robin", "random"),
                 help="rank-allocation policy placing jobs on the machine"),
            _arg("--alloc-seed", type=int, default=0,
                 help="seed for the random allocation policy"),
            TOPOLOGY,
            *REGIONS,
            *SIMULATION,
            _with(SEED, help="trace-generation seed shared by every tenant"),
            *ROUTING,
        ),
    ),
    Command(
        "critpath", "critical path and latency tolerance under the LogGP model",
        _critpath, (
            *CRITPATH_WORKLOAD,
            _arg("--table", action="store_true",
                 help="latency-tolerance table over every registry app "
                 "(smallest configurations, consecutive mapping, seed 0)"),
            MAX_RANKS,
            _with(TOPOLOGY, choices=(*TOPOLOGY_KINDS, "none"),
                  help="'none' models a zero-diameter network (no per-hop term)"),
            _arg("--mapping", default="consecutive",
                 choices=("consecutive", "random"),
                 help="rank placement feeding the per-hop cost term"),
            *ROUTING,
            COLLECTIVE,
            _arg("--max-repeat", type=_checked(int, _at_least(0)), default=None,
                 help="iteration-truncation clamp for repeat expansion "
                 "(default: 64; 0 = exact expansion)"),
            _arg("--no-fd", action="store_true",
                 help="skip the finite-difference sensitivity cross-check"),
            *(
                _arg("--" + field.replace("_", "-"), type=float, default=None,
                     help=f"LogGP {term} override in seconds (default: dyadic)")
                for field, term in _LOGGP.items()
            ),
            _with(SEED, help="trace seed (and the random mapping's)"),
        ),
    ),
    Command("sweep", "cross a custom parameter grid (incl. routing policies)", _sweep, (
        *SPEC,
        _arg("--workers", type=int, default=1,
             help="evaluate grid points in this many processes"),
        FORMAT,
    )),
    Command("serve", "run the persistent sharded sweep job service", _serve, (
        *SERVICE,
        _arg("--workers", type=int, default=2,
             help="persistent worker processes (default: 2)"),
        _arg("--scheduler", choices=("affinity", "random"), default="affinity",
             help="cell placement: cache-affinity (default) or random hashing"),
        _arg("--journal-batch", type=int, default=16,
             help="journal appends per fsync (1 = fsync every cell)"),
    )),
    Command("submit", "submit a sweep grid to a running service", _submit, (
        *SERVICE,
        *SPEC,
        _arg("--wait", action="store_true",
             help="stream progress until done, then print the records"),
        FORMAT,
    ), client=True),
    Command("jobs", "list service jobs (or stats / cancel / shutdown)", _jobs, (
        *SERVICE,
        _arg("--stats", action="store_true",
             help="print pool-wide service stats as JSON instead"),
        _arg("--cancel", default=None, metavar="JOB", help="cancel one job"),
        _arg("--shutdown", action="store_true", help="stop the service"),
    ), client=True),
    Command("attach", "stream a job's progress until it finishes", _attach, (
        *SERVICE,
        _arg("job", metavar="JOB"),
        _arg("--results", action="store_true",
             help="print the job's records once it is done"),
        FORMAT,
    ), client=True),
    Command("convert", "convert real dumpi2ascii output to repro-dumpi", _convert, (
        _arg("--dir", required=True, help="directory of per-rank files"),
        _with(APP_RANKS[0], help="application name for metadata"),
        OUT,
    )),
    Command(
        "trace", "generate and serialize one trace", _trace,
        (*APP_RANKS, _arg("--variant", default=""), SEED, OUT),
    ),
    Command(
        "compare", "cell-by-cell paper-vs-measured deviation summary", _compare,
        (MAX_RANKS,),
    ),
    Command(
        "validate", "self-validate the synthetic generators", _validate,
        (MAX_RANKS,),
    ),
    Command("check", "run the cross-layer invariant suite over the study grid",
            _check, (
        MAX_RANKS,
        _arg("--apps", default=None,
             help="comma-separated application names to check (default: all)"),
        _arg("--topologies", default=",".join(TOPOLOGY_KINDS),
             help="comma-separated topology kinds to check"),
        _arg("--routings", default=None, help="comma-separated routing "
             f"policies (default: all of {', '.join(ROUTINGS)})"),
        _arg("--collectives", default="flat", help="comma-separated collective-"
             f"algorithm engines to cross the grid with ({', '.join(COLLECTIVES)})"),
        _arg("--no-sim", action="store_true",
             help="skip the dynamic-simulation and telemetry invariants"),
        _arg("--composed", action="store_true",
             help="also check multi-tenant composed-workload scenarios"),
        _with(TARGET_PACKETS, default=20_000),
        _arg("--strict", action="store_true",
             help="treat invariant warnings as failures"),
        _arg("--verbose", action="store_true",
             help="list every scenario, not just violations"),
        SEED,
    )),
    Command("fuzz", "differential fuzz: random configs through every engine pair",
            _fuzz, (
        _arg("--count", type=_checked(int, _at_least(1)), default=8,
             help="number of seeded cases to run (default: 8, the CI smoke set)"),
        _arg("--offset", type=int, default=0,
             help="first seed (cases run seeds offset..offset+count-1)"),
        _with(MAX_RANKS, default=64,
              help="largest workload configuration a case may draw"),
        TARGET_PACKETS,
        _arg("--no-shrink", action="store_true",
             help="report raw failing cases without minimizing them"),
    )),
    Command("apps", "list applications and configurations", _apps),
    Command("bench", "run one component benchmark and check its gates "
            "(exit 1 if an enforced gate fails)", _bench, (
        _arg("target", help=_BenchTargets()),
        _arg("--pairs", type=_checked(int, _at_least(1)), default=None,
             help="(routing) node pairs routed per policy (default: 100000)"),
        _with(OUT, help="where to write the JSON record "
              "(default: ./BENCH_<target>.json)"),
    )),
)}

_GLOBAL = (
    _arg("--version", action="version", version=f"%(prog)s {__version__}"),
    _arg(
        "--timings", action="store_true",
        help="print a per-stage wall-time breakdown to stderr when done",
    ),
    _arg(
        "--cache-dir", default=None, metavar="PATH",
        help="persist trace/matrix/route caches under PATH "
        "(also honoured via REPRO_CACHE_DIR)",
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The parser of the global flags and of every :data:`COMMANDS` entry."""
    parser = argparse.ArgumentParser(
        prog="repro-locality",
        description=(
            "Reproduction of 'On Network Locality in MPI-Based HPC "
            "Applications' (ICPP 2020)"
        ),
    )
    for flags, kwargs in _GLOBAL:
        parser.add_argument(*flags, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        for flags, kwargs in command.args:
            p.add_argument(*flags, **kwargs)
    return parser


def _failure(command: Command, args, exc: Exception) -> tuple[int, Any] | None:
    """The exit status and message of an expected failure, else None."""
    if isinstance(exc, CommandFailed):
        return 1, exc
    if command.client:
        from .service.client import ServiceError

        if isinstance(exc, ServiceError):
            return 2, exc
        if isinstance(exc, OSError):
            return 2, f"cannot reach sweep service at {_socket_path(args)}: {exc}"
    if isinstance(exc, _USER_ERRORS):
        # KeyError carries its message as the single arg; str(exc) would
        # wrap it in quotes.
        return 2, exc.args[0] if exc.args else exc
    return None


def _startup_line() -> str:
    """Seconds from ``import repro`` to now, and the ``repro`` modules loaded."""
    loaded = sum(name == "repro" or name.startswith("repro.") for name in sys.modules)
    return (
        f"start-up: {time.perf_counter() - _IMPORT_STARTED:.3f}s from import repro "
        f"to dispatch, {loaded} repro modules loaded"
    )


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place failures become exit statuses.

    User errors, service errors and an unreachable service exit 2 with one
    line on stderr; a failed sweep worker or service job exits 1; a stdout
    closed early (``| head``) exits 0.
    """
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if args.cache_dir:
            from . import cache

            cache.configure(disk_dir=args.cache_dir)
        if args.timings:
            timings.enable()
            startup = _startup_line()
        try:
            status = command.run(args) or 0
        finally:
            if args.timings:
                from . import cache

                print(startup, file=sys.stderr)
                print(timings.summary(), file=sys.stderr)
                print(cache.memory_summary(), file=sys.stderr)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the dead pipe doesn't print a spurious traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        failure = _failure(command, args, exc)
        if failure is None:
            raise
        code, message = failure
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
