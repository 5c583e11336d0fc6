"""The invariant catalogue: every registered conservation check.

Each check cites the law it enforces (paper equation or repo module) and
yields :class:`~repro.validation.base.Violation` records for every breach.
All checks are cheap relative to producing the artifacts they inspect —
integer reductions, a bounded route-walk sample — so the full catalogue can
run on every scenario of the study grid (``repro check``) and inside the
differential fuzzer.

Float-summed conservation quantities (link loads, windowed occupancy) are
compared with a relative tolerance of :data:`~repro.validation.base.REL_TOL`
— bincount reductions over exact int64 inputs agree to ~1 ulp per term —
while purely integer quantities (bytes, packets, hops, serve counts) must
match exactly.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..core.blocks import same_records
from ..routing.validate import walks_are_valid
from ..topology.base import RouteIncidence
from .base import REL_TOL, CheckContext, Violation, invariant

__all__ = [
    "traces_identical",
    "matrices_identical",
    "incidences_identical",
]

#: Route-walk validation runs a per-pair Python loop; bound the sample so
#: the check stays O(1) relative to grid size.
WALK_SAMPLE = 64


def _err(name: str, message: str) -> Violation:
    return Violation(invariant=name, severity="error", message=message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


# ------------------------------------------------------------- equality helpers


def traces_identical(a, b) -> bool:
    """Bit-exact trace equality via columnar blocks (no event objects).

    Same metadata and same record stream; insensitive to block
    partitioning.  Unlike ``a == b`` it ignores the datatype registry and
    communicator table, and it accepts a
    :class:`~repro.core.stream.BlockStream` on either side.
    """
    return a.meta == b.meta and same_records(a.blocks(), b.blocks())


def matrices_identical(a, b) -> bool:
    """Bit-exact :class:`~repro.comm.matrix.CommMatrix` equality."""
    if a.num_ranks != b.num_ranks:
        return False
    return all(
        np.array_equal(getattr(a, col), getattr(b, col))
        for col in ("src", "dst", "nbytes", "messages", "packets")
    )


def incidences_identical(a, b) -> bool:
    """Bit-exact :class:`~repro.topology.base.RouteIncidence` equality."""
    return np.array_equal(a.pair_index, b.pair_index) and np.array_equal(
        a.link_id, b.link_id
    )


def _p2p_sent_bytes_per_rank(trace) -> np.ndarray:
    """Bytes injected by each rank's point-to-point sends (from blocks)."""
    sent = np.zeros(trace.meta.num_ranks, dtype=np.int64)
    for block in trace.blocks():
        mask = block.p2p_send_mask()
        nbytes = np.multiply(
            block.row_bytes(trace.datatypes)[mask], block.repeat[mask], dtype=np.int64
        )
        np.add.at(sent, block.caller[mask], nbytes)
    return sent


# ------------------------------------------------------------- static checks


@invariant(
    "trace-matrix-bytes",
    "Every p2p byte a rank sends appears as matrix mass for that rank",
    "paper §4.1 (traffic matrix construction); repro.comm.matrix",
)
def check_trace_matrix_bytes(ctx: CheckContext) -> Iterator[Violation]:
    name = "trace-matrix-bytes"
    sent = _p2p_sent_bytes_per_rank(ctx.trace)
    matrix_out = ctx.p2p_matrix.out_bytes_per_rank()
    if int(sent.sum()) != ctx.p2p_matrix.total_bytes:
        yield _err(
            name,
            f"trace p2p sends total {int(sent.sum())} bytes but the p2p "
            f"matrix holds {ctx.p2p_matrix.total_bytes}",
        )
    bad = np.nonzero(sent != matrix_out)[0]
    if bad.size:
        r = int(bad[0])
        yield _err(
            name,
            f"{bad.size} rank(s) lose bytes trace->matrix; first: rank {r} "
            f"sent {int(sent[r])}, matrix row holds {int(matrix_out[r])}",
        )


@invariant(
    "link-volume-conservation",
    "Sum of per-link byte loads equals sum of volume x hops over pairs",
    "Eq. 3 (packet hops); repro.topology.base.RouteIncidence.link_loads",
)
def check_link_volume(ctx: CheckContext) -> Iterator[Violation]:
    name = "link-volume-conservation"
    inc = ctx.incidence
    num_pairs = len(ctx.pair_src)
    _, loads = inc.link_loads(ctx.pair_bytes)
    if loads.size and float(loads.min()) < 0:
        yield _err(name, f"negative link load {float(loads.min())}")
    hops = np.bincount(inc.pair_index, minlength=num_pairs)
    expected = int((ctx.pair_bytes * hops).sum())
    total = float(loads.sum())
    if not _close(total, float(expected)):
        yield _err(
            name,
            f"link loads sum to {total}, but volume x hops over the pairs "
            f"is {expected} ({ctx.routing} routing)",
        )
    if ctx.analysis is not None and len(inc.used_links()) != ctx.analysis.used_links:
        yield _err(
            name,
            f"incidence uses {len(inc.used_links())} links but the analysis "
            f"reports {ctx.analysis.used_links}",
        )


@invariant(
    "route-walks",
    "Sampled routes form a single walk from source to destination node",
    "Eulerian-walk characterization; repro.routing.validate",
)
def check_route_walks(ctx: CheckContext) -> Iterator[Violation]:
    name = "route-walks"
    n = len(ctx.pair_src)
    if n == 0:
        return
    sample = np.unique(
        np.linspace(0, n - 1, num=min(n, WALK_SAMPLE)).astype(np.int64)
    )
    remap = np.full(n, -1, dtype=np.int64)
    remap[sample] = np.arange(len(sample), dtype=np.int64)
    keep = remap[ctx.incidence.pair_index] >= 0
    sub = RouteIncidence(
        remap[ctx.incidence.pair_index[keep]], ctx.incidence.link_id[keep]
    )
    ok = walks_are_valid(
        ctx.topology, ctx.pair_src[sample], ctx.pair_dst[sample], sub
    )
    if not ok.all():
        bad = sample[np.nonzero(~ok)[0]]
        p = int(bad[0])
        yield _err(
            name,
            f"{len(bad)}/{len(sample)} sampled routes are not valid walks "
            f"under {ctx.routing}; first: node pair "
            f"({int(ctx.pair_src[p])} -> {int(ctx.pair_dst[p])})",
        )


@invariant(
    "hops-lower-bound",
    "Per-pair route length is at least the true walk lower bound",
    "Eq. 4 (average hops); Topology.walk_hops_lower_bound — NOT hops_array, "
    "which Valiant legitimately undercuts on the dragonfly",
)
def check_hops_lower_bound(ctx: CheckContext) -> Iterator[Violation]:
    name = "hops-lower-bound"
    n = len(ctx.pair_src)
    if n == 0:
        return
    route_hops = np.bincount(ctx.incidence.pair_index, minlength=n)
    min_hops = ctx.topology.walk_hops_lower_bound(ctx.pair_src, ctx.pair_dst)
    short = np.nonzero(route_hops < min_hops)[0]
    if short.size:
        p = int(short[0])
        yield _err(
            name,
            f"{short.size} pair(s) route below the walk lower bound under "
            f"{ctx.routing}; first: ({int(ctx.pair_src[p])} -> "
            f"{int(ctx.pair_dst[p])}) takes {int(route_hops[p])} hops, "
            f"minimum is {int(min_hops[p])}",
        )
    if ctx.analysis is not None:
        floor = int((ctx.pair_packets * min_hops).sum())
        if ctx.analysis.packet_hops < floor:
            yield _err(
                name,
                f"analysis reports {ctx.analysis.packet_hops} packet hops, "
                f"below the shortest-path floor {floor}",
            )


@invariant(
    "eq5-utilization",
    "Eq. 5 utilization lies in [0, 1] and average hops is non-negative",
    "Eq. 5 (network utilization), paper §4.2.3",
)
def check_eq5_utilization(ctx: CheckContext) -> Iterator[Violation]:
    name = "eq5-utilization"
    a = ctx.analysis
    if a is None:
        return
    u = a.utilization
    if math.isnan(u):
        yield _err(name, "utilization is NaN")
    elif not 0.0 <= u <= 1.0 + REL_TOL:
        yield _err(name, f"utilization {u} outside [0, 1]")
    if a.avg_hops < 0:
        yield _err(name, f"average hops {a.avg_hops} is negative")
    share = a.global_link_packet_share
    if share is not None and not 0.0 <= share <= 1.0 + REL_TOL:
        yield _err(name, f"global-link packet share {share} outside [0, 1]")


# ------------------------------------------------------------- dynamic checks


@invariant(
    "sim-structure",
    "Simulation counters are self-consistent (hops, links, delay bounds)",
    "repro.sim.common (structural observables)",
    requires=("sim",),
)
def check_sim_structure(ctx: CheckContext) -> Iterator[Violation]:
    name = "sim-structure"
    s = ctx.sim
    if s.packets_simulated == 0:
        if s.total_hops or s.used_links or s.makespan:
            yield _err(name, "empty simulation carries nonzero observables")
        return
    if s.link_serve_counts is not None:
        served = int(np.asarray(s.link_serve_counts).sum())
        if served != s.total_hops:
            yield _err(
                name,
                f"link serve counts sum to {served}, total_hops is "
                f"{s.total_hops}",
            )
        used = int((np.asarray(s.link_serve_counts) > 0).sum())
        if used != s.used_links:
            yield _err(
                name,
                f"{used} links served packets, used_links is {s.used_links}",
            )
    if s.makespan + 1e-12 < s.injection_window:
        yield _err(
            name,
            f"makespan {s.makespan} precedes the injection window "
            f"{s.injection_window}",
        )
    if not 0.0 <= s.dynamic_utilization <= 1.0 + REL_TOL:
        yield _err(
            name, f"dynamic utilization {s.dynamic_utilization} outside [0, 1]"
        )
    if not 0.0 <= s.congested_packet_share <= 1.0 + REL_TOL:
        yield _err(
            name,
            f"congested packet share {s.congested_packet_share} outside [0, 1]",
        )
    if not 0.0 <= s.peak_link_busy_fraction <= 1.0 + REL_TOL:
        yield _err(
            name,
            f"peak link busy fraction {s.peak_link_busy_fraction} "
            f"outside [0, 1]",
        )
    if not 0.0 <= s.mean_queue_delay <= s.max_queue_delay + 1e-15:
        yield _err(
            name,
            f"mean queue delay {s.mean_queue_delay} outside "
            f"[0, max={s.max_queue_delay}]",
        )
    if s.p99_queue_delay > s.max_queue_delay + 1e-15:
        yield _err(
            name,
            f"p99 queue delay {s.p99_queue_delay} exceeds max "
            f"{s.max_queue_delay}",
        )
    inflation = s.makespan_inflation
    if not math.isnan(inflation) and inflation < 1.0 - REL_TOL:
        yield _err(name, f"makespan inflation {inflation} below 1.0")


@invariant(
    "telemetry-occupancy",
    "Windowed busy time never exceeds window capacity, and sums to the "
    "run's total busy time",
    "congestion-signal sanity (Jha et al.); repro.telemetry.collector",
    requires=("telemetry",),
)
def check_telemetry_occupancy(ctx: CheckContext) -> Iterator[Violation]:
    name = "telemetry-occupancy"
    r = ctx.telemetry
    occ = r.occupancy
    if occ.size == 0:
        return
    lo = float(occ.min())
    if lo < -1e-12:
        yield _err(name, f"negative occupancy {lo}")
    if r.window_dt > 0:
        cap = r.window_dt * (1.0 + 1e-9) + 1e-12
        hi = float(occ.max())
        if hi > cap:
            yield _err(
                name,
                f"occupancy {hi} exceeds window capacity {r.window_dt}",
            )
    total_busy = float(occ.sum())
    expected = float(r.serve_series.sum()) * r.service
    if not _close(total_busy, expected, rel=1e-6):
        yield _err(
            name,
            f"occupancy sums to {total_busy} busy seconds, services x "
            f"service time is {expected}",
        )


@invariant(
    "telemetry-flow",
    "Injected == delivered == simulated packets, per node and per window",
    "flow conservation; repro.telemetry.collector",
    requires=("telemetry", "sim"),
)
def check_telemetry_flow(ctx: CheckContext) -> Iterator[Violation]:
    name = "telemetry-flow"
    r = ctx.telemetry
    s = ctx.sim
    packets = s.packets_simulated
    for label, series in (
        ("injections per node", r.injections),
        ("ejections per node", r.ejections),
        ("injected series", r.injected_series),
        ("delivered series", r.delivered_series),
    ):
        total = int(np.asarray(series).sum())
        if total != packets:
            yield _err(
                name,
                f"{label} sum to {total}, packets simulated is {packets}",
            )
    if s.link_serve_counts is not None:
        if not np.array_equal(r.link_ids, s.link_ids):
            yield _err(name, "telemetry and simulation disagree on link IDs")
        else:
            per_link = r.serve_series.sum(axis=1)
            if not np.array_equal(per_link, s.link_serve_counts):
                bad = np.nonzero(per_link != s.link_serve_counts)[0]
                yield _err(
                    name,
                    f"{bad.size} link(s) disagree between windowed serve "
                    f"series and simulation serve counts",
                )
    total_services = int(r.serve_series.sum())
    for label, hist in (
        ("queue-depth histogram", r.queue_depth_hist),
        ("stall histogram", r.stall_hist),
    ):
        total = int(np.asarray(hist).sum())
        if total != total_services:
            yield _err(
                name,
                f"{label} counts {total} hops, services recorded is "
                f"{total_services}",
            )


# ------------------------------------------------------------- cache checks


@invariant(
    "cache-roundtrip",
    "Disk-cache roundtrips reproduce artifacts bit-identically",
    "content-keyed caching; repro.cache",
    requires=("cache",),
)
def check_cache_roundtrip(ctx: CheckContext) -> Iterator[Violation]:
    name = "cache-roundtrip"
    comparators = {
        "trace": traces_identical,
        "p2p_matrix": matrices_identical,
        "full_matrix": matrices_identical,
        "incidence": incidences_identical,
    }
    for kind, (original, reloaded) in ctx.roundtrip.items():
        same = comparators.get(kind, lambda a, b: a == b)
        if not same(original, reloaded):
            yield _err(
                name,
                f"{kind} changed across a disk-cache roundtrip for "
                f"{ctx.label}",
            )


# ------------------------------------------------------------ streaming checks

#: Deliberately tiny chunk budget (~850 rows) so every seed-scale trace
#: splits into many chunks, and a small compaction threshold so the
#: incremental merge path runs several times per matrix.
STREAM_CHUNK_BYTES = 1 << 16
STREAM_COMPACT_ROWS = 512
#: Packet bound for the differential simulation leg.
STREAM_SIM_PACKETS = 4_000


@invariant(
    "streaming-equivalence",
    "Chunked streaming replay reproduces the in-memory matrices and sim",
    "out-of-core streaming; repro.core.stream, repro.comm.matrix",
)
def check_streaming_equivalence(ctx: CheckContext) -> Iterator[Violation]:
    name = "streaming-equivalence"
    from ..comm.matrix import matrix_from_stream
    from ..core.stream import BlockStream

    stream = BlockStream.from_trace(ctx.trace).rechunk(STREAM_CHUNK_BYTES)
    diverged = False
    for label, expected, include in (
        ("p2p", ctx.p2p_matrix, False),
        ("full", ctx.full_matrix, True),
    ):
        streamed = matrix_from_stream(
            stream,
            include_collectives=include,
            compact_rows=STREAM_COMPACT_ROWS,
            collective=ctx.collective,
        )
        if not matrices_identical(streamed, expected):
            diverged = True
            yield _err(
                name,
                f"streamed {label} matrix diverges from the in-memory build "
                f"({STREAM_CHUNK_BYTES}-byte chunks, compaction every "
                f"{STREAM_COMPACT_ROWS} rows)",
            )
    if ctx.sim is None or diverged:
        return
    # Matrix identity makes the two sim feeds carry the same packet
    # population; one bounded differential run still exercises the
    # simulate_stream wiring end to end.
    from ..sim.engine import simulate_network, simulate_stream

    total = int(ctx.full_matrix.packets.sum())
    scale = (
        float(-(-total // STREAM_SIM_PACKETS))
        if total > STREAM_SIM_PACKETS
        else 1.0
    )
    kwargs = dict(
        mapping=ctx.mapping,
        execution_time=ctx.trace.meta.execution_time,
        volume_scale=scale,
        seed=ctx.routing_seed,
        routing=ctx.routing,
        routing_seed=ctx.routing_seed,
    )
    streamed_sim = simulate_stream(
        stream, ctx.topology, collective=ctx.collective, **kwargs
    )
    direct_sim = simulate_network(ctx.full_matrix, ctx.topology, **kwargs)
    if streamed_sim != direct_sim or not np.array_equal(
        streamed_sim.link_serve_counts, direct_sim.link_serve_counts
    ):
        yield _err(
            name,
            f"streamed simulation diverges from the in-memory feed "
            f"(volume scale {scale}, makespan {streamed_sim.makespan} "
            f"vs {direct_sim.makespan})",
        )


@invariant(
    "composed-byte-conservation",
    "Each tenant's bytes survive the multi-tenant merge exactly",
    "multi-tenant composition; repro.tenancy.compose",
    requires=("composed",),
)
def check_composed_byte_conservation(ctx: CheckContext) -> Iterator[Violation]:
    name = "composed-byte-conservation"
    from ..comm.matrix import matrix_from_trace

    workload = ctx.composed
    matrix = ctx.full_matrix
    if matrix is None:
        matrix = matrix_from_trace(workload.trace)
    table = workload.job_of_rank
    # Rank-space sanity: disjoint, complete job rank sets.
    if (table < 0).any():
        yield _err(name, "job_of_rank leaves ranks unassigned")
        return
    for job in workload.jobs:
        if not np.array_equal(np.sort(job.ranks), job.ranks):
            yield _err(
                name, f"job {job.label}: allocated ranks are not sorted"
            )
        if not np.array_equal(table[job.ranks], np.full(len(job.ranks), job.job_id)):
            yield _err(
                name,
                f"job {job.label}: job_of_rank disagrees with its rank set",
            )
    # Byte conservation: the composite matrix restricted to one job must
    # carry exactly the bytes/messages/packets of the job's solo matrix —
    # rank remapping is a bijection and collective expansion sees the same
    # communicator structure under the prefixed names.
    total_bytes = 0
    for job in workload.jobs:
        sub = workload.job_matrix(matrix, job.job_id)
        solo = matrix_from_trace(workload.solo_trace(job.job_id))
        for column in ("nbytes", "messages", "packets"):
            got = int(getattr(sub, column).sum())
            want = int(getattr(solo, column).sum())
            if got != want:
                yield _err(
                    name,
                    f"job {job.label}: composite {column} {got} != "
                    f"solo {column} {want}",
                )
        total_bytes += sub.total_bytes
    if total_bytes != matrix.total_bytes:
        yield _err(
            name,
            f"per-job byte totals sum to {total_bytes} but the composite "
            f"matrix carries {matrix.total_bytes} — cross-job traffic or "
            f"lost rows",
        )


# --------------------------------------------------------- collective checks

#: Synthetic communicator battery for the per-engine conservation laws:
#: one non-power-of-two and one power-of-two size, root 0 and a non-zero
#: root, with a ``count`` the sizes do not divide (remainder handling).
_COLL_SIZES = (5, 8)
_COLL_COUNT = 25


def _collective_law_violations() -> tuple[str, ...]:
    """Byte-conservation breaches of every registered collective engine.

    Expands every op through every registry engine on synthetic
    communicators and checks the per-member net-flow laws the flat
    expansion defines (tree schedules may relay bytes, so relayed ops are
    held to exact *net* deliveries and the unrooted exchanges to the
    flat volume floor).  The battery is deterministic and trace-free, so
    it runs once per process and the per-scenario check replays the
    memoized verdict.
    """
    from ..collectives import even_split
    from ..collectives.registry import COLLECTIVES, get_algorithm
    from ..core.communicator import Communicator
    from ..core.events import CollectiveOp

    problems: list[str] = []
    ops = [op for op in CollectiveOp if op is not CollectiveOp.BARRIER]
    u = _COLL_COUNT
    for engine_name in COLLECTIVES:
        engine = get_algorithm(engine_name)
        for n in _COLL_SIZES:
            members = tuple(range(50, 50 + n))
            comm = Communicator(name=f"check{n}", members=members)
            callers = np.array(members, dtype=np.int64)
            calls = np.ones(n, dtype=np.int64)
            for op in ops:
                for root in sorted({0, 2 % n}):
                    nbytes = np.full(n, u, dtype=np.int64)
                    if op is CollectiveOp.GATHERV:
                        # Heterogeneous contributions: exact per-caller
                        # accounting, not an even approximation.
                        nbytes = nbytes + np.arange(n, dtype=np.int64)
                    roots = np.full(n, root, dtype=np.int64)
                    batches = engine.expand_batch(
                        op, comm, callers, nbytes, roots, calls
                    )
                    inflow = np.zeros(n, dtype=np.int64)
                    outflow = np.zeros(n, dtype=np.int64)
                    out_incl = np.zeros(n, dtype=np.int64)
                    for src, dst, bpm, bcalls in (b[:4] for b in batches):
                        vol = bpm * bcalls
                        ls = np.searchsorted(callers, src)
                        ld = np.searchsorted(callers, dst)
                        np.add.at(out_incl, ls, vol)
                        cross = src != dst
                        np.add.at(outflow, ls[cross], vol[cross])
                        np.add.at(inflow, ld[cross], vol[cross])

                    def bad(member, got, law) -> None:
                        problems.append(
                            f"{engine_name}/{op.value} n={n} root={root} "
                            f"member {member}: {got} B violates {law}"
                        )

                    others = [i for i in range(n) if i != root]
                    if op is CollectiveOp.BCAST:
                        for i in others:
                            if inflow[i] != u:
                                bad(i, int(inflow[i]), f"inflow == {u}")
                    elif op is CollectiveOp.SCATTER:
                        net = inflow - outflow
                        for i in others:
                            if net[i] != u:
                                bad(i, int(net[i]), f"net delivery == {u}")
                        if -net[root] != (n - 1) * u:
                            bad(root, int(-net[root]),
                                f"root net-out == {(n - 1) * u}")
                    elif op is CollectiveOp.SCATTERV:
                        shares = even_split(u, n)
                        net = inflow - outflow
                        for i in others:
                            if net[i] != shares[i]:
                                bad(i, int(net[i]),
                                    f"net delivery == {int(shares[i])}")
                        want = int(shares.sum() - shares[root])
                        if -net[root] != want:
                            bad(root, int(-net[root]), f"root net-out == {want}")
                    elif op is CollectiveOp.REDUCE:
                        for i in others:
                            if outflow[i] != u:
                                bad(i, int(outflow[i]), f"outflow == {u}")
                    elif op is CollectiveOp.GATHER:
                        net = outflow - inflow
                        for i in others:
                            if net[i] != u:
                                bad(i, int(net[i]), f"net contribution == {u}")
                        if -net[root] != (n - 1) * u:
                            bad(root, int(-net[root]),
                                f"root net-in == {(n - 1) * u}")
                    elif op is CollectiveOp.GATHERV:
                        net = outflow - inflow
                        want_root = int(nbytes.sum() - nbytes[root])
                        for i in others:
                            if net[i] != nbytes[i]:
                                bad(i, int(net[i]),
                                    f"net contribution == {int(nbytes[i])}")
                        if -net[root] != want_root:
                            bad(root, int(-net[root]),
                                f"root net-in == {want_root}")
                    elif op is CollectiveOp.ALLREDUCE:
                        floor = u - (u + n - 1) // n
                        for i in range(n):
                            if inflow[i] < floor or outflow[i] < floor:
                                bad(i, int(min(inflow[i], outflow[i])),
                                    f"in/outflow >= {floor}")
                    elif op in (CollectiveOp.ALLGATHER, CollectiveOp.ALLGATHERV):
                        floor = (n - 2) * u
                        for i in range(n):
                            if inflow[i] < floor:
                                bad(i, int(inflow[i]), f"inflow >= {floor}")
                    elif op is CollectiveOp.ALLTOALL:
                        for i in range(n):
                            if out_incl[i] != n * u:
                                bad(i, int(out_incl[i]),
                                    f"outflow incl self == {n * u}")
                    elif op in (CollectiveOp.ALLTOALLV, CollectiveOp.REDUCE_SCATTER):
                        want = int(even_split(u, n).sum())
                        for i in range(n):
                            if out_incl[i] != want:
                                bad(i, int(out_incl[i]),
                                    f"outflow incl self == {want}")
                    elif op in (CollectiveOp.SCAN, CollectiveOp.EXSCAN):
                        for i in range(n):
                            want = 0 if i == n - 1 else u
                            if outflow[i] != want:
                                bad(i, int(outflow[i]), f"outflow == {want}")
    return tuple(problems)


_LAW_CACHE: tuple[str, ...] | None = None


@invariant(
    "collective-byte-conservation",
    "Every collective-algorithm engine conserves collective bytes exactly",
    "collective -> p2p expansion, paper §4.4; repro.collectives",
)
def check_collective_byte_conservation(ctx: CheckContext) -> Iterator[Violation]:
    name = "collective-byte-conservation"
    global _LAW_CACHE
    if _LAW_CACHE is None:
        _LAW_CACHE = _collective_law_violations()
    for message in _LAW_CACHE:
        yield _err(name, message)
    # Scenario accounting: the scenario engine's expanded volume must be
    # exactly the collective mass of the full matrix — translate, the
    # matrix builder, and the volume accountant agree byte for byte.
    from ..collectives import collective_volume

    if ctx.full_matrix is None or ctx.p2p_matrix is None:
        return
    delta = ctx.full_matrix.total_bytes - ctx.p2p_matrix.total_bytes
    expected = collective_volume(ctx.trace, collective=ctx.collective)
    if delta != expected:
        yield _err(
            name,
            f"full-minus-p2p matrix mass is {delta} B but the "
            f"{ctx.collective!r} engine expands {expected} B of collectives",
        )


# ----------------------------------------------------------- critpath checks

#: Iteration clamp for the acyclicity check's DAG build — structure (and
#: hence acyclicity) is invariant under repeat truncation, so a small clamp
#: keeps the check cheap on the repeat-heavy transport apps.
DAG_CHECK_MAX_REPEAT = 4


@invariant(
    "critpath-matching",
    "Every p2p channel balances: sends equal receives in calls and bytes",
    "FIFO message matching; repro.critpath.match",
)
def check_critpath_matching(ctx: CheckContext) -> Iterator[Violation]:
    name = "critpath-matching"
    from ..critpath.match import channel_audit, ensure_receives

    audit = channel_audit(ensure_receives(ctx.trace))
    if not audit.balanced:
        bad = np.nonzero(
            (audit.send_calls != audit.recv_calls)
            | (audit.send_bytes != audit.recv_bytes)
        )[0]
        i = int(bad[0])
        yield _err(
            name,
            f"{bad.size} channel(s) unbalanced; first: "
            f"{audit.channel_label(i)} has {int(audit.send_calls[i])} "
            f"send(s) / {int(audit.send_bytes[i])} B vs "
            f"{int(audit.recv_calls[i])} recv(s) / "
            f"{int(audit.recv_bytes[i])} B",
        )
        return
    # Cross-layer conservation: per-(src, dst) matched byte totals must
    # equal the p2p traffic matrix exactly — the matcher and the matrix
    # builder read the same rows, so any disagreement is a lost message.
    m = ctx.p2p_matrix
    # Widened first: NumPy 1.x would keep narrow ranks times a scalar in
    # their own dtype, and the pair codes overflow it.
    codes = audit.src.astype(np.int64) * m.num_ranks + audit.dst
    order = np.argsort(codes, kind="stable")
    uniq, start = np.unique(codes[order], return_index=True)
    per_pair = np.add.reduceat(audit.send_bytes[order], start)
    matrix_codes = m.src.astype(np.int64) * m.num_ranks + m.dst
    if not (
        np.array_equal(uniq, matrix_codes)
        and np.array_equal(per_pair, m.nbytes)
    ):
        matched = dict(zip(uniq.tolist(), per_pair.tolist()))
        for s, d, b in zip(m.src, m.dst, m.nbytes):
            got = matched.pop(int(s) * m.num_ranks + int(d), 0)
            if got != int(b):
                yield _err(
                    name,
                    f"pair ({int(s)}, {int(d)}): matcher sees {got} B "
                    f"but the p2p matrix holds {int(b)} B",
                )
                return
        extra = next(iter(matched))
        yield _err(
            name,
            f"matcher sees traffic on pair "
            f"({extra // m.num_ranks}, {extra % m.num_ranks}) absent from "
            f"the p2p matrix",
        )


@invariant(
    "dag-acyclicity",
    "The happens-before graph of every scenario trace is a DAG",
    "Kahn elimination; repro.critpath.dag",
)
def check_dag_acyclicity(ctx: CheckContext) -> Iterator[Violation]:
    name = "dag-acyclicity"
    from ..cache import cached_critpath_dag
    from ..critpath.dag import CycleError
    from ..critpath.match import MatchError

    try:
        dag = cached_critpath_dag(
            ctx.trace,
            max_repeat=DAG_CHECK_MAX_REPEAT,
            collective=ctx.collective,
        )
        dag.assert_acyclic()
    except MatchError as exc:
        yield _err(name, f"matching failed before the DAG was built: {exc}")
        return
    except CycleError as exc:
        yield _err(name, str(exc))
        return
    if dag.num_events and not dag.num_edges:
        yield _err(
            name, "non-empty trace produced a DAG with no edges"
        )
