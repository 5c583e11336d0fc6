"""Shared state of the dynamic-simulation engines.

Both engines — the reference per-event heap loop (:mod:`repro.sim.reference`)
and the batched NumPy kernel (:mod:`repro.sim.engine`) — consume one
:class:`SimSetup` built here, so they see *identical* inputs: the same
crossing-pair filter, the same deterministic routes, the same scaled packet
counts, and the same RNG draw for injection times.  That makes seed-for-seed
bit equality between the engines a property of the event-processing order
alone (which both define as FIFO per link, served by arrival time).

Structural observables are computed here once, because they do not depend on
event timing at all: every packet traverses every link of its pair's route
exactly once, so per-link service counts, total hops, used links, and total
busy time are pure functions of (routes x packet counts).  Both engines
share :func:`busy_total` so the float reduction order is identical too.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..telemetry.collector import TelemetryCollector, TelemetryReport

from ..cache import cached_route_incidence
from ..comm.matrix import CommMatrix
from ..core.packets import MAX_PAYLOAD_BYTES
from ..mapping.base import Mapping
from ..model.engine import BANDWIDTH_BYTES_PER_S
from ..topology.base import Topology, compact_ids

__all__ = [
    "SimulationResult",
    "SimSetup",
    "prepare_simulation",
    "empty_result",
    "assemble_result",
    "attach_telemetry",
]


@dataclass(frozen=True)
class SimulationResult:
    """Observables of one dynamic simulation run.

    Convention for degenerate runs: a simulation with no network-crossing
    packets returns all-zero counters (``packets_simulated == 0``), and the
    ratio properties return NaN rather than a misleading neutral value —
    ``makespan_inflation`` is *undefined* (not 1.0) when nothing was
    injected or the injection window is empty (e.g. a single packet).
    Check ``packets_simulated`` or use ``math.isnan`` before aggregating.
    """

    packets_simulated: int
    total_hops: int
    makespan: float  # last packet delivery time
    injection_window: float  # time span over which packets were injected
    link_busy_time_total: float
    used_links: int
    mean_queue_delay: float  # seconds a packet waited, averaged over packets
    p99_queue_delay: float
    max_queue_delay: float
    congested_packet_share: float  # packets that waited at least one service time
    #: Busy fraction of the single busiest link over the makespan (1.0 means
    #: some link served packets back to back for the whole run).
    peak_link_busy_fraction: float = 0.0
    #: Per-link observables in compact-link order (``link_ids[i]`` is the
    #: topology link that performed ``link_serve_counts[i]`` services).
    #: Arrays are excluded from ``==`` (compare them with np.array_equal);
    #: ``None`` on degenerate runs with no network traffic.
    link_ids: np.ndarray | None = field(default=None, compare=False, repr=False)
    link_serve_counts: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )
    #: Windowed telemetry (populated only when the run was instrumented via
    #: ``simulate_network(..., telemetry=...)``; ``None`` otherwise).
    telemetry: "TelemetryReport | None" = field(
        default=None, compare=False, repr=False
    )
    #: Per-job delivery makespans, ``float64[num_jobs]`` (populated only for
    #: composed workloads simulated with ``job_of_rank``; NaN for jobs that
    #: injected no crossing packets; ``None`` otherwise).
    job_makespans: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def dynamic_utilization(self) -> float:
        """Mean busy fraction of the used links over the makespan."""
        if not self.used_links or self.makespan <= 0:
            return 0.0
        return self.link_busy_time_total / (self.used_links * self.makespan)

    @property
    def makespan_inflation(self) -> float:
        """Makespan relative to the injection window (1.0 = no backlog).

        NaN when undefined: no packets were simulated, or all packets were
        injected at one instant (``injection_window == 0``).
        """
        if self.packets_simulated == 0 or self.injection_window <= 0:
            return float("nan")
        return self.makespan / self.injection_window


@dataclass(frozen=True)
class SimSetup:
    """Precomputed inputs shared by both simulation engines."""

    total_packets: int
    num_links: int  # compact link-index space (= used links, all are served)
    link_ids: np.ndarray  # int64[num_links]: compact index -> topology link ID
    #: uint[m]: compact link IDs, per-pair runs in hop order (the smallest
    #: unsigned dtype that holds ``num_links - 1``).
    route_links: np.ndarray
    route_starts: np.ndarray  # int64[num_pairs]
    route_lens: np.ndarray  # int64[num_pairs]
    pair_packets: np.ndarray  # int64[num_pairs]: scaled packets per pair
    pair_src: np.ndarray  # int64[num_pairs]: source node of each crossing pair
    pair_dst: np.ndarray  # int64[num_pairs]: destination node of each pair
    #: uint[total_packets]: each packet's pair (smallest unsigned dtype).
    inject_pair: np.ndarray
    inject_time: np.ndarray  # float64[total_packets]
    service: float  # seconds one packet occupies one link
    hop_latency: float
    serve_counts: np.ndarray  # int64[num_links]: services each link performs
    total_hops: int
    #: Owning job of each crossing pair (``int64[num_pairs]``, from the
    #: composer's ``job_of_rank`` table); ``None`` for solo runs.  Presence
    #: only adds per-job accounting — packet schedules are unaffected.
    pair_job: np.ndarray | None = None

    @property
    def injection_window(self) -> float:
        return float(self.inject_time.max() - self.inject_time.min())


def prepare_simulation(
    matrix: CommMatrix,
    topology: Topology,
    mapping: Mapping | None = None,
    execution_time: float = 1.0,
    bandwidth: float = BANDWIDTH_BYTES_PER_S,
    payload: int = MAX_PAYLOAD_BYTES,
    hop_latency: float = 100e-9,
    volume_scale: float = 1.0,
    max_packets: int = 2_000_000,
    seed: int = 0,
    routing: str = "minimal",
    routing_seed: int = 0,
    job_of_rank: np.ndarray | None = None,
) -> SimSetup | None:
    """Validate parameters and build the shared simulation state.

    Returns ``None`` when no packet crosses the network (the caller returns
    :func:`empty_result`).  Raises exactly as the original simulator did.
    ``routing`` selects the :mod:`repro.routing` policy whose routes the
    packets walk; both engines consume the resulting :class:`SimSetup`, so
    their seed-for-seed bit equality holds under every policy.

    ``job_of_rank`` (from :mod:`repro.tenancy`) tags each crossing pair with
    its owning job so the engines can report per-job makespans; it changes
    no route, injection time, or service decision.
    """
    if execution_time <= 0:
        raise ValueError("execution_time must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if volume_scale < 1.0:
        raise ValueError("volume_scale must be >= 1")
    if mapping is None:
        mapping = Mapping.consecutive(matrix.num_ranks, topology.num_nodes)

    src_n = mapping.node_of(matrix.src)
    dst_n = mapping.node_of(matrix.dst)
    crossing = src_n != dst_n
    src_n = src_n[crossing]
    dst_n = dst_n[crossing]
    pair_packets = matrix.packets[crossing].astype(np.int64)

    scaled = np.maximum(pair_packets // int(volume_scale), 1) if len(
        pair_packets
    ) else pair_packets
    total_packets = int(scaled.sum()) if len(scaled) else 0
    if total_packets == 0:
        return None
    if total_packets > max_packets:
        raise ValueError(
            f"{total_packets} packets exceed max_packets={max_packets}; "
            f"raise volume_scale (currently {volume_scale})"
        )

    # Per-pair routes as flat link-index runs, in traversal order.  The
    # load-aware policies adapt to the scaled per-pair packet counts — the
    # traffic the simulation actually injects.
    incidence = cached_route_incidence(
        topology,
        src_n,
        dst_n,
        routing=routing,
        seed=routing_seed,
        pair_weights=scaled,
    )
    order = np.argsort(incidence.pair_index, kind="stable")
    sorted_pairs = incidence.pair_index[order]
    sorted_links = incidence.link_id[order]
    pair_ids = np.arange(len(src_n))
    route_starts = np.searchsorted(sorted_pairs, pair_ids)
    route_ends = np.searchsorted(sorted_pairs, pair_ids, side="right")
    route_lens = route_ends - route_starts

    # Compact the opaque link IDs into a dense [0, num_links) index space so
    # engines can use flat arrays for per-link state.
    link_ids, route_links = compact_ids(sorted_links)
    route_links = route_links.astype(np.min_scalar_type(max(len(link_ids) - 1, 0)))

    # Structural observables: each packet serves each route link once, so
    # counts are (packets per pair) scattered over that pair's route links.
    # Counts stay below max_packets (~2e6), far inside float64's exact-int
    # range, so bincount's float weights lose nothing.
    serve_counts = np.bincount(
        route_links,
        weights=scaled[sorted_pairs].astype(np.float64),
        minlength=len(link_ids),
    ).astype(np.int64)
    total_hops = int(serve_counts.sum())

    service = payload / (bandwidth / volume_scale)
    rng = np.random.default_rng(seed)
    inject_pair = np.repeat(
        pair_ids.astype(np.min_scalar_type(max(len(pair_ids) - 1, 0))), scaled
    )
    inject_time = rng.uniform(0.0, execution_time, size=total_packets)

    pair_job = None
    if job_of_rank is not None:
        table = np.asarray(job_of_rank, dtype=np.int64)
        if table.shape != (matrix.num_ranks,):
            raise ValueError(
                f"job_of_rank must have shape ({matrix.num_ranks},), "
                f"got {table.shape}"
            )
        pair_job = table[matrix.src][crossing]

    return SimSetup(
        total_packets=total_packets,
        num_links=len(link_ids),
        link_ids=link_ids,
        route_links=route_links,
        route_starts=route_starts.astype(np.int64, copy=False),
        route_lens=route_lens.astype(np.int64, copy=False),
        pair_packets=scaled.astype(np.int64, copy=False),
        pair_src=src_n.astype(np.int64, copy=False),
        pair_dst=dst_n.astype(np.int64, copy=False),
        inject_pair=inject_pair,
        inject_time=inject_time,
        service=float(service),
        hop_latency=float(hop_latency),
        serve_counts=serve_counts,
        total_hops=total_hops,
        pair_job=pair_job,
    )


def empty_result() -> SimulationResult:
    """The all-zero result of a simulation with no network traffic."""
    return SimulationResult(0, 0, 0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0)


def busy_total(serve_counts: np.ndarray, service: float) -> float:
    """Total link busy time, reduced in canonical (compact link) order.

    Busy time per link is exactly ``count * service``; summing the per-link
    array in compact-index order makes the float reduction identical across
    engines regardless of the order links were first touched.
    """
    return float((serve_counts * service).sum())


def assemble_result(
    setup: SimSetup,
    wait: np.ndarray,
    delivered_at: np.ndarray,
    serve_counts: np.ndarray,
) -> SimulationResult:
    """Build the result from per-packet timings (identical in both engines)."""
    congested = float((wait >= setup.service).sum()) / setup.total_packets
    makespan = float(delivered_at.max())
    serve_counts = np.asarray(serve_counts, dtype=np.int64)
    peak = (
        float(serve_counts.max()) * setup.service / makespan
        if makespan > 0 and serve_counts.size
        else 0.0
    )
    job_makespans = None
    if setup.pair_job is not None:
        # Per-job delivery makespans: max delivered_at over each job's own
        # packets.  Jobs with no crossing packets report NaN, matching the
        # library-wide undefined-ratio convention.
        pkt_job = setup.pair_job[setup.inject_pair]
        num_jobs = int(setup.pair_job.max()) + 1
        job_makespans = np.zeros(num_jobs, dtype=np.float64)
        np.maximum.at(job_makespans, pkt_job, delivered_at)
        counts = np.bincount(pkt_job, minlength=num_jobs)
        job_makespans[counts == 0] = np.nan
    return SimulationResult(
        packets_simulated=setup.total_packets,
        total_hops=setup.total_hops,
        makespan=makespan,
        injection_window=setup.injection_window,
        link_busy_time_total=busy_total(serve_counts, setup.service),
        used_links=int((serve_counts > 0).sum()),
        mean_queue_delay=float(wait.mean()),
        p99_queue_delay=float(np.quantile(wait, 0.99)),
        max_queue_delay=float(wait.max()),
        congested_packet_share=congested,
        peak_link_busy_fraction=peak,
        link_ids=setup.link_ids,
        link_serve_counts=serve_counts,
        job_makespans=job_makespans,
    )


def attach_telemetry(
    result: SimulationResult,
    setup: SimSetup,
    collector: "TelemetryCollector | None",
    delivered_at: np.ndarray,
) -> SimulationResult:
    """Finalize an enabled collector and attach its report to the result.

    A ``None`` or disabled collector returns ``result`` unchanged, so the
    uninstrumented fast path costs one attribute check.
    """
    if collector is None or not collector.enabled:
        return result
    report = collector.finalize(setup, result, delivered_at)
    return dataclasses.replace(result, telemetry=report)
