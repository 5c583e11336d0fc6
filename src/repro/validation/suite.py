"""Run the invariant catalogue over the study grid (``repro check``).

One *scenario* is a (workload, topology, routing policy) triple; the suite
builds each scenario's :class:`~repro.validation.base.CheckContext` — trace,
matrices, route incidence, static analysis, and (optionally) a bounded
dynamic simulation with windowed telemetry — and runs every applicable
invariant against it.  A per-application disk-cache roundtrip scenario
exercises the cache invariants against a throwaway cache directory, never
the user's configured one.

Simulation cost is bounded by ``target_packets``: the suite picks the
smallest ``volume_scale`` that keeps the scaled packet count at or below
the target (the 1/k-volume-at-1/k-bandwidth sampling of
:mod:`repro.sim.engine`), so even the 38M-packet configurations check in
well under a second each.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

import numpy as np

from ..apps.registry import iter_configurations
from ..cache import cached_matrix, cached_route_incidence, cached_trace
from ..mapping.base import Mapping
from ..model.engine import _node_pair_aggregate, analyze_network
from ..routing import ROUTINGS
from ..topology.configs import TOPOLOGY_KINDS, build_topology
from .base import CheckContext, Violation, all_invariants, run_invariants

__all__ = [
    "TOPOLOGY_KINDS",
    "build_topology",
    "ScenarioResult",
    "SuiteReport",
    "build_static_context",
    "attach_simulation",
    "cache_roundtrip_context",
    "composed_context",
    "run_check_suite",
]

@dataclass
class ScenarioResult:
    """Outcome of one scenario: which checks ran, what they found."""

    label: str
    checks: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for v in self.violations if v.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for v in self.violations if v.severity == "warning")


@dataclass
class SuiteReport:
    """All scenario outcomes of one ``repro check`` run."""

    scenarios: list[ScenarioResult] = field(default_factory=list)

    @property
    def checks(self) -> int:
        return sum(s.checks for s in self.scenarios)

    @property
    def errors(self) -> int:
        return sum(s.errors for s in self.scenarios)

    @property
    def warnings(self) -> int:
        return sum(s.warnings for s in self.scenarios)

    def ok(self, strict: bool = False) -> bool:
        return self.errors == 0 and (not strict or self.warnings == 0)

    def render(self, verbose: bool = False) -> str:
        lines = []
        for s in self.scenarios:
            if s.violations:
                lines.append(f"{s.label}:")
                lines.extend(f"  {v}" for v in s.violations)
            elif verbose:
                lines.append(f"{s.label}: ok ({s.checks} checks)")
        lines.append(
            f"{len(self.scenarios)} scenarios, {self.checks} checks: "
            f"{self.errors} error(s), {self.warnings} warning(s)"
        )
        return "\n".join(lines)


def _applicable_count(ctx: CheckContext) -> int:
    return sum(1 for inv in all_invariants() if inv.applicable(ctx))


def build_static_context(
    trace,
    topology,
    routing: str = "minimal",
    routing_seed: int = 0,
    mapping: Mapping | None = None,
    collective: str = "flat",
) -> CheckContext:
    """Assemble the static artifacts of one scenario.

    The route incidence is requested with the same key
    :func:`repro.model.engine.analyze_network` uses (crossing node pairs,
    byte weights), so the two share one cached entry.  ``collective``
    selects the engine whose expansion fills the full matrix (labels only
    mention it when it is not the default ``flat``).
    """
    p2p_matrix = cached_matrix(trace, include_collectives=False)
    full_matrix = cached_matrix(trace, collective=collective)
    if mapping is None:
        mapping = Mapping.consecutive(full_matrix.num_ranks, topology.num_nodes)
    analysis = analyze_network(
        full_matrix,
        topology,
        mapping=mapping,
        execution_time=trace.meta.execution_time,
        routing=routing,
        routing_seed=routing_seed,
    )
    src_n, dst_n, nbytes, packets = _node_pair_aggregate(full_matrix, mapping)
    crossing = src_n != dst_n
    pair_src = src_n[crossing]
    pair_dst = dst_n[crossing]
    pair_bytes = nbytes[crossing]
    incidence = cached_route_incidence(
        topology,
        pair_src,
        pair_dst,
        routing=routing,
        seed=routing_seed,
        pair_weights=pair_bytes,
    )
    label = f"{trace.meta.label} on {topology.kind}/{routing}"
    if collective != "flat":
        label += f"/{collective}"
    return CheckContext(
        label=label,
        trace=trace,
        p2p_matrix=p2p_matrix,
        full_matrix=full_matrix,
        topology=topology,
        mapping=mapping,
        routing=routing,
        routing_seed=routing_seed,
        collective=collective,
        analysis=analysis,
        incidence=incidence,
        pair_src=pair_src,
        pair_dst=pair_dst,
        pair_bytes=pair_bytes,
        pair_packets=packets[crossing],
    )


def simulation_volume_scale(ctx: CheckContext, target_packets: int) -> float:
    """Smallest integer ``volume_scale`` keeping the run at/below target."""
    crossing_packets = int(ctx.pair_packets.sum()) if len(ctx.pair_packets) else 0
    if crossing_packets <= target_packets:
        return 1.0
    return float(-(-crossing_packets // target_packets))  # ceil division


def attach_simulation(
    ctx: CheckContext,
    target_packets: int = 20_000,
    windows: int = 12,
    engine: str = "auto",
    seed: int = 0,
) -> CheckContext:
    """Simulate the scenario (bounded by ``target_packets``) and attach
    the result + telemetry report to the context."""
    from ..sim.engine import simulate_network
    from ..telemetry import TelemetryConfig

    result = simulate_network(
        ctx.full_matrix,
        ctx.topology,
        mapping=ctx.mapping,
        execution_time=ctx.trace.meta.execution_time,
        volume_scale=simulation_volume_scale(ctx, target_packets),
        seed=seed,
        engine=engine,
        routing=ctx.routing,
        routing_seed=ctx.routing_seed,
        telemetry=TelemetryConfig(windows=windows),
    )
    ctx.sim = result
    ctx.telemetry = result.telemetry
    return ctx


def cache_roundtrip_context(
    app: str,
    ranks: int,
    variant: str = "",
    seed: int = 0,
    topology_kind: str = "torus3d",
) -> CheckContext:
    """Store-then-reload every cacheable artifact through a throwaway disk
    cache and collect (original, reloaded) pairs for the roundtrip check.

    The process-global cache configuration is restored afterwards; the
    in-memory tier is cleared so the reload pass genuinely reads from disk.
    """
    from .. import cache

    prev_disk = cache._disk_dir
    try:
        with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
            cache.configure(disk_dir=tmp)
            cache.clear(memory=True)
            trace = cached_trace(app, ranks, variant=variant, seed=seed)
            p2p = cached_matrix(trace, include_collectives=False)
            full = cached_matrix(trace)
            topology = build_topology(topology_kind, ranks)
            mapping = Mapping.consecutive(full.num_ranks, topology.num_nodes)
            src_n, dst_n, nbytes, _ = _node_pair_aggregate(full, mapping)
            crossing = src_n != dst_n
            inc = cached_route_incidence(
                topology, src_n[crossing], dst_n[crossing]
            )
            cache.clear(memory=True)  # force the second pass onto disk
            trace2 = cached_trace(app, ranks, variant=variant, seed=seed)
            p2p2 = cached_matrix(trace2, include_collectives=False)
            full2 = cached_matrix(trace2)
            inc2 = cached_route_incidence(
                topology, src_n[crossing], dst_n[crossing]
            )
            roundtrip = {
                "trace": (trace, trace2),
                "p2p_matrix": (p2p, p2p2),
                "full_matrix": (full, full2),
                "incidence": (inc, inc2),
            }
    finally:
        cache._disk_dir = prev_disk
        cache.clear(memory=True)
    label = f"{app}@{ranks}" + (f"/{variant}" if variant else "")
    return CheckContext(label=f"{label} cache roundtrip", roundtrip=roundtrip)


def composed_context(
    topology_kind: str = "torus3d",
    routing: str = "minimal",
    seed: int = 0,
    sim: bool = True,
    target_packets: int = 20_000,
    windows: int = 12,
) -> CheckContext:
    """One representative multi-tenant scenario for the composed checks.

    A Table-1 app co-scheduled with a hot-spot aggressor under the
    adversarial round-robin allocation — the placement that interleaves
    the tenants most aggressively, so a remapping bug cannot hide behind
    contiguous rank blocks.  The composite trace runs the full catalogue
    (static, sim, telemetry) plus the composed-byte-conservation check.
    """
    from ..tenancy import TenantSpec, compose_workload

    workload = compose_workload(
        [TenantSpec("LULESH", 64, seed=seed)],
        noise=[TenantSpec("HotspotNoise", 64, seed=seed)],
        allocation="round_robin",
    )
    topology = build_topology(topology_kind, workload.num_ranks)
    ctx = build_static_context(workload.trace, topology, routing=routing)
    ctx.label = f"composed {workload.trace.meta.label} on {topology.kind}/{routing}"
    ctx.composed = workload
    if sim:
        attach_simulation(
            ctx, target_packets=target_packets, windows=windows, seed=seed
        )
    return ctx


def run_check_suite(
    max_ranks: int | None = None,
    apps: tuple[str, ...] | None = None,
    topologies: tuple[str, ...] = TOPOLOGY_KINDS,
    routings: tuple[str, ...] | None = None,
    collectives: tuple[str, ...] = ("flat",),
    sim: bool = True,
    sim_routings: tuple[str, ...] | None = None,
    target_packets: int = 20_000,
    windows: int = 12,
    seed: int = 0,
    cache_roundtrip: bool = True,
    composed: bool = False,
    invariant_names: tuple[str, ...] | None = None,
    progress=None,
) -> SuiteReport:
    """Run the invariant catalogue over apps x topologies x routings.

    ``apps=None`` means every registered application; a tuple restricts
    the sweep to those names (unknown names are rejected).
    ``routings=None`` means every registered policy.  ``collectives``
    multiplies the grid by collective-algorithm engines, so every engine's
    expansion passes the same conservation catalogue (the default keeps
    the historical flat-only grid).  ``sim_routings``
    restricts which of those also get a (more expensive) dynamic
    simulation; ``None`` simulates them all, ``()`` simulates none.
    ``composed=True`` appends one multi-tenant scenario per topology kind
    (opt-in so the default grid — and its pinned scenario counts — stays
    unchanged).  ``progress`` is an optional callable receiving each
    scenario label before it runs (the CLI wires stderr echo through it).
    """
    if routings is None:
        routings = tuple(ROUTINGS)
    for routing in routings:
        if routing not in ROUTINGS:
            raise ValueError(
                f"unknown routing policy {routing!r}; known: {list(ROUTINGS)}"
            )
    if sim_routings is None:
        sim_routings = routings
    from ..collectives.registry import COLLECTIVES

    for collective in collectives:
        if collective not in COLLECTIVES:
            raise ValueError(
                f"unknown collective algorithm {collective!r}; "
                f"known: {list(COLLECTIVES)}"
            )
    if apps is not None:
        from ..apps.registry import APPS

        unknown = [a for a in apps if a not in APPS]
        if unknown:
            raise ValueError(
                f"unknown application(s) {unknown}; known: {list(APPS)}"
            )
    report = SuiteReport()

    for app, point in iter_configurations(max_ranks=max_ranks):
        if apps is not None and app.name not in apps:
            continue
        trace = cached_trace(
            app.name, point.ranks, variant=point.variant, seed=seed
        )
        for kind in topologies:
            topology = build_topology(kind, point.ranks)
            for routing in routings:
                for collective in collectives:
                    ctx = build_static_context(
                        trace, topology, routing=routing, collective=collective
                    )
                    if sim and routing in sim_routings:
                        attach_simulation(
                            ctx,
                            target_packets=target_packets,
                            windows=windows,
                            seed=seed,
                        )
                    if progress is not None:
                        progress(ctx.label)
                    violations = run_invariants(ctx, names=invariant_names)
                    report.scenarios.append(
                        ScenarioResult(
                            label=ctx.label,
                            checks=_applicable_count(ctx),
                            violations=violations,
                        )
                    )
        if cache_roundtrip:
            ctx = cache_roundtrip_context(
                app.name, point.ranks, variant=point.variant, seed=seed
            )
            if progress is not None:
                progress(ctx.label)
            violations = run_invariants(ctx, names=invariant_names)
            report.scenarios.append(
                ScenarioResult(
                    label=ctx.label,
                    checks=_applicable_count(ctx),
                    violations=violations,
                )
            )
    if composed:
        for kind in topologies:
            ctx = composed_context(
                topology_kind=kind,
                seed=seed,
                sim=sim,
                target_packets=target_packets,
                windows=windows,
            )
            if progress is not None:
                progress(ctx.label)
            violations = run_invariants(ctx, names=invariant_names)
            report.scenarios.append(
                ScenarioResult(
                    label=ctx.label,
                    checks=_applicable_count(ctx),
                    violations=violations,
                )
            )
    return report
