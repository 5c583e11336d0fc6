"""Differential fuzz harness: seeded random scenarios, diffed pairwise.

Every seed draws one :class:`FuzzCase` — a (workload, topology, mapping,
routing) configuration from the small end of the study grid — and drives it
through each pair of interchangeable implementations the package ships:

- **simulation engines**: batched NumPy kernel vs reference heap loop must
  agree on every observable and produce bitwise-equal telemetry;
- **cache tiers**: a cold compute vs a disk-cache reload must return the
  identical artifact;

and then runs the full invariant catalogue on the resulting context.  (The
trace front-end has one implementation in the package; its per-event
oracle lives in the test tree, and ``tests/test_columnar_equivalence.py``
diffs the two on every case of :data:`CI_SEEDS`.)  Any
difference or invariant error is a *discrepancy*; the harness reports it
together with a shrunken minimal reproducer (:mod:`.shrink`).

Determinism: a case is a pure function of its seed, so a failing seed is a
complete bug report.  CI runs a fixed seed set
(:data:`CI_SEEDS`) as a smoke test.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from ..apps.registry import get_app, iter_configurations
from ..mapping.base import Mapping
from ..routing import ROUTINGS
from ..telemetry import TelemetryConfig, reports_equal
from .base import run_invariants
from .invariants import incidences_identical, traces_identical
from .suite import (
    TOPOLOGY_KINDS,
    attach_simulation,
    build_static_context,
    build_topology,
    simulation_volume_scale,
)

__all__ = [
    "CI_SEEDS",
    "FuzzCase",
    "FuzzOutcome",
    "FuzzReport",
    "draw_case",
    "run_case",
    "run_fuzz",
]

#: The bounded CI smoke set (fixed, see .github/workflows/ci.yml).
CI_SEEDS = tuple(range(8))

#: Keep fuzz workloads small: every draw stays at or below this rank count,
#: so one case (two trace builds, two sims, a cache roundtrip) runs in well
#: under a second.
MAX_FUZZ_RANKS = 64

MAPPINGS = ("consecutive", "random")


@dataclass(frozen=True)
class FuzzCase:
    """One fully-determined fuzz scenario (a pure function of ``seed``)."""

    seed: int
    app: str
    ranks: int
    variant: str
    topology: str
    routing: str
    mapping: str
    trace_seed: int
    routing_seed: int
    sim_seed: int

    @property
    def minimal_tuple(self) -> tuple[str, int, str, str]:
        """The (app, ranks, topology, policy) identity the reporter shrinks."""
        return (self.app, self.ranks, self.topology, self.routing)

    def describe(self) -> str:
        label = f"{self.app}@{self.ranks}"
        if self.variant:
            label += f"/{self.variant}"
        return (
            f"seed {self.seed}: {label} on {self.topology}, "
            f"{self.routing} routing, {self.mapping} mapping"
        )


def case_pool(max_ranks: int = MAX_FUZZ_RANKS) -> list[tuple[str, int, str]]:
    """The (app, ranks, variant) configurations a fuzz draw picks from."""
    return [
        (app.name, point.ranks, point.variant)
        for app, point in iter_configurations(max_ranks=max_ranks)
    ]


def draw_case(seed: int, max_ranks: int = MAX_FUZZ_RANKS) -> FuzzCase:
    """Deterministically draw one case from ``seed``."""
    rng = np.random.default_rng(seed)
    pool = case_pool(max_ranks)
    app, ranks, variant = pool[int(rng.integers(len(pool)))]
    return FuzzCase(
        seed=seed,
        app=app,
        ranks=ranks,
        variant=variant,
        topology=TOPOLOGY_KINDS[int(rng.integers(len(TOPOLOGY_KINDS)))],
        routing=tuple(ROUTINGS)[int(rng.integers(len(ROUTINGS)))],
        mapping=MAPPINGS[int(rng.integers(len(MAPPINGS)))],
        trace_seed=int(rng.integers(4)),
        routing_seed=int(rng.integers(4)),
        sim_seed=int(rng.integers(4)),
    )


@dataclass
class FuzzOutcome:
    """Result of one case: empty ``discrepancies`` means it passed."""

    case: FuzzCase
    discrepancies: list[str] = field(default_factory=list)
    minimal: FuzzCase | None = None  # shrunken reproducer, failures only

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@dataclass
class FuzzReport:
    """All outcomes of one fuzz run."""

    outcomes: list[FuzzOutcome] = field(default_factory=list)

    @property
    def failures(self) -> list[FuzzOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = []
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "FAIL"
            lines.append(f"{outcome.case.describe()}: {status}")
            for d in outcome.discrepancies:
                lines.append(f"  {d}")
            if outcome.minimal is not None:
                app, ranks, topo, routing = outcome.minimal.minimal_tuple
                lines.append(
                    f"  minimal reproducer: ({app}, {ranks}, {topo}, "
                    f"{routing}) [seed {outcome.minimal.seed}]"
                )
        lines.append(
            f"{len(self.outcomes)} case(s), {len(self.failures)} failure(s)"
        )
        return "\n".join(lines)


def _sims_equal(a, b) -> list[str]:
    """Differences between two SimulationResult objects (empty if equal)."""
    diffs = []
    if a != b:  # scalar fields (arrays are compare=False)
        diffs.append("simulation scalar observables differ between engines")
    if not (
        np.array_equal(a.link_ids, b.link_ids)
        and np.array_equal(a.link_serve_counts, b.link_serve_counts)
    ):
        diffs.append("per-link serve counts differ between engines")
    if not reports_equal(a.telemetry, b.telemetry):
        diffs.append("telemetry reports are not bit-identical between engines")
    return diffs


def run_case(
    case: FuzzCase,
    target_packets: int = 8_000,
    windows: int = 8,
) -> FuzzOutcome:
    """Drive one case through every differential pair plus the invariants."""
    from .. import cache
    from ..sim.engine import simulate_network

    outcome = FuzzOutcome(case=case)
    app = get_app(case.app)

    trace = app.generate(case.ranks, variant=case.variant, seed=case.trace_seed)

    topology = build_topology(case.topology, case.ranks)
    if case.mapping == "random":
        mapping = Mapping.random(
            case.ranks, topology.num_nodes, seed=case.seed
        )
    else:
        mapping = Mapping.consecutive(case.ranks, topology.num_nodes)

    ctx = build_static_context(
        trace,
        topology,
        routing=case.routing,
        routing_seed=case.routing_seed,
        mapping=mapping,
    )

    # Engines: batched vs reference, identical seeds and telemetry.
    volume_scale = simulation_volume_scale(ctx, target_packets)
    sims = {}
    for engine in ("batched", "reference"):
        sims[engine] = simulate_network(
            ctx.full_matrix,
            topology,
            mapping=mapping,
            execution_time=trace.meta.execution_time,
            volume_scale=volume_scale,
            seed=case.sim_seed,
            engine=engine,
            routing=case.routing,
            routing_seed=case.routing_seed,
            telemetry=TelemetryConfig(windows=windows),
        )
    outcome.discrepancies.extend(
        _sims_equal(sims["batched"], sims["reference"])
    )
    ctx.sim = sims["batched"]
    ctx.telemetry = sims["batched"].telemetry

    # Cache: a cold compute vs a warm disk reload must return the identical
    # artifact (throwaway cache dir; global config restored afterwards).
    prev_disk = cache._disk_dir
    try:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            cache.configure(disk_dir=tmp)
            cache.clear(memory=True)
            cold_trace = cache.cached_trace(
                case.app, case.ranks, variant=case.variant, seed=case.trace_seed
            )
            cold_matrix = cache.cached_matrix(cold_trace)
            cold_inc = cache.cached_route_incidence(
                topology,
                ctx.pair_src,
                ctx.pair_dst,
                routing=case.routing,
                seed=case.routing_seed,
                pair_weights=ctx.pair_bytes,
            )
            cache.clear(memory=True)
            warm_trace = cache.cached_trace(
                case.app, case.ranks, variant=case.variant, seed=case.trace_seed
            )
            warm_matrix = cache.cached_matrix(warm_trace)
            warm_inc = cache.cached_route_incidence(
                topology,
                ctx.pair_src,
                ctx.pair_dst,
                routing=case.routing,
                seed=case.routing_seed,
                pair_weights=ctx.pair_bytes,
            )
            ctx.roundtrip = {
                "trace": (cold_trace, warm_trace),
                "full_matrix": (cold_matrix, warm_matrix),
                "incidence": (cold_inc, warm_inc),
            }
            if not traces_identical(trace, cold_trace):
                outcome.discrepancies.append(
                    "cached trace differs from directly generated trace"
                )
            if not incidences_identical(ctx.incidence, cold_inc):
                outcome.discrepancies.append(
                    "cached route incidence differs from direct computation"
                )
    finally:
        cache._disk_dir = prev_disk
        cache.clear(memory=True)

    # Finally, every registered invariant over the assembled context.
    for violation in run_invariants(ctx):
        if violation.severity == "error":
            outcome.discrepancies.append(str(violation))
    return outcome


def run_fuzz(
    seeds=CI_SEEDS,
    max_ranks: int = MAX_FUZZ_RANKS,
    target_packets: int = 8_000,
    shrink_failures: bool = True,
    progress=None,
) -> FuzzReport:
    """Run the harness over ``seeds``; shrink any failing case."""
    from .shrink import shrink_case

    report = FuzzReport()
    for seed in seeds:
        case = draw_case(int(seed), max_ranks=max_ranks)
        if progress is not None:
            progress(case.describe())
        outcome = run_case(case, target_packets=target_packets)
        if not outcome.ok and shrink_failures:
            outcome.minimal = shrink_case(
                case, target_packets=target_packets
            )
        report.outcomes.append(outcome)
    return report


def replay(case: FuzzCase, **overrides) -> FuzzOutcome:
    """Re-run a (possibly modified) case — the shrink loop's probe."""
    return run_case(replace(case, **overrides))
