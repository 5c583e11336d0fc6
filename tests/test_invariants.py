"""The cross-layer validation package: registry, invariants, suite, fuzzing.

Four concerns:

1. **Registry** — the catalogue is complete, names are unique, unknown
   names are rejected, and applicability gating matches context contents.
2. **Detection power** — every invariant actually fires when its artifact
   is tampered with (a checker that never fails checks nothing).
3. **Tier-1 sweep** — the full catalogue holds over every application on
   all three topologies (static for every policy; with simulation and
   telemetry on the small configurations).
4. **Fuzz harness** — seeded draws are deterministic, the CI smoke seeds
   pass clean, and the shrinker reduces a failing case to the minimal
   still-failing configuration.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.routing.validate import walks_are_valid
from repro.topology.base import RouteIncidence
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D
from repro.validation import (
    REGISTRY,
    CheckContext,
    all_invariants,
    draw_case,
    invariant,
    run_check_suite,
    run_fuzz,
    run_invariants,
    shrink_case,
)
from repro.validation.fuzz import FuzzCase
from repro.validation.suite import attach_simulation, build_static_context

EXPECTED_INVARIANTS = {
    "trace-matrix-bytes",
    "link-volume-conservation",
    "route-walks",
    "hops-lower-bound",
    "eq5-utilization",
    "sim-structure",
    "telemetry-occupancy",
    "telemetry-flow",
    "cache-roundtrip",
    "streaming-equivalence",
    "composed-byte-conservation",
    "critpath-matching",
    "dag-acyclicity",
    "collective-byte-conservation",
}


@pytest.fixture(scope="module")
def small_ctx():
    """AMG@8 on a torus under minimal routing, with a bounded simulation."""
    trace = get_app("AMG").generate(8)
    ctx = build_static_context(trace, Torus3D((2, 2, 2)), routing="minimal")
    return attach_simulation(ctx, target_packets=4000, windows=6)


class TestRegistry:
    def test_catalogue_is_complete(self):
        assert {inv.name for inv in all_invariants()} == EXPECTED_INVARIANTS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            invariant("route-walks", "dup", "nowhere")(lambda ctx: iter(()))

    def test_unknown_name_rejected(self, small_ctx):
        with pytest.raises(ValueError):
            run_invariants(small_ctx, names=("no-such-invariant",))

    def test_applicability_gates_on_context_contents(self):
        empty = CheckContext(label="empty")
        assert not any(inv.applicable(empty) for inv in all_invariants())
        cache_only = CheckContext(label="rt", roundtrip={"x": (1, 1)})
        names = {
            inv.name for inv in all_invariants() if inv.applicable(cache_only)
        }
        assert names == {"cache-roundtrip"}

    def test_clean_scenario_passes_everything(self, small_ctx):
        assert run_invariants(small_ctx) == []


class TestDetection:
    """Each invariant fires when its artifact is corrupted."""

    def _names(self, violations):
        return {v.invariant for v in violations}

    def test_trace_matrix_bytes(self, small_ctx):
        broken = dataclasses.replace(small_ctx)
        nbytes = broken.p2p_matrix.nbytes.copy()
        nbytes[0] += 7
        broken.p2p_matrix = dataclasses.replace(broken.p2p_matrix, nbytes=nbytes)
        assert "trace-matrix-bytes" in self._names(run_invariants(broken))

    def test_dropped_incidence_rows(self, small_ctx):
        broken = dataclasses.replace(small_ctx)
        inc = broken.incidence
        broken.incidence = RouteIncidence(inc.pair_index[:-2], inc.link_id[:-2])
        names = self._names(run_invariants(broken))
        assert {"hops-lower-bound", "route-walks"} <= names

    def test_used_links_mismatch(self, small_ctx):
        broken = dataclasses.replace(small_ctx)
        broken.analysis = dataclasses.replace(
            broken.analysis, used_links=broken.analysis.used_links + 1
        )
        assert "link-volume-conservation" in self._names(run_invariants(broken))

    def test_understated_packet_hops(self, small_ctx):
        broken = dataclasses.replace(small_ctx)
        broken.analysis = dataclasses.replace(broken.analysis, packet_hops=0)
        assert "hops-lower-bound" in self._names(run_invariants(broken))

    def test_utilization_out_of_range(self, small_ctx):
        broken = dataclasses.replace(small_ctx)
        broken.analysis = dataclasses.replace(
            broken.analysis, execution_time=1e-300
        )
        assert "eq5-utilization" in self._names(run_invariants(broken))

    def test_sim_counter_mismatch(self, small_ctx):
        broken = dataclasses.replace(small_ctx)
        broken.sim = dataclasses.replace(
            broken.sim, total_hops=broken.sim.total_hops + 1
        )
        assert "sim-structure" in self._names(run_invariants(broken))

    def test_occupancy_over_capacity(self, small_ctx):
        broken = dataclasses.replace(small_ctx)
        occupancy = broken.telemetry.occupancy.copy()
        occupancy[0, 0] += 10 * broken.telemetry.window_dt
        broken.telemetry = dataclasses.replace(
            broken.telemetry, occupancy=occupancy
        )
        assert "telemetry-occupancy" in self._names(run_invariants(broken))

    def test_flow_leak(self, small_ctx):
        broken = dataclasses.replace(small_ctx)
        injections = broken.telemetry.injections.copy()
        injections[0] += 1
        broken.telemetry = dataclasses.replace(
            broken.telemetry, injections=injections
        )
        assert "telemetry-flow" in self._names(run_invariants(broken))

    def test_cache_roundtrip_mismatch(self, small_ctx):
        scaled = dataclasses.replace(
            small_ctx.full_matrix, nbytes=small_ctx.full_matrix.nbytes * 2
        )
        ctx = CheckContext(
            label="rt", roundtrip={"full_matrix": (small_ctx.full_matrix, scaled)}
        )
        assert self._names(run_invariants(ctx)) == {"cache-roundtrip"}


class TestDragonflyWalkBound:
    """Regression: Valiant can legitimately beat the direct 'minimal' route.

    For (a=6, h=3, p=3), nodes 6 -> 24 sit in groups 0 and 1 with neither
    endpoint router owning the direct global link's ports: the direct route
    needs 5 hops.  Routing through group 8 — whose gateway routers happen
    to align with both endpoints — yields a valid 4-hop walk.  So
    ``hops_array`` (the direct-route length) is NOT a walk lower bound;
    ``walk_hops_lower_bound`` is.
    """

    def test_direct_route_is_five_hops(self):
        topo = Dragonfly(6, 3, 3)
        assert topo.hops(6, 24) == 5

    def test_walk_bound_is_four_cross_group(self):
        topo = Dragonfly(6, 3, 3)
        src = np.array([6, 6, 6], dtype=np.int64)
        dst = np.array([24, 9, 6], dtype=np.int64)  # cross-group, local, self
        bound = topo.walk_hops_lower_bound(src, dst)
        assert bound.tolist() == [4, 3, 0]

    def test_four_hop_walk_exists(self):
        topo = Dragonfly(6, 3, 3)
        g = np.array([0], dtype=np.int64)
        links = np.array(
            [
                6,  # injection node link
                int(topo._global_link_id(g, g + 8)[0]),
                int(topo._global_link_id(g + 8, g + 1)[0]),
                24,  # ejection node link
            ],
            dtype=np.int64,
        )
        inc = RouteIncidence(np.zeros(4, dtype=np.int64), links)
        ok = walks_are_valid(
            topo,
            np.array([6], dtype=np.int64),
            np.array([24], dtype=np.int64),
            inc,
        )
        assert ok.tolist() == [True]

    def test_default_bound_equals_hops_array(self):
        for topo in (Torus3D((3, 3, 3)), FatTree(8, 3)):
            src = np.arange(8, dtype=np.int64)
            dst = (src + 5) % topo.num_nodes
            assert np.array_equal(
                topo.walk_hops_lower_bound(src, dst), topo.hops_array(src, dst)
            )


class TestSuite:
    def test_all_apps_static_all_policies(self):
        """Tier-1: every app on every topology under every routing policy."""
        report = run_check_suite(
            max_ranks=168, sim=False, cache_roundtrip=False
        )
        assert report.scenarios and report.ok(strict=True), report.render()

    def test_small_apps_with_simulation_and_cache(self):
        """Full catalogue — sims, telemetry, cache roundtrips — small end."""
        report = run_check_suite(
            max_ranks=27, target_packets=4000, windows=6
        )
        assert report.scenarios and report.ok(strict=True), report.render()
        # every invariant actually ran somewhere in the sweep
        assert report.checks >= len(EXPECTED_INVARIANTS) * len(report.scenarios) / 2

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError):
            run_check_suite(max_ranks=8, routings=("bogus",))

    def test_apps_filter(self):
        report = run_check_suite(
            apps=("CrystalRouter",),
            topologies=("torus3d",),
            routings=("minimal",),
            sim=False,
            cache_roundtrip=False,
        )
        assert report.scenarios
        assert all("CrystalRouter" in s.label for s in report.scenarios)

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            run_check_suite(apps=("NotAnApp",))

    def test_render_mentions_totals(self):
        report = run_check_suite(
            max_ranks=8,
            topologies=("torus3d",),
            routings=("minimal",),
            sim=False,
            cache_roundtrip=False,
        )
        assert "0 error(s)" in report.render().splitlines()[-1]


class TestFuzz:
    def test_draws_are_deterministic(self):
        assert draw_case(5) == draw_case(5)
        cases = {draw_case(s).minimal_tuple for s in range(12)}
        assert len(cases) > 1  # the pool is actually sampled

    def test_smoke_seeds_pass(self):
        report = run_fuzz(seeds=(0, 1), shrink_failures=False)
        assert report.ok, report.render()
        assert "2 case(s), 0 failure(s)" in report.render()

    def test_shrinker_finds_minimal_failing_case(self, monkeypatch):
        """With a planted bug in (dragonfly, valiant), the shrinker keeps
        those two dimensions and minimizes everything else."""
        from repro.validation import shrink as shrink_mod

        class FakeOutcome:
            def __init__(self, ok):
                self.ok = ok

        def fake_run_case(case, target_packets=8_000):
            fails = case.topology == "dragonfly" and case.routing == "valiant"
            return FakeOutcome(ok=not fails)

        monkeypatch.setattr(shrink_mod, "run_case", fake_run_case)
        start = FuzzCase(
            seed=99,
            app="LULESH",
            ranks=64,
            variant="",
            topology="dragonfly",
            routing="valiant",
            mapping="random",
            trace_seed=3,
            routing_seed=2,
            sim_seed=1,
        )
        minimal = shrink_case(start)
        assert minimal.topology == "dragonfly"
        assert minimal.routing == "valiant"
        assert minimal.mapping == "consecutive"
        assert (minimal.trace_seed, minimal.routing_seed, minimal.sim_seed) == (
            0,
            0,
            0,
        )
        assert minimal.ranks < start.ranks
