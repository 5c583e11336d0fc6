"""Seed-for-seed equivalence: batched NumPy kernel vs reference heap loop.

The batched engine (`repro.sim.engine.run_batched`) claims *bit-identical*
results to the per-event reference loop for any seed — including exact
float-time ties, which congestion makes common.  These tests pin that claim
across topologies, load regimes, and a real generated workload, plus the
first-order invariance of ``dynamic_utilization`` under ``volume_scale``.
A group of simulations run together (`repro.sim.engine.run_group`) must
give each member exactly its solo result and telemetry.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from helpers import make_matrix, spread_matrix

from repro.comm.matrix import matrix_from_trace
from repro.model.engine import BANDWIDTH_BYTES_PER_S
from repro.sim import simulate_network
from repro.sim.common import SimSetup, prepare_simulation
from repro.sim.engine import run_batched, run_group
from repro.sim.reference import run_reference
from repro.telemetry import TelemetryConfig, WindowedCollector, reports_equal
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D


def assert_bit_identical(a, b):
    """Every SimulationResult field exactly equal (no tolerance).

    Array-valued fields (per-link serve counts / link IDs) compare via
    np.array_equal; the telemetry report field has its own equality helper
    and is covered by tests/test_telemetry.py.
    """
    for f in dataclasses.fields(a):
        if f.name == "telemetry":
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert np.array_equal(va, vb), f"{f.name} differs"
        else:
            assert va == vb, f"{f.name}: {va!r} != {vb!r}"


TOPOLOGIES = [
    pytest.param(Torus3D((3, 3, 3)), id="torus3d"),
    pytest.param(FatTree(8, 3), id="fattree"),
    pytest.param(Dragonfly(4, 2, 2), id="dragonfly"),
]

# execution_time controls event density: 1.0 is sparse (reference regime),
# the short windows are dense and heavily congested (batched regime, where
# time ties on the service lattice stress the sequence-order tie-break).
REGIMES = [
    pytest.param(1.0, id="sparse"),
    pytest.param(5e-4, id="dense"),
    pytest.param(5e-5, id="congested"),
]


class TestBitEquivalence:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("execution_time", REGIMES)
    def test_engines_bit_identical(self, topology, execution_time):
        matrix = spread_matrix(27, seed=1)
        setup = prepare_simulation(
            matrix, topology, execution_time=execution_time, seed=3
        )
        assert setup is not None
        assert_bit_identical(run_reference(setup), run_batched(setup))

    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_seed_for_seed(self, seed):
        matrix = spread_matrix(27, seed=seed)
        setup = prepare_simulation(
            matrix, Dragonfly(4, 2, 2), execution_time=2e-4, seed=seed
        )
        assert_bit_identical(run_reference(setup), run_batched(setup))

    def test_volume_scale_paths_identical(self):
        matrix = spread_matrix(27, seed=2)
        for scale in (1.0, 4.0, 16.0):
            setup = prepare_simulation(
                matrix,
                FatTree(8, 3),
                execution_time=3e-4,
                volume_scale=scale,
                seed=5,
            )
            assert_bit_identical(run_reference(setup), run_batched(setup))

    def test_single_link_tie_storm(self):
        """All traffic through one link: maximum FIFO-tie pressure."""
        matrix = make_matrix(8, [(0, 1, 400 * 4096)])
        setup = prepare_simulation(
            matrix, Torus3D((2, 2, 2)), execution_time=1e-5, seed=11
        )
        assert_bit_identical(run_reference(setup), run_batched(setup))

    def test_real_workload(self, lulesh64_trace):
        matrix = matrix_from_trace(lulesh64_trace)
        setup = prepare_simulation(
            matrix,
            Torus3D((4, 4, 4)),
            execution_time=lulesh64_trace.meta.execution_time,
            volume_scale=64.0,
            seed=0,
        )
        assert_bit_identical(run_reference(setup), run_batched(setup))


class TestDispatch:
    def test_forced_engines_match_auto(self):
        matrix = spread_matrix(27, seed=4)
        kw = dict(execution_time=4e-4, seed=2)
        auto = simulate_network(matrix, FatTree(8, 3), engine="auto", **kw)
        batched = simulate_network(matrix, FatTree(8, 3), engine="batched", **kw)
        reference = simulate_network(matrix, FatTree(8, 3), engine="reference", **kw)
        assert_bit_identical(auto, batched)
        assert_bit_identical(auto, reference)

    def test_reference_entrypoint_matches(self):
        matrix = spread_matrix(27, seed=4)
        kw = dict(execution_time=4e-4, seed=2)
        a = simulate_network(matrix, Torus3D((3, 3, 3)), **kw)
        b = simulate_network(matrix, Torus3D((3, 3, 3)), engine="reference", **kw)
        assert_bit_identical(a, b)

    def test_unknown_engine_rejected(self):
        matrix = make_matrix(8, [(0, 1, 4096)])
        with pytest.raises(ValueError, match="engine"):
            simulate_network(matrix, Torus3D((2, 2, 2)), engine="warp")


class TestDegenerateConvention:
    def test_empty_simulation_reports_nan_inflation(self):
        r = simulate_network(make_matrix(8, []), Torus3D((2, 2, 2)))
        assert r.packets_simulated == 0
        assert math.isnan(r.makespan_inflation)
        assert r.dynamic_utilization == 0.0

    def test_self_traffic_only_reports_nan_inflation(self):
        r = simulate_network(make_matrix(8, [(3, 3, 10_000)]), Torus3D((2, 2, 2)))
        assert r.packets_simulated == 0
        assert math.isnan(r.makespan_inflation)

    def test_populated_simulation_has_finite_inflation(self):
        r = simulate_network(make_matrix(8, [(0, 1, 40 * 4096)]), Torus3D((2, 2, 2)))
        assert r.packets_simulated > 0
        assert math.isfinite(r.makespan_inflation)
        assert r.makespan_inflation >= 1.0


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the dev env
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestVolumeScaleInvariance:
    """volume_scale is a fluid-limit sampling knob: utilization is invariant
    to first order (each pair keeps >= 1 packet, so tiny pairs round up)."""

    @settings(max_examples=15, deadline=None)
    @given(
        scale=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_dynamic_utilization_first_order_invariant(self, scale, seed):
        # Large per-pair volumes so integer division loses < 2% per pair.
        rng = np.random.default_rng(7)
        pairs = [
            (src, int(dst), int(rng.integers(200, 400)) * 4096)
            for src in range(27)
            for dst in rng.choice(27, size=2, replace=False)
            if int(dst) != src
        ]
        matrix = make_matrix(27, pairs)
        base = simulate_network(
            matrix, Torus3D((3, 3, 3)), execution_time=2e-3, seed=seed
        )
        scaled = simulate_network(
            matrix,
            Torus3D((3, 3, 3)),
            execution_time=2e-3,
            volume_scale=float(scale),
            seed=seed,
        )
        assert base.packets_simulated > scaled.packets_simulated
        assert scaled.dynamic_utilization == pytest.approx(
            base.dynamic_utilization, rel=0.15
        )


# ------------------------------------------------------------ groups

#: Collector configuration of the group tests (few windows: the wide
#: member's report is links x windows).
GROUP_TELEMETRY = TelemetryConfig(windows=8)

_GROUP_TOPOLOGIES = {
    "torus3d": lambda: Torus3D((3, 3, 3)),
    "fattree": lambda: FatTree(8, 3),
    "dragonfly": lambda: Dragonfly(4, 2, 2),
}

#: Grid members: (topology, routing, bandwidth factor, execution time).
#: The two bandwidths give members different windows; the execution
#: times make members end far apart (and span the sparse/dense regimes).
_GRID_MEMBERS = [
    (topology, routing, factor, execution_time)
    for topology in _GROUP_TOPOLOGIES
    for routing in ("minimal", "valiant", "ugal")
    for factor in (1.0, 3.0)
    for execution_time in (2e-5, 3e-4, 4e-3)
]
_SPECIAL_MEMBERS = [("tenancy",), ("one-packet",), ("wide",)]
GROUP_MEMBERS = _GRID_MEMBERS + _SPECIAL_MEMBERS


def _wide_setup() -> SimSetup:
    """A synthetic member with more links than uint16 keys can name."""
    num_links = 70_000
    rng = np.random.default_rng(5)
    route_links = np.stack(
        [np.arange(num_links), rng.integers(0, num_links, num_links)], axis=1
    ).ravel()
    return SimSetup(
        total_packets=num_links,
        num_links=num_links,
        link_ids=np.arange(num_links, dtype=np.int64),
        route_links=route_links.astype(np.uint32),
        route_starts=np.arange(0, 2 * num_links, 2, dtype=np.int64),
        route_lens=np.full(num_links, 2, dtype=np.int64),
        pair_packets=np.ones(num_links, dtype=np.int64),
        pair_src=np.arange(num_links, dtype=np.int64),
        pair_dst=np.arange(1, num_links + 1, dtype=np.int64),
        inject_pair=np.arange(num_links, dtype=np.uint32),
        inject_time=rng.uniform(0.0, 2e-3, num_links),
        service=4096 / BANDWIDTH_BYTES_PER_S,
        hop_latency=100e-9,
        serve_counts=np.bincount(route_links, minlength=num_links),
        total_hops=2 * num_links,
    )


_setups: dict[tuple, SimSetup] = {}
_solo: dict[tuple, tuple] = {}


def _member_setup(key: tuple) -> SimSetup:
    if key not in _setups:
        if key == ("wide",):
            setup = _wide_setup()
        elif key == ("one-packet",):
            setup = prepare_simulation(
                make_matrix(8, [(0, 7, 4096)]), Torus3D((2, 2, 2)), seed=1
            )
        elif key == ("tenancy",):
            matrix = spread_matrix(27, seed=6)
            setup = prepare_simulation(
                matrix,
                Torus3D((3, 3, 3)),
                execution_time=3e-4,
                seed=4,
                job_of_rank=np.arange(27) % 3,
            )
            assert setup.pair_job is not None
        else:
            topology, routing, factor, execution_time = key
            setup = prepare_simulation(
                spread_matrix(27, seed=GROUP_MEMBERS.index(key)),
                _GROUP_TOPOLOGIES[topology](),
                execution_time=execution_time,
                bandwidth=BANDWIDTH_BYTES_PER_S * factor,
                seed=7,
                routing=routing,
                routing_seed=3,
            )
        _setups[key] = setup
    return _setups[key]


def _solo_results(key: tuple) -> tuple:
    """The member simulated alone: batched kernel and reference loop, the
    latter recording through the buffering oracle collector."""
    from oracles.telemetry import BufferedCollector

    if key not in _solo:
        setup = _member_setup(key)
        _solo[key] = (
            run_batched(setup, collector=WindowedCollector(GROUP_TELEMETRY)),
            run_reference(setup, collector=BufferedCollector(GROUP_TELEMETRY)),
        )
    return _solo[key]


def assert_group_matches_solo(keys) -> None:
    setups = [_member_setup(key) for key in keys]
    grouped = run_group(
        [(setup, WindowedCollector(GROUP_TELEMETRY)) for setup in setups]
    )
    assert len(grouped) == len(keys)
    for key, result in zip(keys, grouped):
        for alone in _solo_results(key):
            assert_bit_identical(result, alone)
            assert result.telemetry is not None
            assert reports_equal(result.telemetry, alone.telemetry), key
        if key == ("tenancy",):
            assert result.job_makespans is not None


class TestGroupEquivalence:
    """``run_group`` == each member alone == the reference loop."""

    def test_every_kind_of_member_in_one_group(self):
        keys = [
            ("torus3d", "minimal", 1.0, 2e-5),
            ("dragonfly", "ugal", 3.0, 4e-3),
            ("tenancy",),
            ("one-packet",),
            ("fattree", "valiant", 3.0, 3e-4),
            ("wide",),
        ]
        assert_group_matches_solo(keys)
        # The wide member pushes the group's link keys past uint16.
        assert sum(_member_setup(k).num_links for k in keys) > 65_536

    def test_a_setup_twice_in_one_group(self):
        key = ("fattree", "minimal", 1.0, 3e-4)
        assert_group_matches_solo([key, key])

    def test_one_member_group_is_run_batched(self):
        setup = _member_setup(("torus3d", "ugal", 1.0, 3e-4))
        (grouped,) = run_group([(setup, None)])
        assert_bit_identical(grouped, run_batched(setup))
        assert grouped.telemetry is None


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestGroupProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(st.sampled_from(GROUP_MEMBERS), min_size=1, max_size=6)
    )
    def test_random_group_matches_solo_and_reference(self, keys):
        assert_group_matches_solo(keys)
