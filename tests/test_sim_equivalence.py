"""Seed-for-seed equivalence: batched NumPy kernel vs reference heap loop.

The batched engine (`repro.sim.engine.run_batched`) claims *bit-identical*
results to the per-event reference loop for any seed — including exact
float-time ties, which congestion makes common.  These tests pin that claim
across topologies, load regimes, and a real generated workload, plus the
first-order invariance of ``dynamic_utilization`` under ``volume_scale``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from helpers import make_matrix, spread_matrix

from repro.comm.matrix import matrix_from_trace
from repro.sim import simulate_network, simulate_network_reference
from repro.sim.common import prepare_simulation
from repro.sim.engine import run_batched
from repro.sim.reference import run_reference
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
        b = simulate_network_reference(matrix, Torus3D((3, 3, 3)), **kw)
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
