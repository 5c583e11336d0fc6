"""Microbenchmarks of the library's hot kernels.

Unlike the table/figure benchmarks (run once, checked for shape), these are
true multi-round timing benchmarks for performance tracking: the vectorized
kernels every analysis is built on.  Regressions here multiply into every
experiment.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.registry import generate_trace
from repro.comm.matrix import CommMatrixBuilder, matrix_from_trace
from repro.core.packets import packets_for_bytes_array
from repro.metrics.selectivity import mean_selectivity_curve, selectivity
from repro.metrics.weighted import weighted_quantile
from repro.model.engine import analyze_network
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles.metrics import selectivity_reference  # noqa: E402

RNG = np.random.default_rng(0)
N_PAIRS = 1_000_000


@pytest.fixture(scope="module")
def torus():
    return Torus3D((12, 12, 12))


@pytest.fixture(scope="module")
def pairs(torus):
    n = torus.num_nodes
    return RNG.integers(0, n, N_PAIRS), RNG.integers(0, n, N_PAIRS)


@pytest.fixture(scope="module")
def lulesh_trace():
    return generate_trace("LULESH", 512)


class TestTopologyKernels:
    def test_torus_hops_1m_pairs(self, benchmark, torus, pairs):
        src, dst = pairs
        result = benchmark(torus.hops_array, src, dst)
        assert result.max() <= torus.diameter

    def test_fattree_hops_1m_pairs(self, benchmark, pairs):
        ft = FatTree(48, 3)
        src, dst = pairs
        result = benchmark(ft.hops_array, src % ft.num_nodes, dst % ft.num_nodes)
        assert result.max() <= 6

    def test_dragonfly_hops_1m_pairs(self, benchmark, pairs):
        df = Dragonfly(10, 5, 5)
        src, dst = pairs
        result = benchmark(df.hops_array, src % df.num_nodes, dst % df.num_nodes)
        assert result.max() <= 5

    def test_torus_route_incidence_100k_pairs(self, benchmark, torus, pairs):
        src, dst = pairs[0][:100_000], pairs[1][:100_000]
        inc = benchmark(torus.route_incidence, src, dst)
        assert inc.num_incidences > 0


class TestTrafficKernels:
    def test_packetization_1m(self, benchmark):
        sizes = RNG.integers(0, 10**6, N_PAIRS)
        result = benchmark(packets_for_bytes_array, sizes)
        assert result.min() >= 1

    def test_matrix_finalize_1m_entries(self, benchmark, pairs):
        src, dst = pairs

        def build():
            b = CommMatrixBuilder(1728)
            b.add_arrays(
                src, dst,
                np.full(N_PAIRS, 1000, dtype=np.int64),
                np.ones(N_PAIRS, dtype=np.int64),
                np.ones(N_PAIRS, dtype=np.int64),
            )
            return b.finalize()

        matrix = benchmark(build)
        assert matrix.total_messages == N_PAIRS

    def test_matrix_from_trace_lulesh512(self, benchmark, lulesh_trace):
        matrix = benchmark(matrix_from_trace, lulesh_trace)
        assert matrix.total_bytes > 0


class TestMetricKernels:
    def test_weighted_quantile_100k(self, benchmark):
        values = RNG.integers(1, 1728, 100_000).astype(float)
        weights = RNG.random(100_000)
        result = benchmark(weighted_quantile, values, weights, 0.9)
        assert 1 <= result <= 1728

    def test_mean_selectivity_curve_lulesh512(self, benchmark, lulesh_trace):
        matrix = matrix_from_trace(lulesh_trace, include_collectives=False)
        curve = benchmark(mean_selectivity_curve, matrix)
        assert curve[-1] == pytest.approx(1.0)

    def test_selectivity_lulesh512(self, benchmark, lulesh_trace):
        matrix = matrix_from_trace(lulesh_trace, include_collectives=False)
        value = benchmark(selectivity, matrix)
        assert value == selectivity_reference(matrix)


class TestEnginePipeline:
    def test_analyze_network_lulesh512(self, benchmark, lulesh_trace):
        matrix = matrix_from_trace(lulesh_trace)
        topo = Torus3D((8, 8, 8))
        result = benchmark(
            analyze_network, matrix, topo,
            execution_time=lulesh_trace.meta.execution_time,
        )
        assert result.packet_hops > 0
