"""The columnar front-end is bit-identical to the per-event reference.

Every registered application is generated twice — by ``generate`` (native
EventBlock arrays) and by the per-event emitter in ``tests/oracles/apps.py``
— at its two smallest calibrated scales, and every downstream artifact is
compared exactly: event streams, traffic matrices (both collective
settings), the §5 MPI-level metrics, Table-1 statistics, and optimized
mappings.  Every consumer reads blocks, so the reference artifacts are
rebuilt from the per-event trace through independent per-event code:
matrices through ``iter_send_groups`` → ``add_group``
(``tests/oracles/collectives.py``) and Table-1 rows through
``tests/oracles/stats.py``.  The same two diffs run on every case of the
differential fuzz harness's CI seed set.  The vectorized mapping kernels are
additionally pinned against their reference implementations on the same
matrices, and greedy mappings through the slot path against the reference
ordering placed by ``tests/oracles/mapping.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.apps import app_names, get_app
from repro.apps.patterns import biased_scattered_channels
from repro.collectives.translate import (
    TrafficClass,
    collective_volume,
    iter_send_batches,
)
from repro.comm.matrix import CommMatrixBuilder, matrix_from_trace
from repro.comm.stats import trace_stats
from repro.mapping.base import Mapping
from repro.mapping.optimized import (
    _symmetric_csr,
    greedy_ordering,
    optimize_mapping,
    refine_mapping,
)
from repro.metrics.locality import rank_distance, rank_locality
from repro.metrics.peers import peers_per_rank
from repro.metrics.selectivity import per_rank_selectivity
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D
from repro.validation.fuzz import CI_SEEDS, draw_case
from repro.validation.invariants import matrices_identical, traces_identical

from oracles.apps import biased_scattered_reference, emit_events
from oracles.collectives import add_group, iter_send_groups
from oracles.mapping import (
    greedy_ordering_reference,
    place_ordering,
    refine_mapping_reference,
    symmetric_weights,
)
from oracles.stats import trace_stats_per_event


def _two_smallest_scales() -> list[tuple[str, int]]:
    configs = []
    for name in app_names():
        for ranks in get_app(name).scales()[:2]:
            configs.append((name, ranks))
    return configs


CONFIGS = _two_smallest_scales()
SMALLEST = [(name, get_app(name).scales()[0]) for name in app_names()]


@lru_cache(maxsize=None)
def _pair(name: str, ranks: int, emit_receives: bool = False):
    app = get_app(name)
    legacy = emit_events(app, ranks, emit_receives=emit_receives)
    columnar = app.generate(ranks, emit_receives=emit_receives)
    return legacy, columnar


def _rebuilt_matrix(trace, include_collectives: bool = True):
    """``trace``'s matrix through the per-event expansion."""
    builder = CommMatrixBuilder(trace.meta.num_ranks)
    for classified in iter_send_groups(
        trace, include_collectives=include_collectives
    ):
        add_group(builder, classified.group)
    return builder.finalize()


@lru_cache(maxsize=None)
def _per_event_matrix(name: str, ranks: int, include_collectives: bool = True):
    """The per-event trace's matrix through the per-event expansion."""
    legacy, _ = _pair(name, ranks)
    return _rebuilt_matrix(legacy, include_collectives)


def _assert_matrices_identical(a, b):
    assert a.num_ranks == b.num_ranks
    for col in ("src", "dst", "nbytes", "messages", "packets"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("name,ranks", CONFIGS)
    def test_event_streams_identical(self, name, ranks):
        legacy, columnar = _pair(name, ranks)
        assert columnar.meta == legacy.meta
        assert columnar.events == legacy.events

    @pytest.mark.parametrize("name", [n for n in app_names()][:4])
    def test_event_streams_identical_with_receives(self, name):
        ranks = get_app(name).scales()[0]
        legacy, columnar = _pair(name, ranks, emit_receives=True)
        assert columnar.events == legacy.events


class TestFuzzFrontEnds:
    """The trace front-end diffs of every ``repro fuzz`` CI case."""

    @pytest.mark.parametrize("seed", CI_SEEDS)
    def test_generate_and_matrix_match_per_event(self, seed):
        case = draw_case(seed)
        app = get_app(case.app)
        kwargs = dict(variant=case.variant, seed=case.trace_seed)
        trace = app.generate(case.ranks, **kwargs)
        legacy = emit_events(app, case.ranks, **kwargs)
        assert traces_identical(trace, legacy), case.describe()
        assert matrices_identical(
            matrix_from_trace(trace), _rebuilt_matrix(legacy)
        ), case.describe()


class TestMatrixEquivalence:
    @pytest.mark.parametrize("name,ranks", CONFIGS)
    @pytest.mark.parametrize("include_collectives", [True, False])
    def test_matrices_bit_identical(self, name, ranks, include_collectives):
        a = _per_event_matrix(name, ranks, include_collectives)
        b = matrix_from_trace(
            _pair(name, ranks)[1], include_collectives=include_collectives
        )
        _assert_matrices_identical(a, b)

    @pytest.mark.parametrize("name,ranks", SMALLEST)
    def test_batches_aggregate_like_groups(self, name, ranks):
        """iter_send_batches carries the same messages as iter_send_groups."""
        legacy, columnar = _pair(name, ranks)
        for traffic_class in TrafficClass:
            group_bytes = sum(
                c.group.total_bytes
                for c in iter_send_groups(legacy)
                if c.traffic_class is traffic_class
            )
            group_msgs = sum(
                c.group.num_messages
                for c in iter_send_groups(legacy)
                if c.traffic_class is traffic_class
            )
            batch_bytes = sum(
                b.total_bytes
                for b in iter_send_batches(columnar)
                if b.traffic_class is traffic_class
            )
            batch_msgs = sum(
                b.num_messages
                for b in iter_send_batches(columnar)
                if b.traffic_class is traffic_class
            )
            assert batch_bytes == group_bytes
            assert batch_msgs == group_msgs


class TestMetricEquivalence:
    @pytest.mark.parametrize("name,ranks", SMALLEST)
    def test_locality_selectivity_peers_identical(self, name, ranks):
        a = _per_event_matrix(name, ranks, include_collectives=False)
        b = matrix_from_trace(_pair(name, ranks)[1], include_collectives=False)
        # equal_nan: all-collective apps (BigFFT) have empty p2p matrices,
        # whose locality metrics are NaN on both paths
        assert np.isclose(
            rank_locality(a), rank_locality(b), rtol=0, atol=0, equal_nan=True
        )
        assert np.isclose(
            rank_distance(a), rank_distance(b), rtol=0, atol=0, equal_nan=True
        )
        assert np.array_equal(peers_per_rank(a), peers_per_rank(b))
        assert per_rank_selectivity(a) == per_rank_selectivity(b)

    @pytest.mark.parametrize("name,ranks", SMALLEST)
    def test_trace_stats_identical(self, name, ranks):
        legacy, columnar = _pair(name, ranks)
        assert trace_stats(columnar) == trace_stats_per_event(legacy)
        assert collective_volume(columnar) == sum(
            c.group.total_bytes
            for c in iter_send_groups(legacy, include_p2p=False)
        )


class TestMappingEquivalence:
    @pytest.mark.parametrize("name,ranks", SMALLEST)
    def test_optimized_mapping_identical_across_storage(self, name, ranks):
        a = _per_event_matrix(name, ranks)
        b = matrix_from_trace(_pair(name, ranks)[1])
        topo = Torus3D((16, 8, 8))
        for method in ("greedy", "bisection"):
            ma = optimize_mapping(a, topo, method=method, ranks_per_node=2, refine=True)
            mb = optimize_mapping(b, topo, method=method, ranks_per_node=2, refine=True)
            assert np.array_equal(ma.nodes, mb.nodes), method

    @pytest.mark.parametrize("name,ranks", SMALLEST)
    def test_vectorized_kernels_match_reference(self, name, ranks):
        _, columnar = _pair(name, ranks)
        m = matrix_from_trace(columnar)

        indptr, indices, weights = _symmetric_csr(m)
        adj = symmetric_weights(m)
        for u in range(m.num_ranks):
            lo, hi = indptr[u], indptr[u + 1]
            assert (
                list(zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()))
                == adj.get(u, [])
            )

        reference_order = greedy_ordering_reference(m)
        assert np.array_equal(greedy_ordering(m), reference_order)

        topo = FatTree(radix=48, stages=2)
        for placed_on in (topo, Torus3D((16, 8, 8))):
            for ranks_per_node in (1, 2):
                slot_path = optimize_mapping(
                    m, placed_on, method="greedy", ranks_per_node=ranks_per_node
                )
                expected = place_ordering(reference_order, placed_on, ranks_per_node)
                assert np.array_equal(slot_path.nodes, expected.nodes)

        base = Mapping.consecutive(m.num_ranks, topo.num_nodes, 1)
        fast = refine_mapping(m, topo, base, seed=0)
        slow = refine_mapping_reference(m, topo, base, seed=0)
        assert np.array_equal(fast.nodes, slow.nodes)


class TestScatterPatternEquivalence:
    @pytest.mark.parametrize(
        "num_ranks,ppr,distance,max_offset,bit_generator",
        [
            (64, 6, "uniform", None, np.random.PCG64),
            (64, 6, "loguniform", None, np.random.PCG64),
            (216, 12, "quadratic", None, np.random.PCG64),
            (216, 12, "loguniform", 8, np.random.PCG64),
            (100, 3, "uniform", 2, np.random.PCG64),  # tight window: duplicates dominate
            (216, 12, "loguniform", 8, np.random.PCG64DXSM),
            # advance() counts 4-output blocks, not doubles: rejected
            (216, 12, "loguniform", 8, np.random.Philox),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_vectorized_sampler_matches_reference(
        self, num_ranks, ppr, distance, max_offset, bit_generator
    ):
        """Same channels AND the same post-call rng state as the reference."""
        max_off = (
            num_ranks - 1 if max_offset is None else min(max_offset, num_ranks - 1)
        )
        partner_w = np.full(min(ppr, num_ranks - 1), 1.0)

        rng_fast = np.random.Generator(bit_generator(12345))
        if bit_generator is np.random.Philox:
            with pytest.raises(ValueError, match="got Philox"):
                biased_scattered_channels(
                    num_ranks, ppr, rng_fast, distance=distance, max_offset=max_offset
                )
            return
        fast = biased_scattered_channels(
            num_ranks, ppr, rng_fast, distance=distance, max_offset=max_offset
        )
        rng_ref = np.random.Generator(bit_generator(12345))
        ref = biased_scattered_reference(
            num_ranks, min(ppr, num_ranks - 1), rng_ref, distance, partner_w,
            1.0, max_off,
        )
        assert np.array_equal(fast.src, ref.src)
        assert np.array_equal(fast.dst, ref.dst)
        assert np.array_equal(fast.weight, ref.weight)
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
