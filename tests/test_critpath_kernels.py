"""The critical-path kernels against their oracles in ``tests/oracles``.

The flat level schedule must equal the per-frontier schedule node for node
and edge for edge, and the fused complex longest-path DP must equal a
plain per-node Python DP to the bit — makespan and L-term count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import generate_trace, iter_configurations
from repro.collectives.registry import COLLECTIVES
from repro.critpath import analyze
from repro.critpath import cost as cost_model
from repro.critpath import (
    CycleError,
    HappensBeforeDag,
    LogGPParams,
    build_dag,
    critical_path,
    edge_costs,
)

from oracles.critpath import frontier_level_schedule, longest_path_reference


#: Apps whose smallest configuration (168 ranks) unrolls to ~1M DAG nodes
#: in ~1M Kahn levels at clamp 64: the per-frontier oracle needs minutes
#: and gigabytes there, so they are compared at clamp 16 only.
_CLAMP16_ONLY = {"PARTISN", "SNAP"}


def _schedule_grid() -> list[tuple[str, int, int]]:
    smallest: dict[str, int] = {}
    for app, point in iter_configurations():
        smallest[app.name] = min(smallest.get(app.name, point.ranks), point.ranks)
    return [
        (app, ranks, max_repeat)
        for app, ranks in sorted(smallest.items())
        for max_repeat in (16, 64)
        if not (max_repeat == 64 and app in _CLAMP16_ONLY)
    ]


def _ptr(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(([0], np.cumsum([len(p) for p in parts]))).astype(np.int64)


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def assert_schedule_matches_oracle(dag: HappensBeforeDag) -> None:
    flat = dag.level_schedule()
    ref = frontier_level_schedule(dag)
    assert flat.num_levels == ref.num_levels
    np.testing.assert_array_equal(flat.level_ptr, _ptr(ref.levels))
    np.testing.assert_array_equal(flat.edge_ptr, _ptr(ref.pred_eidx))
    np.testing.assert_array_equal(flat.order, _cat(ref.levels))
    np.testing.assert_array_equal(flat.pred_eidx, _cat(ref.pred_eidx))
    np.testing.assert_array_equal(flat.starts, _cat(ref.starts))
    np.testing.assert_array_equal(flat.counts, _cat(ref.counts))


def _graph(num_nodes: int, src: list[int], dst: list[int]) -> HappensBeforeDag:
    return HappensBeforeDag(
        num_nodes=num_nodes,
        num_events=num_nodes,
        num_ranks=1,
        node_rank=np.zeros(num_nodes, dtype=np.int64),
        completion_of=np.full(num_nodes, -1, dtype=np.int64),
        edge_src=np.array(src, dtype=np.int64),
        edge_dst=np.array(dst, dtype=np.int64),
        edge_bytes=np.zeros(len(src), dtype=np.int64),
        edge_kind=np.ones(len(src), dtype=np.uint8),
    )


class TestLevelSchedule:
    @pytest.mark.parametrize("app,ranks,max_repeat", _schedule_grid())
    def test_flat_schedule_equals_frontier_oracle(self, app, ranks, max_repeat):
        # Tree engines reshape the DAG, so every engine gets its own check.
        trace = generate_trace(app, ranks)
        for collective in COLLECTIVES:
            assert_schedule_matches_oracle(build_dag(trace, max_repeat, collective))

    def test_hand_built_graphs(self):
        # Diamond with a multi-edge and a long side chain: levels come from
        # the longest chain, not the first arrival.
        assert_schedule_matches_oracle(
            _graph(6, [0, 0, 1, 2, 2, 0, 4, 5], [1, 2, 3, 3, 3, 4, 5, 3])
        )
        assert_schedule_matches_oracle(_graph(3, [], []))
        assert_schedule_matches_oracle(_graph(0, [], []))

    def test_cycle_error_text_matches_oracle(self):
        # 0 -> 1 -> {2 <-> 3} -> 4: three nodes never become ready.
        dag = _graph(5, [0, 1, 2, 3, 3], [1, 2, 3, 2, 4])
        with pytest.raises(CycleError) as ref:
            frontier_level_schedule(dag)
        with pytest.raises(CycleError) as got:
            dag.level_schedule()
        assert str(got.value) == str(ref.value)
        assert "3 of 5 nodes" in str(got.value)
        assert "(e.g. nodes [2, 3, 4])" in str(got.value)


class TestCriticalPathDp:
    APPS = (("AMG", 8), ("CMC_2D", 64), ("MiniFE", 18), ("LULESH", 64))

    def _check(self, dag, cost, lterm) -> None:
        got = critical_path(dag, cost, lterm)
        makespan, l_terms = longest_path_reference(dag, cost, lterm)
        assert got.makespan_s.hex() == makespan.hex()
        assert got.l_terms == l_terms

    @pytest.mark.parametrize("app,ranks", APPS)
    @pytest.mark.parametrize("collective", ["flat", "binomial"])
    def test_matches_per_node_oracle(self, app, ranks, collective):
        dag = build_dag(generate_trace(app, ranks), 16, collective)
        rng = np.random.default_rng(ranks)
        hops = rng.integers(0, 9, size=dag.num_edges)
        non_dyadic = LogGPParams(
            latency_s=1.7e-6,
            overhead_s=0.3e-6,
            gap_s=0.11e-6,
            gap_per_byte_s=1.0 / 12e9,
            hop_s=0.07e-6,
        )
        for params in (LogGPParams(), non_dyadic):
            for h in (None, hops):
                self._check(dag, *edge_costs(dag, params, h))

    @pytest.mark.parametrize("app,ranks", APPS)
    def test_seven_edge_chunks_match_oracle(self, app, ranks, monkeypatch):
        # A 7-edge DP window ends inside nearly every run of levels, and
        # any level wider than 7 edges gets a window of its own.
        dag = build_dag(generate_trace(app, ranks), 16)
        hops = np.random.default_rng(ranks).integers(0, 9, size=dag.num_edges)
        whole = [edge_costs(dag, LogGPParams(), h) for h in (None, hops)]
        monkeypatch.setattr(analyze, "EDGE_CHUNK", 7)
        monkeypatch.setattr(cost_model, "EDGE_CHUNK", 7)
        for h, (cost_whole, lterm_whole) in zip((None, hops), whole):
            costs, lterm = edge_costs(dag, LogGPParams(), h)
            assert costs.tobytes() == cost_whole.tobytes()
            np.testing.assert_array_equal(lterm, lterm_whole)
            self._check(dag, costs, lterm)

    def test_tie_prefers_more_latency_terms(self):
        # 0 -> 3 directly (cost 2, one L) or via 1 (1 + 1, two L).  Both
        # edge orders into node 3 must pick the two-L path.
        for src, dst in (([0, 0, 1], [3, 1, 3]), ([0, 1, 0], [1, 3, 3])):
            dag = _graph(4, src, dst)
            cost = np.array([2.0 if (s, d) == (0, 3) else 1.0 for s, d in zip(src, dst)])
            lterm = np.ones(3, dtype=np.int64)
            got = critical_path(dag, cost, lterm)
            assert got.makespan_s == 2.0
            assert got.l_terms == 2
            self._check(dag, cost, lterm)

    def test_empty_dag(self):
        dag = _graph(0, [], [])
        assert critical_path(dag, np.zeros(0), np.zeros(0, dtype=np.int64)).l_terms == 0


def test_numpy_complex_maximum_is_lexicographic():
    """The fused DP relies on NumPy ordering complex128 lexicographically.

    ``np.maximum.reduceat`` must take the larger real part, and on a
    bit-equal real part the larger imaginary part, whatever the position
    of the winner within its group.
    """
    z = np.array(
        [1 + 5j, 2 + 0j, 2 + 1j, 3 + 0j, 3 + 9j, 3 + 2j, 0.5 + 7j, 4 + 1j, 4 + 0j],
        dtype=np.complex128,
    )
    got = np.maximum.reduceat(z, np.array([0, 3, 6]))
    np.testing.assert_array_equal(got, np.array([2 + 1j, 3 + 9j, 4 + 1j]))
    assert np.maximum(2 + 1j, 1 + 99j) == 2 + 1j
    assert np.maximum(2 + 1j, 2 + 3j) == 2 + 3j
    assert np.array([1 + 2j, 1 + 3j, 0 + 9j]).max() == 1 + 3j
