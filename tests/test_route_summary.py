"""Route summaries: the static model's only routing input.

A :class:`~repro.routing.summary.RouteSummary` keeps each pair's hop count,
the used-link count and the dragonfly global-link flags of a route query.
Pinned here:

- a summary equals what the route rows give, on every topology kind and
  every policy, empty queries included, in the smallest unsigned dtype;
- ``analyze_network`` and ``message_edge_hops`` are bitwise equal to their
  row-reading forms in ``tests/oracles/model.py`` (closed-form hop counts
  and ``crosses_groups`` under minimal routing) on the registry;
- the model keeps no route rows, reuses rows the simulator stored without
  walking again, and a sim-first sweep walks no more routes than the
  model-first order did.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.model import analyze_network_reference, message_edge_hops_reference

from repro import cache
from repro.analysis.sweep import SweepSpec, run_sweep
from repro.apps.registry import iter_configurations
from repro.cache import cached_matrix, cached_route_incidence, cached_route_summary
from repro.critpath.cost import message_edge_hops
from repro.mapping.base import Mapping
from repro.model.engine import analyze_network
from repro.routing import _POLICIES, ROUTINGS, get_policy
from repro.routing.summary import summarize_routes
from repro.topology.base import RouteIncidence
from repro.topology.configs import TOPOLOGY_KINDS, build_topology
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D

TOPOLOGIES = (Torus3D((3, 3, 2)), Mesh3D((3, 2, 2)), FatTree(4, 3), Dragonfly(4, 2, 2))

MODEL_ROUTINGS = ("minimal", "ecmp", "valiant", "ugal")


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache.configure(disable_disk=True)
    cache.clear()
    yield
    cache.clear()


def _expected(topology, src, dst, routing, seed, weights):
    """Hop counts, used links and global flags read off the route rows."""
    rows = get_policy(routing, seed=seed).route_incidence(
        topology, src, dst, pair_weights=weights
    )
    hops = np.zeros(len(src), dtype=np.int64)
    for pair in rows.pair_index:
        hops[pair] += 1
    flags = None
    if isinstance(topology, Dragonfly):
        flags = np.zeros(len(src), dtype=bool)
        for pair, link in zip(rows.pair_index, rows.link_id):
            flags[pair] |= bool(topology.is_global_link(np.array([link]))[0])
    return hops, len(set(rows.link_id.tolist())), flags


def _assert_summary(summary, hops, used, flags):
    assert summary.used_links == used
    assert summary.pair_hops.dtype.kind == "u"
    assert summary.pair_hops.dtype == np.min_scalar_type(int(hops.max(initial=0)))
    assert np.array_equal(summary.pair_hops, hops)
    if flags is None:
        assert summary.pair_global is None
    else:
        assert summary.pair_global.dtype == bool
        assert np.array_equal(summary.pair_global, flags)


class TestSummaryMatchesRows:
    @settings(max_examples=25, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        routing=st.sampled_from(ROUTINGS),
        seed=st.integers(0, 3),
        data=st.data(),
    )
    def test_hypothesis_pairs(self, topology, routing, seed, data):
        n = data.draw(st.integers(0, 40))
        nodes = st.integers(0, topology.num_nodes - 1)
        src = np.array(data.draw(st.lists(nodes, min_size=n, max_size=n)), np.int64)
        dst = np.array(data.draw(st.lists(nodes, min_size=n, max_size=n)), np.int64)
        weights = np.arange(1, n + 1, dtype=np.float64)
        cache.clear()
        summary = cached_route_summary(
            topology, src, dst, routing=routing, seed=seed, pair_weights=weights
        )
        _assert_summary(summary, *_expected(topology, src, dst, routing, seed, weights))

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.kind)
    def test_empty_query(self, topology):
        empty = np.zeros(0, dtype=np.int64)
        summary = cached_route_summary(topology, empty, empty)
        assert summary.used_links == 0
        assert summary.pair_hops.dtype == np.uint8 and len(summary.pair_hops) == 0
        if isinstance(topology, Dragonfly):
            assert len(summary.pair_global) == 0

    @pytest.mark.parametrize(
        "longest,dtype", [(0, np.uint8), (255, np.uint8), (256, np.uint16),
                          (70_000, np.uint32)],
    )
    def test_dtype_bound(self, longest, dtype):
        """The hop dtype is the smallest unsigned one holding the longest route."""
        rows = RouteIncidence(
            np.concatenate([np.zeros(longest, np.int64), np.ones(2, np.int64)]),
            np.arange(longest + 2, dtype=np.int64),
        )
        summary = summarize_routes(rows, 3, Torus3D((3, 3, 3)))
        assert summary.pair_hops.dtype == dtype
        assert summary.pair_hops.tolist() == [longest, 2, 0]
        assert summary.used_links == longest + 2


def _registry():
    return [
        (app.name, point.ranks, point.variant)
        for app, point in iter_configurations(max_ranks=256)
    ]


class TestModelMatchesOracle:
    """Bitwise equality with the row-reading model on the registry."""

    @pytest.mark.parametrize("app,ranks,variant", _registry())
    def test_analyze_network(self, app, ranks, variant):
        trace = cache.cached_trace(app, ranks, variant=variant)
        matrix = cached_matrix(trace)
        for kind in TOPOLOGY_KINDS:
            topology = build_topology(kind, ranks)
            greedy = cache.cached_mapping(matrix, topology, "greedy")
            for mapping, routing in itertools.product((None, greedy), MODEL_ROUTINGS):
                kwargs = dict(
                    mapping=mapping,
                    execution_time=trace.meta.execution_time,
                    routing=routing,
                    routing_seed=ranks % 5,
                )
                got = analyze_network(matrix, topology, **kwargs)
                want = analyze_network_reference(matrix, topology, **kwargs)
                assert dataclasses.astuple(got) == dataclasses.astuple(want)

    @pytest.mark.parametrize("app,ranks,variant", _registry())
    def test_message_edge_hops(self, app, ranks, variant):
        trace = cache.cached_trace(app, ranks, variant=variant)
        dag = cache.cached_critpath_dag(trace, max_repeat=2)
        for kind in TOPOLOGY_KINDS:
            topology = build_topology(kind, ranks)
            mapping = Mapping.consecutive(ranks, topology.num_nodes)
            for routing in MODEL_ROUTINGS:
                got = message_edge_hops(dag, topology, mapping, routing, 3)
                want = message_edge_hops_reference(dag, topology, mapping, routing, 3)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


class _WalkCounter:
    """Counts ``route_incidence`` calls on every registered policy class."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for cls in _POLICIES.values():
            monkeypatch.setattr(cls, "route_incidence", self._counting(cls))

    def _counting(self, cls):
        original = cls.route_incidence

        def route_incidence(policy, *args, **kwargs):
            self.calls += 1
            return original(policy, *args, **kwargs)

        return route_incidence


def _spec(**kwargs):
    return SweepSpec(
        apps=(("LULESH", 64),),
        topologies=TOPOLOGY_KINDS,
        routings=("minimal", "valiant", "ugal"),
        **kwargs,
    )


class TestRowsKeptOnlyForRowReaders:
    def test_model_only_sweep_keeps_no_rows(self):
        run_sweep(_spec(mappings=("consecutive", "greedy")), workers=1)
        held = cache.memory()
        assert held["incidence"]["entries"] == 0
        assert held["summary"]["entries"] > 0
        assert cache.stats()["summary"]["misses"] == held["summary"]["entries"]

    def test_summary_from_stored_rows_walks_nothing(self, monkeypatch):
        topology = Dragonfly(4, 2, 2)
        src = np.arange(30, dtype=np.int64)
        dst = (src * 7 + 3) % topology.num_nodes
        rows = cached_route_incidence(topology, src, dst, routing="valiant", seed=2)
        walks = _WalkCounter(monkeypatch)
        summary = cached_route_summary(topology, src, dst, routing="valiant", seed=2)
        assert walks.calls == 0
        _assert_summary(
            summary, *_expected(topology, src, dst, "valiant", 2, None)
        )
        assert summary.used_links == len(np.unique(rows.link_id))

    def test_disk_round_trip(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        topology = Dragonfly(4, 2, 2)
        src = np.arange(30, dtype=np.int64)
        dst = (src * 5 + 1) % topology.num_nodes
        first = cached_route_summary(topology, src, dst, routing="ugal",
                                     pair_weights=np.ones(30))
        cache.clear(memory=True)
        again = cached_route_summary(topology, src, dst, routing="ugal",
                                     pair_weights=np.ones(30))
        assert cache.stats()["summary"] == {"hits": 0, "misses": 1, "disk_hits": 1}
        assert again.used_links == first.used_links
        assert again.pair_hops.dtype == first.pair_hops.dtype
        assert np.array_equal(again.pair_hops, first.pair_hops)
        assert np.array_equal(again.pair_global, first.pair_global)

    def test_sim_first_sweep_walks_as_often_as_model_first(self, monkeypatch):
        """One LULESH@64 slice of the perfbench sim grid (3 topologies x
        minimal/valiant/ugal).  The model-first order walked 12 routes: one
        per cell, plus one more per UGAL cell, whose simulator routes on
        scaled packets and the model on bytes.  Sim-first walks the same
        12, and a second pass walks none."""
        spec = _spec(telemetry=True, sim_volume_scale=3200.0)
        walks = _WalkCounter(monkeypatch)
        run_sweep(spec, workers=1)
        assert walks.calls == 12
        run_sweep(dataclasses.replace(spec, bandwidths=(24e9,)), workers=1)
        assert walks.calls == 12
