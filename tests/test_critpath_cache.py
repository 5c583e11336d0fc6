"""The critical-path result region and the DAG's memory layout.

``analyze_trace`` answers a repeated analysis from the
``critpath_result`` region without touching a DAG; every input that
decides the result is part of its key.  DAGs are pinned in the
``critpath`` region under a byte bound (a larger one alone, until the
next DAG miss), with ``int32`` indexes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import cache
from repro.apps.registry import generate_trace
from repro.cache import cached_mapping, cached_matrix, cached_trace
from repro.critpath import DEFAULT_PARAMS, LogGPParams, analyze_trace, build_dag
from repro.critpath import match
from repro.critpath.dag import index_dtype
from repro.mapping.base import Mapping
from repro.topology.configs import build_topology


@pytest.fixture(autouse=True)
def fresh_cache():
    cache.clear()
    yield
    cache.clear()


def _result_stats() -> dict[str, int]:
    return cache.stats()["critpath_result"]


def _uncached(trace, **kw):
    """``analyze_trace`` with both memo layers bypassed: a trace (and
    mapping) without provenance."""
    plain = generate_trace(trace.meta.app, trace.meta.num_ranks)
    mapping = kw.get("mapping")
    if mapping is not None:
        kw["mapping"] = Mapping(mapping.nodes.copy(), mapping.num_nodes)
    return analyze_trace(plain, **kw)


class TestResultRegion:
    TRACE = ("AMG", 8)

    def _base(self) -> dict:
        return {
            "topology": build_topology("torus3d", 8),
            "mapping": None,
            "routing": "valiant",
            "routing_seed": 0,
            "params": DEFAULT_PARAMS,
            "max_repeat": 4,
            "fd_check": True,
            "collective": "flat",
        }

    def _perturbations(self, trace) -> dict[str, dict]:
        torus = build_topology("torus3d", 8)
        matrix = cached_matrix(trace)
        return {
            "max_repeat": {"max_repeat": 8},
            "collective": {"collective": "binomial"},
            "params": {"params": LogGPParams(latency_s=2.0**-18)},
            "fd_check": {"fd_check": False},
            "topology": {"topology": build_topology("fattree", 8)},
            "mapping": {"mapping": cached_mapping(matrix, torus, method="greedy")},
            "routing": {"routing": "minimal"},
            "routing_seed": {"routing_seed": 1},
            "no topology": {"topology": None},
        }

    def test_every_key_input_misses_and_matches_uncached(self):
        trace = cached_trace(*self.TRACE)
        base = analyze_trace(trace, **self._base())
        assert repr(base) == repr(_uncached(trace, **self._base()))
        for name, change in self._perturbations(trace).items():
            kw = {**self._base(), **change}
            misses = _result_stats()["misses"]
            got = analyze_trace(trace, **kw)
            assert _result_stats()["misses"] == misses + 1, name
            assert got is not base, name
            assert repr(got) == repr(_uncached(trace, **kw)), name
            assert analyze_trace(trace, **kw) is got, name

    def test_other_trace_misses(self):
        base = analyze_trace(cached_trace(*self.TRACE), **self._base())
        other = cached_trace("AMG", 27)
        got = analyze_trace(other, **self._base() | {"topology": build_topology("torus3d", 27)})
        assert got is not base and got.ranks == 27
        assert _result_stats() == {"hits": 0, "misses": 2, "disk_hits": 0}

    def test_hit_returns_cached_object_without_dag(self, monkeypatch):
        calls = []
        dag_lookup = cache.cached_critpath_dag

        def counting(*args, **kw):
            calls.append(args)
            return dag_lookup(*args, **kw)

        monkeypatch.setattr(cache, "cached_critpath_dag", counting)
        trace = cached_trace(*self.TRACE)
        first = analyze_trace(trace, **self._base())
        assert len(calls) == 1
        assert analyze_trace(trace, **self._base()) is first
        assert len(calls) == 1
        assert _result_stats()["hits"] == 1

    def test_no_provenance_bypasses(self):
        trace = generate_trace(*self.TRACE)
        analyze_trace(trace, max_repeat=4)
        topo = build_topology("torus3d", 8)
        # Built directly: the Mapping constructors attach provenance.
        mapping = Mapping(np.arange(8), topo.num_nodes)
        analyze_trace(cached_trace(*self.TRACE), topology=topo, mapping=mapping)
        assert _result_stats() == {"hits": 0, "misses": 0, "disk_hits": 0}

    def test_default_mapping_shares_the_explicit_consecutive_entry(self):
        # analyze_trace's default is Mapping.consecutive, so both calls are
        # one analysis and must be one entry.
        trace = cached_trace("LULESH", 64)
        topo = build_topology("torus3d", 64)
        default = analyze_trace(trace, topology=topo)
        explicit = analyze_trace(
            trace, topology=topo, mapping=Mapping.consecutive(64, topo.num_nodes)
        )
        assert _result_stats() == {"hits": 1, "misses": 1, "disk_hits": 0}
        assert explicit.makespan_s == default.makespan_s

    def test_clear_and_stats_cover_region(self):
        trace = cached_trace(*self.TRACE)
        first = analyze_trace(trace, max_repeat=4)
        assert "critpath_result" in cache.stats()
        assert len(cache._regions["critpath_result"]._data) == 1
        cache.clear()
        assert len(cache._regions["critpath_result"]._data) == 0
        assert analyze_trace(trace, max_repeat=4) is not first
        assert _result_stats()["misses"] == 1

    def test_configure_resizes_region(self):
        cache.configure(memory_items={"critpath_result": 1})
        try:
            trace = cached_trace(*self.TRACE)
            first = analyze_trace(trace, max_repeat=4)
            analyze_trace(trace, max_repeat=8)
            assert analyze_trace(trace, max_repeat=4) is not first
        finally:
            cache.configure(
                memory_items={"critpath_result": cache.REGIONS["critpath_result"].entries}
            )


class TestDagRegion:
    def test_byte_bound_pins_small_dags_and_one_large(self, monkeypatch):
        small = cached_trace("AMG", 8)
        large = cached_trace("LULESH", 64)
        bound = cache.cached_critpath_dag(small, max_repeat=4).nbytes * 2
        region = cache._regions["critpath"]
        monkeypatch.setattr(region, "maxbytes", bound)

        # An oversize DAG evicts the small one and is held alone, so its
        # analyses on several topologies share it ...
        for kind in ("torus3d", "fattree", "dragonfly"):
            analyze_trace(large, topology=build_topology(kind, 64), max_repeat=4)
        big = cache.cached_critpath_dag(large, max_repeat=4)
        assert big.nbytes > bound
        assert region.nbytes == big.nbytes
        assert cache.stats()["critpath"]["misses"] == 2  # 1 small + 1 large

        # ... until the next miss drops it before building.
        for kind in ("torus3d", "fattree", "dragonfly"):
            analyze_trace(small, topology=build_topology(kind, 8), max_repeat=4)
        assert region.nbytes == cache.cached_critpath_dag(small, max_repeat=4).nbytes
        assert cache.cached_critpath_dag(large, max_repeat=4) is not big
        assert cache.stats()["critpath"] == {"hits": 6, "misses": 4, "disk_hits": 0}

    def test_byte_bound_evicts_oldest(self):
        region = cache._LRU(maxsize=10, maxbytes=100)

        class Blob:
            def __init__(self, nbytes):
                self.nbytes = nbytes

        region.put("a", Blob(60))
        region.put("b", Blob(30))
        assert region.nbytes == 90
        region.put("c", Blob(30))  # 120 > 100: "a" goes
        assert region.get("a") is cache._MISS
        assert region.nbytes == 60
        region.put("b", Blob(50))  # replacing an entry re-counts it
        assert region.nbytes == 80
        region.shed()  # within the bound: nothing goes
        assert region.nbytes == 80
        region.put("d", Blob(101))  # larger than the whole bound: held alone
        assert region.get("b") is cache._MISS and region.get("c") is cache._MISS
        assert region.get("d").nbytes == 101
        region.put("e", Blob(10))  # the next put drops it
        assert region.get("d") is cache._MISS
        assert region.nbytes == 10
        region.put("f", Blob(101))
        region.shed()  # so does shed()
        assert region.get("f") is cache._MISS
        assert region.nbytes == 0

    def test_cached_dag_carries_its_schedule(self):
        dag = cache.cached_critpath_dag(cached_trace("AMG", 8), max_repeat=4)
        assert dag._schedule is not None
        assert cache._regions["critpath"].nbytes == dag.nbytes


class TestDagLayout:
    def test_indexes_are_int32_when_they_fit(self):
        dag = build_dag(generate_trace("CMC_2D", 64), max_repeat=4)
        schedule = dag.level_schedule()
        for array in (
            dag.edge_src,
            dag.edge_dst,
            dag.pred_csr()[1],
            dag.succ_csr()[1],
            schedule.pred_eidx,
            schedule.order,
            schedule.starts,
            schedule.counts,
        ):
            assert array.dtype == np.int32

    def test_index_dtype_widens_past_int32(self):
        assert index_dtype(2**31 - 1) is np.int32
        assert index_dtype(2**31) is np.int64

    @pytest.mark.parametrize("collective", ["flat", "binomial"])
    def test_chunked_collective_edges_build_the_same_dag(self, monkeypatch, collective):
        trace = generate_trace("CMC_2D", 64)
        whole = build_dag(trace, max_repeat=4, collective=collective)
        monkeypatch.setattr(match, "EDGE_CHUNK", 7)
        chunked = build_dag(trace, max_repeat=4, collective=collective)
        for name in ("edge_src", "edge_dst", "edge_bytes", "edge_kind"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))
            assert getattr(chunked, name).dtype == getattr(whole, name).dtype
