"""The content-keyed cache: memory tier, disk tier, keys, and invalidation."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import cache
from repro.cache import (
    array_digest,
    cached_mapping,
    cached_matrix,
    cached_route_incidence,
    cached_trace,
    trace_content_key,
)
from repro.apps import generate_trace
from repro.comm.matrix import matrix_from_trace
from repro.core.communicator import Communicator
from repro.core.datatypes import MPIDatatype
from repro.core.events import CollectiveEvent, CollectiveOp, P2PEvent
from repro.core.stream import ROW_BYTES, BlockStream
from repro.core.trace import Trace
from repro.mapping import optimized
from repro.mapping.optimized import optimize_mapping
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.configs import build_topology
from repro.topology.torus import Torus3D

from helpers import make_trace


def _corrupt_entries(root, junk: bytes) -> None:
    """Overwrite every disk entry with junk (spill dirs via their manifest)."""
    for f in root.iterdir():
        if f.is_dir():
            (f / "manifest.json").write_bytes(junk)
        else:
            f.write_bytes(junk)


@pytest.fixture(autouse=True)
def isolated_cache():
    """Every test starts with empty in-memory regions and no disk tier."""
    cache.configure(disable_disk=True)
    cache.clear(memory=True)
    yield
    cache.configure(disable_disk=True)
    cache.clear(memory=True)


class TestMemoryTier:
    def test_trace_hit_returns_same_object(self):
        a = cached_trace("LULESH", 64)
        b = cached_trace("LULESH", 64)
        assert a is b
        assert cache.stats()["trace"] == {"hits": 1, "misses": 1, "disk_hits": 0}

    def test_trace_key_includes_all_determinism_axes(self):
        base = cached_trace("LULESH", 64)
        assert cached_trace("LULESH", 64, seed=1) is not base
        assert cached_trace("LULESH", 512) is not base
        assert cached_trace("LULESH", 64, variant="b") is not base
        assert cached_trace("AMG", 27) is not base

    def test_matrix_hit_and_axis_separation(self):
        trace = cached_trace("LULESH", 64)
        full = cached_matrix(trace)
        assert cached_matrix(trace) is full
        p2p = cached_matrix(trace, include_collectives=False)
        assert p2p is not full
        small = cached_matrix(trace, payload=1024)
        assert small is not full
        assert small.total_packets > full.total_packets

    def test_cached_matrix_matches_direct_construction(self):
        trace = cached_trace("LULESH", 64)
        direct = matrix_from_trace(trace, include_collectives=False)
        via_cache = cached_matrix(trace, include_collectives=False)
        assert np.array_equal(direct.src, via_cache.src)
        assert np.array_equal(direct.nbytes, via_cache.nbytes)
        assert np.array_equal(direct.packets, via_cache.packets)

    def test_incidence_hit_per_topology_fingerprint(self):
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([3, 4, 5], dtype=np.int64)
        a = cached_route_incidence(Torus3D((2, 2, 2)), src, dst)
        b = cached_route_incidence(Torus3D((2, 2, 2)), src, dst)  # new object, same shape
        assert b is a
        c = cached_route_incidence(Torus3D((2, 2, 4)), src, dst)
        assert c is not a

    def test_incidence_key_includes_pair_content(self):
        topo = FatTree(4, 2)
        a = cached_route_incidence(topo, np.array([0, 1]), np.array([2, 3]))
        b = cached_route_incidence(topo, np.array([0, 1]), np.array([3, 2]))
        assert b is not a

    def test_lru_eviction(self):
        cache.configure(memory_items={"trace": 1})
        cached_trace("LULESH", 64)
        cached_trace("AMG", 27)  # evicts LULESH
        cached_trace("LULESH", 64)
        s = cache.stats()["trace"]
        assert s["misses"] == 3 and s["hits"] == 0
        cache.configure(memory_items={"trace": 64})

    def test_clear_resets_entries_and_stats(self):
        cached_trace("LULESH", 64)
        cache.clear(memory=True)
        assert cache.stats()["trace"] == {"hits": 0, "misses": 0, "disk_hits": 0}
        cached_trace("LULESH", 64)
        assert cache.stats()["trace"]["misses"] == 1


class TestDiskTier:
    def test_trace_round_trip(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        cold = cached_trace("LULESH", 64)
        cache.clear(memory=True)
        warm = cached_trace("LULESH", 64)
        assert warm is not cold  # reloaded from disk, not memory
        assert len(warm.events) == len(cold.events)
        assert warm.meta.execution_time == cold.meta.execution_time
        assert cache.stats()["trace"]["disk_hits"] == 1

    def test_trace_persists_as_spill_directory(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        cached_trace("LULESH", 64)
        entries = list(tmp_path.iterdir())
        assert entries and all(e.name.endswith(".spill") for e in entries)
        assert all(e.is_dir() and (e / "manifest.json").is_file() for e in entries)

    def test_warm_trace_columns_are_memory_mapped(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        cached_trace("LULESH", 64)
        cache.clear(memory=True)
        warm = cached_trace("LULESH", 64)
        assert cache.stats()["trace"]["disk_hits"] == 1
        block = warm.blocks()[0]
        assert isinstance(block.caller.base, np.memmap)

    @pytest.mark.parametrize("app", ["LULESH", "Boxlib_CNS"])
    def test_trace_spill_round_trip_bit_identical(self, tmp_path, app):
        """Spill reload is exact — including derived-dtype apps whose block
        dtype names are absent from the (lazily populated) registry."""
        cache.configure(disk_dir=tmp_path)
        cold = cached_trace(app, 64)
        cache.clear(memory=True)
        warm = cached_trace(app, 64)
        assert cache.stats()["trace"]["disk_hits"] == 1
        assert warm.meta == cold.meta
        assert warm.datatypes == cold.datatypes
        assert warm.communicators == cold.communicators
        assert warm.events == cold.events

    def test_matrix_round_trip(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        trace = cached_trace("LULESH", 64)
        cold = cached_matrix(trace)
        cache.clear(memory=True)
        warm = cached_matrix(cached_trace("LULESH", 64))
        assert np.array_equal(warm.packets, cold.packets)
        assert cache.stats()["matrix"]["disk_hits"] == 1

    def test_incidence_round_trip_npz(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        topo = Dragonfly(4, 2, 2)
        src = np.arange(10, dtype=np.int64)
        dst = (src + 13) % topo.num_nodes
        cold = cached_route_incidence(topo, src, dst)
        cache.clear(memory=True)
        warm = cached_route_incidence(topo, src, dst)
        assert np.array_equal(warm.pair_index, cold.pair_index)
        assert np.array_equal(warm.link_id, cold.link_id)
        assert cache.stats()["incidence"]["disk_hits"] == 1

    def test_version_prefix_in_filenames(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        cached_trace("LULESH", 64)
        files = list(tmp_path.iterdir())
        assert files and all(
            f.name.startswith(f"v{cache.CACHE_VERSION}-") for f in files
        )

    def test_clear_disk_removes_entries(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        cached_trace("LULESH", 64)
        assert list(tmp_path.iterdir())
        cache.clear(memory=True, disk=True)
        assert not list(tmp_path.iterdir())
        cached_trace("LULESH", 64)
        assert cache.stats()["trace"]["disk_hits"] == 0

    # pickle.load surfaces different exception types depending on the bytes:
    # b"not a pickle" -> UnpicklingError, b"garbage\n" -> ValueError (the
    # 'g' opcode tries int("arbage")).  Both must read as a cache miss.
    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b""])
    def test_corrupt_disk_entry_recomputed(self, tmp_path, junk):
        cache.configure(disk_dir=tmp_path)
        cached_trace("LULESH", 64)
        _corrupt_entries(tmp_path, junk)
        cache.clear(memory=True)
        trace = cached_trace("LULESH", 64)  # falls back to regeneration
        assert trace.meta.num_ranks == 64
        assert cache.stats()["trace"]["disk_hits"] == 0

    def test_corrupt_npz_entry_recomputed(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        topo = Torus3D((2, 2, 2))
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([5, 6], dtype=np.int64)
        cold = cached_route_incidence(topo, src, dst)
        for f in tmp_path.iterdir():
            f.write_bytes(b"garbage\n")
        cache.clear(memory=True)
        warm = cached_route_incidence(topo, src, dst)
        assert np.array_equal(warm.link_id, cold.link_id)
        assert cache.stats()["incidence"]["disk_hits"] == 0


class TestKeys:
    def test_array_digest_content_sensitivity(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a[::-1])
        assert array_digest(a) != array_digest(a.astype(np.int32))
        assert array_digest(a, a) != array_digest(a)

    def test_cached_trace_carries_provenance_key(self):
        trace = cached_trace("LULESH", 64)
        key = trace_content_key(trace)
        assert key == ("trace", "LULESH", 64, "", 0, False)

    def test_foreign_trace_content_key_is_stable(self, ring_trace):
        k1 = trace_content_key(ring_trace)
        k2 = trace_content_key(ring_trace)
        assert k1 == k2
        assert k1[0] == "trace-content"

    @staticmethod
    def _foreign_trace(row_size: int, sub_members: tuple[int, ...]) -> Trace:
        """Identical records; only the tables the records resolve against vary."""
        trace = make_trace(4)
        trace.datatypes.commit(MPIDatatype("ROW_T", row_size, derived=True))
        trace.communicators.add(Communicator("SUB", sub_members))
        trace.add(P2PEvent(caller=0, peer=1, count=10, dtype="ROW_T"))
        trace.add(
            CollectiveEvent(
                caller=0, op=CollectiveOp.BCAST, count=100, dtype="MPI_BYTE",
                comm="SUB",
            )
        )
        return trace

    def test_foreign_trace_key_sees_datatype_and_communicator_tables(self):
        small = self._foreign_trace(8, (0, 1))
        large = self._foreign_trace(64, (0, 2, 3))
        assert trace_content_key(small) != trace_content_key(large)
        assert cached_matrix(small).total_bytes == 80 + 2 * 100
        assert cached_matrix(large).total_bytes == 640 + 3 * 100
        assert cached_matrix(large).total_bytes == matrix_from_trace(large).total_bytes

    def test_foreign_trace_key_ignores_block_partitioning(self):
        trace = generate_trace("CMC_2D", 64)
        one_block = Trace(
            trace.meta, trace.datatypes, trace.communicators, events=trace.events
        )
        rechunked = BlockStream.from_trace(trace).rechunk(7 * ROW_BYTES).to_trace()
        assert len(one_block.blocks()) == 1 < len(rechunked.blocks())
        assert trace_content_key(one_block) == trace_content_key(rechunked)
        assert trace_content_key(one_block) == trace_content_key(trace)

    def test_unfingerprinted_topology_bypasses_cache(self):
        class Opaque(Torus3D):
            """A subclass without its own fingerprint is treated as opaque
            only if it overrides fingerprint to return None."""

            def fingerprint(self):
                return None

        src = np.array([0], dtype=np.int64)
        dst = np.array([5], dtype=np.int64)
        topo = Opaque((2, 2, 2))
        assert topo.fingerprint() is None
        a = cached_route_incidence(topo, src, dst)
        b = cached_route_incidence(topo, src, dst)
        assert a is not b  # recomputed, never cached
        assert cache.stats()["incidence"] == {
            "hits": 0,
            "misses": 0,
            "disk_hits": 0,
        }

    def test_cache_version_is_12(self):
        """v12 stores compact (narrow-dtype) columns (v11 gave ``Mesh3D``
        its own fingerprint) — a version bump cold-starts the disk tier so
        no ``int64`` entry of an older layout is read back."""
        assert cache.CACHE_VERSION == 12

    @pytest.mark.parametrize("first", ["torus", "mesh"])
    def test_mesh_and_torus_of_one_size_never_share_routes(self, first):
        """A mesh and a torus with the same dims route differently, so
        neither may be answered from the other's entries, in either
        order."""
        from repro.routing.summary import summarize_routes
        from repro.topology.mesh import Mesh3D

        src = np.array([0, 0], dtype=np.int64)
        dst = np.array([3, 63], dtype=np.int64)
        topologies = {"torus": Torus3D((4, 4, 4)), "mesh": Mesh3D((4, 4, 4))}
        order = [first] + [k for k in topologies if k != first]
        for kind in order:
            topo = topologies[kind]
            summary = cache.cached_route_summary(topo, src, dst)
            incidence = cached_route_incidence(topo, src, dst)
            fresh = topo.route_incidence(src, dst)
            assert np.array_equal(incidence.pair_index, fresh.pair_index)
            assert np.array_equal(incidence.link_id, fresh.link_id)
            expected = summarize_routes(fresh, len(src), topo)
            assert np.array_equal(summary.pair_hops, expected.pair_hops)
            assert summary.used_links == expected.used_links
        assert cache.cached_route_summary(
            topologies["mesh"], src, dst
        ).pair_hops.tolist() == [3, 9]

    def test_policies_never_share_entries(self):
        """Different routing policies must never alias one cache entry —
        even on topologies where they happen to produce identical routes
        (ECMP == minimal on the dragonfly's unique shortest paths)."""
        topo = Dragonfly(4, 2, 2)
        src = np.arange(20, dtype=np.int64)
        dst = (src + 17) % topo.num_nodes
        minimal = cached_route_incidence(topo, src, dst, routing="minimal")
        ecmp = cached_route_incidence(topo, src, dst, routing="ecmp")
        assert ecmp is not minimal
        assert np.array_equal(ecmp.link_id, minimal.link_id)  # same content
        s = cache.stats()["incidence"]
        assert s["misses"] == 2 and s["hits"] == 0
        # and each policy hits its own entry on re-query
        assert cached_route_incidence(topo, src, dst, routing="ecmp") is ecmp
        assert cache.stats()["incidence"]["hits"] == 1

    def test_seed_keys_only_randomized_policies(self):
        topo = Torus3D((3, 3, 3))
        src = np.arange(10, dtype=np.int64)
        dst = (src + 7) % topo.num_nodes
        a = cached_route_incidence(topo, src, dst, routing="minimal", seed=0)
        b = cached_route_incidence(topo, src, dst, routing="minimal", seed=9)
        assert b is a  # minimal is seed-invariant: one entry
        c = cached_route_incidence(topo, src, dst, routing="ecmp", seed=0)
        d = cached_route_incidence(topo, src, dst, routing="ecmp", seed=9)
        assert d is not c

    def test_load_aware_weights_key_the_entry(self):
        topo = Dragonfly(4, 2, 2)
        src = np.arange(10, dtype=np.int64)
        dst = (src + 21) % topo.num_nodes
        w1 = np.ones(10)
        w2 = np.full(10, 2.0)
        a = cached_route_incidence(topo, src, dst, routing="ugal", pair_weights=w1)
        b = cached_route_incidence(topo, src, dst, routing="ugal", pair_weights=w2)
        assert b is not a
        assert (
            cached_route_incidence(topo, src, dst, routing="ugal", pair_weights=w1)
            is a
        )

    def test_weights_ignored_for_non_load_aware_policies(self):
        """ECMP routes don't depend on traffic, so weights must not fragment
        its cache entries."""
        topo = Torus3D((3, 3, 3))
        src = np.arange(10, dtype=np.int64)
        dst = (src + 5) % topo.num_nodes
        a = cached_route_incidence(topo, src, dst, routing="ecmp")
        b = cached_route_incidence(
            topo, src, dst, routing="ecmp", pair_weights=np.full(10, 3.0)
        )
        assert b is a

    def test_builtin_topology_fingerprints_distinct(self):
        prints = {
            Torus3D((3, 3, 3)).fingerprint(),
            Torus3D((3, 3, 4)).fingerprint(),
            FatTree(8, 3).fingerprint(),
            Dragonfly(4, 2, 2).fingerprint(),
        }
        assert len(prints) == 4
        assert None not in prints


class TestCorruptionEviction:
    """Corrupt disk entries are logged, deleted, and transparently rebuilt."""

    def test_corrupt_spill_logged_and_evicted(self, tmp_path, caplog):
        cache.configure(disk_dir=tmp_path)
        cached_trace("LULESH", 64)
        trace_entry = next(iter(tmp_path.iterdir()))
        (trace_entry / "manifest.json").write_bytes(b"not a manifest")
        cache.clear(memory=True)
        with caplog.at_level("WARNING", logger="repro.cache"):
            trace = cached_trace("LULESH", 64)
        assert trace.meta.num_ranks == 64
        assert cache.stats()["trace"]["disk_hits"] == 0
        assert any(
            "evicting corrupt cache entry" in rec.message for rec in caplog.records
        )
        # the recompute rewrote a *good* entry over the evicted one
        assert (trace_entry / "manifest.json").read_bytes() != b"not a manifest"

    def test_corrupt_npz_logged_and_evicted(self, tmp_path, caplog):
        import numpy as np

        cache.configure(disk_dir=tmp_path)
        topo = Torus3D((2, 2, 2))
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([5, 6], dtype=np.int64)
        cached_route_incidence(topo, src, dst)
        bad = next(iter(tmp_path.iterdir()))
        bad.write_bytes(b"\x00\x01garbage")
        cache.clear(memory=True)
        with caplog.at_level("WARNING", logger="repro.cache"):
            cached_route_incidence(topo, src, dst)
        assert cache.stats()["incidence"]["disk_hits"] == 0
        assert any(
            "evicting corrupt cache entry" in rec.message for rec in caplog.records
        )
        assert bad.read_bytes() != b"\x00\x01garbage"

    def test_next_reload_hits_disk_again(self, tmp_path):
        """After eviction the recompute rewrites a good entry."""
        cache.configure(disk_dir=tmp_path)
        cached_trace("LULESH", 64)
        _corrupt_entries(tmp_path, b"junk")
        cache.clear(memory=True)
        cached_trace("LULESH", 64)  # evicts + recomputes + rewrites
        cache.clear(memory=True)
        cached_trace("LULESH", 64)
        assert cache.stats()["trace"]["disk_hits"] == 1


class TestSharedSlots:
    """One slot assignment per (matrix, method), placed once per topology."""

    TOPOLOGIES = (Torus3D((4, 4, 4)), FatTree(radix=16, stages=2), Dragonfly(4, 2, 2))

    @pytest.fixture
    def slot_calls(self, monkeypatch):
        calls: dict[str, int] = {}
        produce = optimized.optimized_slots

        def counting(matrix, method, ranks_per_node=1):
            calls[method] = calls.get(method, 0) + 1
            return produce(matrix, method, ranks_per_node)

        monkeypatch.setattr(optimized, "optimized_slots", counting)
        return calls

    @pytest.fixture
    def matrix(self):
        return cached_matrix(cached_trace("LULESH", 64))

    def test_cold_topologies_share_one_slot_computation(self, matrix, slot_calls):
        for method in ("greedy", "spectral", "bisection"):
            mappings = [cached_mapping(matrix, t, method=method) for t in self.TOPOLOGIES]
            assert slot_calls[method] == 1
            for topo, mapping in zip(self.TOPOLOGIES, mappings):
                expected = optimize_mapping(matrix, topo, method=method).nodes
                assert np.array_equal(mapping.nodes, expected), (method, topo)

    def test_seeds_share_one_slot_computation(self, matrix, slot_calls):
        topo = self.TOPOLOGIES[0]
        a = cached_mapping(matrix, topo, method="bisection", seed=0)
        b = cached_mapping(matrix, topo, method="bisection", seed=1)
        assert a is not b  # per-seed entries, as before
        assert np.array_equal(a.nodes, b.nodes)
        assert slot_calls == {"bisection": 1}

    def test_slot_entry_round_trips_disk(self, tmp_path, matrix, slot_calls):
        cache.configure(disk_dir=tmp_path)
        for topo in self.TOPOLOGIES:
            cached_mapping(matrix, topo, method="bisection")
        cache.clear(memory=True)
        fourth = Torus3D((8, 4, 4))
        nodes = cached_mapping(matrix, fourth, method="bisection").nodes
        assert slot_calls == {"bisection": 1}
        assert cache.stats()["mapping"]["disk_hits"] == 1
        assert np.array_equal(
            nodes, optimize_mapping(matrix, fourth, method="bisection").nodes
        )


def _arrays(value):
    """Every array reachable from a cached value (test helper)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif type(value).__module__.startswith("repro.") and hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from _arrays(item)


class TestMemoryAccounting:
    """``cache.memory()``: entries, array bytes and evictions per region."""

    def _fill(self):
        from repro.analysis.sweep import SweepSpec, run_sweep

        cache.configure(disable_disk=True)
        cache.clear()
        run_sweep(
            SweepSpec(
                apps=(("LULESH", 64),),
                topologies=("torus3d", "dragonfly"),
                routings=("minimal", "ugal"),
                telemetry=True,
                sim_volume_scale=3200.0,
            ),
            workers=1,
        )

    def test_bytes_are_the_summed_nbytes_of_each_region(self):
        self._fill()
        held = cache.memory()
        assert set(held) == set(cache.stats())
        regions = cache._regions
        for name, entry in held.items():
            assert entry["entries"] == len(regions[name]._data)
        incidences = regions["incidence"]._data.values()
        # Rows, plus the link sets an incidence memoizes on first use (the
        # used-link array is shared by both memos: counted once).
        assert incidences and held["incidence"]["bytes"] == sum(
            sum(
                a.nbytes
                for a in {
                    id(a): a
                    for a in (
                        inc.pair_index,
                        inc.link_id,
                        getattr(inc, "_used_links", None),
                        *getattr(inc, "_link_inverse", ()),
                    )
                    if a is not None
                }.values()
            )
            for inc in incidences
        )
        summaries = regions["summary"]._data.values()
        assert summaries and held["summary"]["bytes"] == sum(
            s.pair_hops.nbytes + (0 if s.pair_global is None else s.pair_global.nbytes)
            for s in summaries
        )
        matrices = regions["matrix"]._data.values()
        assert matrices and held["matrix"]["bytes"] == sum(
            m.src.nbytes + m.dst.nbytes + m.nbytes.nbytes + m.messages.nbytes
            + m.packets.nbytes
            for m in matrices
        )
        traces = regions["trace"]._data.values()
        assert traces and held["trace"]["bytes"] == sum(
            sum(column.nbytes for column in vars(block).values()
                if isinstance(column, np.ndarray))
            for trace in traces
            for block in trace.blocks()
        )
        assert all(entry["evictions"] == 0 for entry in held.values())

    def test_array_held_by_two_regions_counts_once(self):
        # A one-rank-per-node consecutive mapping of a sorted matrix: the
        # node-pair aggregate is the matrix's own src/dst/nbytes/packets
        # arrays, so they count in the matrix region (stored first), and
        # the pairs region holds nothing of its own.
        from repro.mapping.base import Mapping

        cache.configure(disable_disk=True)
        cache.clear()
        trace = cache.cached_trace("LULESH", 64)
        matrix = cache.cached_matrix(trace)
        mapping = Mapping.consecutive(matrix.num_ranks, matrix.num_ranks)
        src, dst, nbytes, packets = cache.cached_node_pairs(matrix, mapping)
        assert src is matrix.src and dst is matrix.dst
        assert nbytes is matrix.nbytes and packets is matrix.packets
        held = cache.memory()
        assert held["pairs"]["entries"] == 1
        assert held["matrix"]["bytes"] == sum(
            a.nbytes
            for a in (matrix.src, matrix.dst, matrix.nbytes, matrix.messages,
                      matrix.packets)
        )
        assert held["pairs"]["bytes"] == 0
        arrays = {
            id(a): a
            for region in cache._regions.values()
            for value in region._data.values()
            for a in _arrays(value)
        }
        assert sum(e["bytes"] for e in held.values()) == sum(
            a.nbytes for a in arrays.values()
        )

    def test_byte_bound_counts_a_shared_array_once(self, monkeypatch):
        # The tally a byte bound checks credits a shared array where
        # memory() does: identity aggregates hold only their matrices'
        # arrays, so no byte bound evicts them ...
        from repro.mapping.base import Mapping

        pairs = cache._regions["pairs"]
        monkeypatch.setattr(pairs, "maxbytes", 1)
        trace = cache.cached_trace("LULESH", 64)
        matrices = [cache.cached_matrix(trace, payload=p) for p in (1024, 4096)]
        for matrix in matrices:
            cache.cached_node_pairs(matrix, Mapping.consecutive(64, 64))
        assert len(pairs) == 2 and pairs.nbytes == 0 and pairs.evictions == 0

        # ... until their matrices are evicted: then they hold those arrays.
        monkeypatch.setattr(cache._regions["matrix"], "maxsize", 1)
        cache.cached_matrix(trace, payload=2048)
        held = sum(
            a.nbytes
            for m in matrices
            for a in (m.src, m.dst, m.nbytes, m.packets)
        )
        assert pairs.nbytes == held
        assert cache.memory()["pairs"]["bytes"] == held

    def test_every_array_region_has_a_byte_bound(self):
        from repro.critpath import analyze_trace

        self._fill()
        analyze_trace(cached_trace("LULESH", 64), topology=build_topology("torus3d", 64))
        held = cache.memory()
        assert set(held) == set(cache.REGIONS)
        for name, entry in held.items():
            bound = cache.REGIONS[name].max_bytes
            assert entry["bound"] == bound == cache._regions[name].maxbytes
            if bound is None:
                assert entry["bytes"] == 0, name
        assert all(
            held[name]["bytes"] > 0
            for name in ("trace", "matrix", "incidence", "summary", "critpath")
        )

    def test_evictions_are_counted_and_cleared(self):
        cache.configure(memory_items={"summary": 2})
        try:
            self._fill()
            held = cache.memory()["summary"]
            assert held["entries"] == 2
            assert held["evictions"] == cache.stats()["summary"]["misses"] - 2
        finally:
            cache.configure(memory_items={"summary": 1024})
        cache.clear()
        assert cache.memory()["summary"] == {
            "entries": 0,
            "bytes": 0,
            "bound": cache.REGIONS["summary"].max_bytes,
            "evictions": 0,
        }


def _traced(build):
    """``build()`` and the bytes it left allocated, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestMemoryProbe:
    """The bytes ``cache.memory()`` reports per region agree with a
    ``tracemalloc`` probe of building the region's entries."""

    APP, RANKS = "LULESH", 512

    def _steps(self):
        """``(region, build)`` in dependency order; ``build`` takes the
        values built so far, by region."""
        topology = build_topology("torus3d", self.RANKS)

        def nodes(v):
            return v["mapping"].node_of(v["matrix"].src), v["mapping"].node_of(
                v["matrix"].dst
            )

        return [
            ("trace", lambda v: cached_trace(self.APP, self.RANKS)),
            ("matrix", lambda v: cached_matrix(v["trace"])),
            ("mapping", lambda v: cached_mapping(v["matrix"], topology, "greedy")),
            ("pairs", lambda v: cache.cached_node_pairs(v["matrix"], v["mapping"])),
            ("incidence", lambda v: cached_route_incidence(
                topology, *nodes(v), routing="valiant")),
            ("summary", lambda v: cache.cached_route_summary(topology, *nodes(v))),
            ("critpath", lambda v: cache.cached_critpath_dag(v["trace"], max_repeat=4)),
        ]

    @pytest.mark.parametrize(
        "region",
        ["trace", "matrix", "mapping", "pairs", "incidence", "summary", "critpath"],
    )
    def test_reported_bytes_match_allocations(self, region):
        steps = self._steps()
        names = [name for name, _ in steps]
        for _ in range(2):  # the first pass pays lazy set-up
            cache.clear()
            values = {}
            for name, build in steps[: names.index(region)]:
                values[name] = build(values)
            build = dict(steps)[region]
            _, allocated = _traced(lambda: build(values))
        reported = cache.memory()[region]["bytes"]
        assert reported > 0
        # Python objects around the arrays cost a few KiB.
        assert reported <= allocated <= reported + max(reported // 20, 32 << 10)

    def test_regions_without_arrays_report_none(self):
        from repro.critpath import analyze_trace
        from repro.model.engine import analyze_network

        trace = cached_trace("LULESH", 64)
        matrix = cached_matrix(trace)
        topology = build_topology("torus3d", 64)
        mapping = cached_mapping(matrix, topology, "greedy")
        for _ in range(2):  # the first pass pays lazy set-up
            cache.clear()
            _, allocated = _traced(lambda: (
                analyze_network(matrix, topology, mapping=mapping),
                analyze_trace(trace, topology=topology, max_repeat=4),
            ))
        held = cache.memory()
        for name in ("digests", "model", "critpath_result"):
            assert held[name]["entries"] > 0
            assert held[name]["bytes"] == 0 and held[name]["bound"] is None
        arrays = sum(held[name]["bytes"] for name in held)
        assert arrays <= allocated <= arrays + max(arrays // 20, 32 << 10)

    def test_mapped_trace_columns_count_what_they_map(self, tmp_path):
        cache.configure(disk_dir=tmp_path)
        cached_trace(self.APP, self.RANKS)
        cache.clear(memory=True)
        _, allocated = _traced(lambda: cached_trace(self.APP, self.RANKS))
        assert cache.stats()["trace"]["disk_hits"] == 1
        mapped = 0
        for segment in tmp_path.glob("*.spill/**/*.npy"):
            with segment.open("rb") as fh:
                if np.lib.format.read_magic(fh) == (1, 0):
                    np.lib.format.read_array_header_1_0(fh)
                else:
                    np.lib.format.read_array_header_2_0(fh)
                mapped += segment.stat().st_size - fh.tell()
        assert cache.memory()["trace"]["bytes"] == mapped > 0
        assert allocated < mapped // 4  # mapped, not read in


class TestPairsRegion:
    """The ``pairs`` region's bounds keep every re-read a sweep makes."""

    GRID = {
        "apps": (("LULESH", 64), ("AMG", 27)),
        "topologies": ("torus3d",),
        "mappings": ("consecutive", "greedy"),
        "routings": ("minimal", "ecmp"),
        "collectives": ("flat", "binomial", "ring"),
    }

    @staticmethod
    def _stats(**grid):
        from repro.analysis.sweep import SweepSpec, run_sweep

        cache.clear()
        run_sweep(SweepSpec(**grid), workers=1)
        return cache.stats()

    def test_grid_reuse_is_kept_under_the_declared_bounds(self, monkeypatch):
        bounded = self._stats(**self.GRID)
        region = cache._regions["pairs"]
        monkeypatch.setattr(region, "maxsize", 1 << 20)
        monkeypatch.setattr(region, "maxbytes", None)
        assert self._stats(**self.GRID) == bounded
        assert bounded["pairs"] == {"hits": 12, "misses": 12, "disk_hits": 0}

    def test_oversize_aggregate_is_held_alone_for_the_next_routing(self, monkeypatch):
        region = cache._regions["pairs"]
        monkeypatch.setattr(region, "maxbytes", 1)
        stats = self._stats(
            apps=(("LULESH", 64),),
            topologies=("torus3d",),
            mappings=("greedy", "bisection"),
            routings=("minimal", "ecmp", "valiant"),
        )
        assert stats["pairs"] == {"hits": 4, "misses": 2, "disk_hits": 0}
        # The second aggregate's miss dropped the first before folding.
        assert len(region) == 1 and region.evictions == 1
        assert region.nbytes > region.maxbytes
