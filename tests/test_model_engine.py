"""Tests for the static network analysis engine (Eqs. 3-5, §6 conventions)."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro import cache
from repro.comm.matrix import CommMatrixBuilder, matrix_from_trace
from repro.core.events import CollectiveEvent, CollectiveOp
from repro.mapping.base import Mapping
from repro.model.engine import BANDWIDTH_BYTES_PER_S, analyze_network
from repro.routing import get_policy
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D

from helpers import make_matrix, make_trace


class TestPacketHops:
    def test_single_message(self):
        m = make_matrix(8, [(0, 1, 4096)])  # 1 packet, 1 hop on the torus
        topo = Torus3D((2, 2, 2))
        r = analyze_network(m, topo)
        assert r.packet_hops == 1
        assert r.total_packets == 1
        assert r.avg_hops == 1.0

    def test_multi_packet_message(self):
        m = make_matrix(8, [(0, 7, 10000)])  # 3 packets, 3 hops each
        r = analyze_network(m, Torus3D((2, 2, 2)))
        assert r.packet_hops == 9
        assert r.avg_hops == 3.0

    def test_zero_hop_packets_count_in_average(self):
        """Paper convention: a collective's root self-message contributes
        packets (denominator) but no hops."""
        b = CommMatrixBuilder(8)
        b.add_message(0, 0, 4096)
        b.add_message(0, 1, 4096)
        m = b.finalize()
        r = analyze_network(m, Torus3D((2, 2, 2)))
        assert r.total_packets == 2
        assert r.packet_hops == 1
        assert r.avg_hops == 0.5

    def test_mapping_collapses_colocated_traffic(self):
        m = make_matrix(8, [(0, 1, 4096), (0, 4, 4096)])
        topo = Torus3D((2, 2, 2))
        mapping = Mapping.consecutive(8, 8, ranks_per_node=2)  # 0,1 share node 0
        r = analyze_network(m, topo, mapping=mapping)
        assert r.network_bytes == 4096  # only the 0->4 message crosses


class TestPaperExactAverages:
    def test_cmc_style_rooted_collectives_torus(self):
        """Allreduce rooted at rank 0 gives exactly the mean distance from
        node 0 — the paper's CMC rows read exactly 3.00 / 5.00 / 8.00."""
        for dims, expected in [((4, 4, 4), 3.0), ((8, 8, 4), 5.0), ((16, 8, 8), 8.0)]:
            n = dims[0] * dims[1] * dims[2]
            trace = make_trace(n)
            for r in range(n):
                trace.add(
                    CollectiveEvent(caller=r, op=CollectiveOp.ALLREDUCE, count=64)
                )
            matrix = matrix_from_trace(trace)
            result = analyze_network(matrix, Torus3D(dims))
            assert result.avg_hops == pytest.approx(expected, abs=1e-9)

    def test_alltoall_single_switch_fat_tree(self):
        """BigFFT@9 on (48,1): alltoall incl. self -> 2*(N-1)/N = 1.78."""
        n = 9
        trace = make_trace(n)
        for r in range(n):
            trace.add(CollectiveEvent(caller=r, op=CollectiveOp.ALLTOALL, count=10))
        matrix = matrix_from_trace(trace)
        result = analyze_network(matrix, FatTree(48, 1))
        assert result.avg_hops == pytest.approx(2 * 8 / 9, abs=1e-9)

    def test_uniform_alltoall_full_torus(self):
        """Alltoall over every node of a (16,8,8) torus averages exactly 8."""
        n = 1024
        trace = make_trace(n)
        for r in range(n):
            trace.add(CollectiveEvent(caller=r, op=CollectiveOp.ALLTOALL, count=1))
        matrix = matrix_from_trace(trace)
        result = analyze_network(matrix, Torus3D((16, 8, 8)))
        assert result.avg_hops == pytest.approx(8.0, abs=1e-9)


class TestUtilization:
    def test_formula(self):
        m = make_matrix(8, [(0, 1, 4096)])
        r = analyze_network(
            m, Torus3D((2, 2, 2)), execution_time=2.0, bandwidth=1000.0
        )
        # 4096 payload bytes over 1 used link for 2 s at 1 kB/s (Eq. 5)
        assert r.used_links == 1
        assert r.utilization == pytest.approx(4096 / (1000.0 * 2.0 * 1))

    def test_volume_modes(self):
        m = make_matrix(8, [(0, 1, 100)])
        padded = analyze_network(m, Torus3D((2, 2, 2)), volume_mode="padded")
        raw = analyze_network(m, Torus3D((2, 2, 2)), volume_mode="raw")
        default = analyze_network(m, Torus3D((2, 2, 2)))
        assert padded.wire_bytes == 4096
        assert raw.wire_bytes == 100
        assert default.wire_bytes == raw.wire_bytes  # raw is Eq. 5's default
        assert raw.utilization < padded.utilization

    def test_self_traffic_excluded_from_wire(self):
        b = CommMatrixBuilder(8)
        b.add_message(2, 2, 10_000)
        r = analyze_network(b.finalize(), Torus3D((2, 2, 2)))
        assert r.network_bytes == 0
        assert r.wire_bytes == 0
        assert r.used_links == 0
        assert r.utilization == 0.0

    def test_nominal_links_scaled_to_used_nodes(self):
        m = make_matrix(4, [(0, 1, 1)])
        r = analyze_network(m, Torus3D((4, 4, 4)))
        # default consecutive mapping uses 4 nodes (one per rank)
        assert r.nominal_links == pytest.approx(12.0)

    def test_default_bandwidth_is_paper_value(self):
        assert BANDWIDTH_BYTES_PER_S == 12e9

    def test_validation(self):
        m = make_matrix(4, [(0, 1, 1)])
        with pytest.raises(ValueError):
            analyze_network(m, Torus3D((2, 2, 2)), volume_mode="bogus")
        with pytest.raises(ValueError):
            analyze_network(m, Torus3D((2, 2, 2)), execution_time=0.0)
        with pytest.raises(ValueError):
            analyze_network(
                m, Torus3D((2, 2, 2)), mapping=Mapping.consecutive(4, 4)
            )  # 4-node mapping vs 8-node topology


class TestDragonflyGlobalShare:
    def test_intra_group_traffic_share_zero(self):
        df = Dragonfly(4, 2, 2)
        m = make_matrix(df.num_nodes, [(0, 1, 4096), (0, 7, 4096)])
        r = analyze_network(m, df)
        assert r.global_link_packet_share == 0.0

    def test_cross_group_traffic_share_one(self):
        df = Dragonfly(4, 2, 2)
        m = make_matrix(df.num_nodes, [(0, 8, 4096), (0, 70, 4096)])
        r = analyze_network(m, df)
        assert r.global_link_packet_share == 1.0

    def test_share_is_none_for_other_topologies(self):
        m = make_matrix(8, [(0, 1, 1)])
        assert analyze_network(m, Torus3D((2, 2, 2))).global_link_packet_share is None

    def test_uniform_traffic_mostly_global(self):
        """Paper: ~95% of dragonfly messages use a global link."""
        df = Dragonfly(4, 2, 2)
        n = df.num_nodes
        src, dst = np.meshgrid(np.arange(n), np.arange(n))
        b = CommMatrixBuilder(n)
        b.add_arrays(
            src.ravel(), dst.ravel(),
            np.full(n * n, 100), np.ones(n * n, dtype=np.int64),
            np.ones(n * n, dtype=np.int64),
        )
        r = analyze_network(b.finalize(), df)
        assert r.global_link_packet_share == pytest.approx(8 / 9, abs=0.01)


# ------------------------------------------------------------ result memo


def _bits(result) -> tuple:
    """Every field of a result, floats as ``float.hex``."""
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(result)
    )


#: One static-model query: the matrix (app, payload, collective engine),
#: the mapping (method, ranks per node, seed), the topology (class, dims),
#: the routing (policy, seed), and analyze_network's volume_mode/payload.
BASE_QUERY = {
    "payload": 4096,
    "collective": "flat",
    "mapping": ("consecutive", 1, 0),
    "topology": (Torus3D, (4, 4, 4)),
    "routing": ("minimal", 0),
    "volume_mode": "raw",
    "query_payload": 4096,
}

#: (one side, the other side, whether the result differs).  Each row moves
#: one declared input of the model key.
PERTURBATIONS = [
    ({}, {"payload": 1024}, True),
    ({}, {"collective": "binomial"}, True),
    ({}, {"mapping": ("random", 1, 0)}, True),
    ({"mapping": ("random", 1, 0)}, {"mapping": ("random", 1, 1)}, True),
    ({}, {"mapping": ("consecutive", 2, 0)}, True),
    ({}, {"topology": (Mesh3D, (4, 4, 4))}, True),
    ({}, {"topology": (Torus3D, (4, 4, 8))}, True),
    ({}, {"routing": ("valiant", 0)}, True),
    ({"routing": ("valiant", 0)}, {"routing": ("valiant", 1)}, True),
    ({}, {"routing": ("minimal", 1)}, False),  # minimal is not randomized
    ({}, {"volume_mode": "padded"}, True),
    ({"volume_mode": "padded"}, {"volume_mode": "padded", "query_payload": 1024}, True),
    ({}, {"query_payload": 1024}, False),  # raw volumes never read payload
]


def _query(changes: dict, execution_time: float = 1.0, bandwidth: float = 12e9):
    """``(model key, result)`` of one query, computed from cold caches."""
    q = {**BASE_QUERY, **changes}
    cache.clear()
    trace = cache.cached_trace("AMR_Miniapp", 64)
    matrix = cache.cached_matrix(
        trace, payload=q["payload"], collective=q["collective"]
    )
    cls, dims = q["topology"]
    topology = cls(dims)
    method, ranks_per_node, seed = q["mapping"]
    if method == "random":
        mapping = Mapping.random(64, topology.num_nodes, ranks_per_node, seed=seed)
    else:
        mapping = Mapping.consecutive(64, topology.num_nodes, ranks_per_node)
    routing, routing_seed = q["routing"]
    key = cache.model_key(
        matrix, mapping, topology, get_policy(routing, seed=routing_seed),
        q["volume_mode"], q["query_payload"],
    )
    result = analyze_network(
        matrix, topology, mapping=mapping, execution_time=execution_time,
        bandwidth=bandwidth, volume_mode=q["volume_mode"],
        payload=q["query_payload"], routing=routing, routing_seed=routing_seed,
    )
    assert cache.stats()["model"] == {"hits": 0, "misses": 1, "disk_hits": 0}
    return key, result


class TestResultMemo:
    """The ``model`` region: a key that changes exactly when the result
    does, and hits that equal a fresh computation."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self):
        cache.configure(disable_disk=True)
        cache.clear()
        yield
        cache.clear()

    @pytest.mark.parametrize(
        "one, other, differs",
        PERTURBATIONS,
        ids=[",".join(sorted(other)) + f"-{i}" for i, (_, other, _) in enumerate(PERTURBATIONS)],
    )
    def test_key_changes_exactly_when_the_result_does(self, one, other, differs):
        key_a, result_a = _query(one)
        key_b, result_b = _query(other)
        assert key_a is not None and key_b is not None
        assert (_bits(result_a) != _bits(result_b)) == differs
        assert (key_a != key_b) == differs

    def test_hit_equals_a_fresh_result_at_another_bandwidth_and_time(self):
        trace = cache.cached_trace("AMR_Miniapp", 64)
        matrix = cache.cached_matrix(trace)
        topology = Torus3D((4, 4, 4))
        first = analyze_network(matrix, topology, execution_time=0.5)
        hit = analyze_network(matrix, topology, execution_time=0.25, bandwidth=3e9)
        assert cache.stats()["model"] == {"hits": 1, "misses": 1, "disk_hits": 0}
        assert (hit.execution_time, hit.bandwidth) == (0.25, 3e9)
        assert hit.utilization == 4 * 2 * first.utilization
        _, fresh = _query({}, execution_time=0.25, bandwidth=3e9)
        assert _bits(hit) == _bits(fresh)

    def test_bandwidth_and_time_never_enter_the_key(self):
        params = inspect.signature(cache.model_key).parameters
        assert not {"bandwidth", "execution_time"} & set(params)

    def test_queries_without_provenance_bypass_the_region(self):
        class Opaque(Torus3D):
            def fingerprint(self):
                return None

        foreign = make_matrix(64, [(0, 1, 4096), (5, 60, 9000)])
        matrix = cache.cached_matrix(cache.cached_trace("AMR_Miniapp", 64))
        unkeyed = Mapping(np.arange(64), 64)
        for args, kwargs in (
            ((foreign, Torus3D((4, 4, 4))), {}),
            ((matrix, Opaque((4, 4, 4))), {}),
            ((matrix, Torus3D((4, 4, 4))), {"mapping": unkeyed}),
        ):
            first = analyze_network(*args, **kwargs)
            again = analyze_network(*args, **kwargs)
            assert _bits(first) == _bits(again)
        assert cache.stats()["model"] == {"hits": 0, "misses": 0, "disk_hits": 0}
        assert cache.memory()["model"]["entries"] == 0

    def test_checks_run_before_the_lookup(self):
        matrix = cache.cached_matrix(cache.cached_trace("AMR_Miniapp", 64))
        topology = Torus3D((4, 4, 4))
        analyze_network(matrix, topology)
        with pytest.raises(ValueError):
            analyze_network(matrix, topology, execution_time=0.0)
        with pytest.raises(ValueError):
            analyze_network(matrix, topology, volume_mode="bogus")
        with pytest.raises(ValueError):
            analyze_network(matrix, topology, mapping=Mapping.consecutive(64, 128))
