"""Compact cached columns: the stored dtypes, and the widened arithmetic.

Cached traces, matrices, route incidences and node-pair aggregates store
their integer columns narrow (:data:`repro.core.blocks.CACHED_COLUMNS`),
and every arithmetic site widens them to ``int64`` first.  These tests pin
both halves: each region holds the dtypes the table declares, and at the
scale bench's 262,144 ranks (where pair keys overflow 32 bits) narrow
inputs give exactly the ``int64`` results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cache
from repro.cache import (
    cached_mapping,
    cached_matrix,
    cached_node_pairs,
    cached_route_incidence,
    cached_trace,
)
from repro.comm.matrix import CommMatrix, CommMatrixBuilder, matrix_from_trace
from repro.core.blocks import (
    CACHED_COLUMNS,
    KIND_P2P_SEND,
    EventBlock,
    count_dtype,
    index_dtype,
    narrow,
    stored_dtype,
)
from repro.core.trace import Trace, TraceMetadata
from repro.critpath.match import _channel_sort, channel_audit, ensure_receives
from repro.mapping.base import Mapping
from repro.mapping.optimized import _symmetric_coo
from repro.metrics.heatmap import downsample
from repro.metrics.locality import pair_distances
from repro.model.engine import _node_pair_aggregate
from repro.topology.base import RouteIncidence
from repro.topology.configs import build_topology
from repro.validation.base import CheckContext
from repro.validation.invariants import check_critpath_matching

#: The scale bench's rank count: rank-pair keys need 36 bits.
SCALE_RANKS = 262_144


def _send_block(sends) -> EventBlock:
    """A block of ``MPI_DOUBLE`` sends ``(caller, peer, count, repeat)``."""
    caller, peer, count, repeat = (np.array(c, dtype=np.int64) for c in zip(*sends))
    k = len(sends)
    return EventBlock(
        kind=np.full(k, KIND_P2P_SEND),
        caller=caller,
        peer=peer,
        count=count,
        dtype_id=np.zeros(k),
        op=np.full(k, -1),
        root=np.zeros(k),
        comm_id=np.zeros(k),
        tag=np.zeros(k),
        func_id=np.zeros(k),
        repeat=repeat,
        t_enter=np.zeros(k),
        t_leave=np.zeros(k),
        dtype_names=("MPI_DOUBLE",),
        func_names=("MPI_Send",),
    )


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache.clear()
    yield
    cache.clear()


class TestDeclaration:
    def test_index_dtype_is_the_smallest_unsigned(self):
        assert index_dtype(1) == np.uint8
        assert index_dtype(256) == np.uint8
        assert index_dtype(257) == np.uint16
        assert index_dtype(65_536) == np.uint16
        assert index_dtype(SCALE_RANKS) == np.uint32
        assert index_dtype(2**32 + 1) == np.int64

    def test_count_dtype_is_uint32_when_it_fits(self):
        assert count_dtype(0) == np.uint32
        assert count_dtype(2**32 - 1) == np.uint32
        assert count_dtype(2**32) == np.int64

    def test_narrow_refuses_values_it_cannot_hold(self):
        with pytest.raises(ValueError, match="does not fit"):
            narrow(np.array([70_000]), np.uint16)
        with pytest.raises(ValueError, match="does not fit"):
            narrow(np.array([-1]), np.uint8)
        with pytest.raises(ValueError, match="count value 2147483648"):
            _send_block([(0, 1, 2**31, 1)])

    def test_every_cached_region_holds_its_declared_dtypes(self):
        topology = build_topology("fattree", 64)
        trace = cached_trace("LULESH", 64)
        matrix = cached_matrix(trace)
        mapping = cached_mapping(matrix, topology, "greedy")
        pairs = cached_node_pairs(matrix, mapping)
        src_n, dst_n = mapping.node_of(matrix.src), mapping.node_of(matrix.dst)
        crossing = src_n != dst_n
        incidence = cached_route_incidence(
            topology, src_n[crossing], dst_n[crossing], routing="valiant"
        )
        incidence.link_loads(np.ones(int(crossing.sum())))

        for block in trace.blocks():
            for name, dtype in CACHED_COLUMNS["trace"].items():
                assert getattr(block, name).dtype == dtype, name
        for name in CACHED_COLUMNS["matrix"]:
            values = getattr(matrix, name)
            bound = matrix.num_ranks if name in ("src", "dst") else int(values.max())
            assert values.dtype == stored_dtype("matrix", name, bound), name
        assert matrix.src.dtype == np.uint8
        assert matrix.packets.dtype == np.uint32

        assert incidence.pair_index.dtype == stored_dtype(
            "incidence", "pair_index", int(crossing.sum())
        )
        top = int(incidence.link_id.max()) + 1
        assert incidence.link_id.dtype == stored_dtype("incidence", "link_id", top)
        ids, inverse = incidence._link_inverse
        assert inverse.dtype == index_dtype(len(ids))

        # Greedy placement permutes the ranks: the aggregate holds its own
        # node IDs.
        assert pairs[0] is not matrix.src
        for name, values in zip(CACHED_COLUMNS["pairs"], pairs):
            assert values.dtype == stored_dtype("pairs", name, mapping.num_nodes), name


class TestMemoizedArraysAreCounted:
    def _incidence(self):
        topology = build_topology("torus3d", 64)
        src = np.arange(63)
        dst = np.arange(1, 64)
        return cached_route_incidence(topology, src, dst), len(src)

    @pytest.mark.parametrize("memo", ["link_loads", "used_links"])
    def test_tally_counts_a_memo_when_it_is_made(self, memo):
        incidence, pairs = self._incidence()
        region = cache._regions["incidence"]
        stored = region.nbytes
        assert stored == cache.memory()["incidence"]["bytes"]
        if memo == "link_loads":
            incidence.link_loads(np.ones(pairs))
        else:
            incidence.used_links()
        grown = region.nbytes  # read before memory() re-measures
        assert grown > stored
        assert grown == cache.memory()["incidence"]["bytes"]

    def test_both_memos_count_once(self):
        incidence, pairs = self._incidence()
        incidence.used_links()
        incidence.link_loads(np.ones(pairs))
        region = cache._regions["incidence"]
        grown = region.nbytes
        assert grown == cache.memory()["incidence"]["bytes"]
        assert np.array_equal(incidence._used_links, incidence._link_inverse[0])

    def test_an_incidence_no_region_holds_is_ignored(self):
        incidence = RouteIncidence(np.arange(4), np.arange(4))
        ids, loads = incidence.link_loads(np.ones(4))
        assert np.array_equal(ids, np.arange(4))
        assert cache.memory()["incidence"]["bytes"] == 0


# ---------------------------------------------------------------- at scale


_rank = st.integers(0, SCALE_RANKS - 1)
_rows = st.lists(
    st.tuples(
        _rank,
        _rank,
        st.integers(0, 2**40),  # bytes
        st.integers(1, 2**32 - 1),  # messages
        st.integers(0, 2**32 - 1),  # packets
    ),
    min_size=1,
    max_size=40,
)


def _matrix(rows, ranks: int = SCALE_RANKS) -> CommMatrix:
    builder = CommMatrixBuilder(ranks)
    builder.add_arrays(*(np.array(col, dtype=np.int64) for col in zip(*rows)))
    return builder.finalize()


def _sums(keyed) -> dict:
    """Per key, the Python-int sums of each value column."""
    out: dict = {}
    for key, *values in keyed:
        acc = out.setdefault(key, [0] * len(values))
        for i, v in enumerate(values):
            acc[i] += v
    return out


class TestWideningAtScale:
    """Narrow columns at 262,144 ranks give exactly the ``int64`` results."""

    @settings(max_examples=40, deadline=None)
    @given(rows=_rows)
    def test_matrix_pair_keys_and_sums(self, rows):
        matrix = _matrix(rows)
        assert matrix.src.dtype == np.uint32
        expected = _sums(((s, d), b, m, p) for s, d, b, m, p in rows)
        assert list(zip(matrix.src.tolist(), matrix.dst.tolist())) == sorted(expected)
        for column, i in (("nbytes", 0), ("messages", 1), ("packets", 2)):
            got = getattr(matrix, column).tolist()
            assert got == [expected[k][i] for k in sorted(expected)], column

    @settings(max_examples=40, deadline=None)
    @given(rows=_rows, fold=st.sampled_from([0, 1, 2, 3]))
    def test_node_pair_keys_and_reduceat_sums(self, rows, fold):
        matrix = _matrix(rows)
        if fold:
            nodes = (SCALE_RANKS - 1 - np.arange(SCALE_RANKS)) // fold
        else:  # the identity: the matrix's own narrow ranks are the nodes
            nodes = np.arange(SCALE_RANKS)
        mapping = Mapping(nodes, int(nodes.max()) + 1)
        src, dst, nbytes, packets = _node_pair_aggregate(matrix, mapping)
        expected = _sums(
            ((int(nodes[s]), int(nodes[d])), b, p)
            for s, d, b, p in zip(
                matrix.src.tolist(),
                matrix.dst.tolist(),
                matrix.nbytes.tolist(),
                matrix.packets.tolist(),
            )
        )
        assert list(zip(src.tolist(), dst.tolist())) == sorted(expected)
        assert nbytes.tolist() == [expected[k][0] for k in sorted(expected)]
        assert packets.tolist() == [expected[k][1] for k in sorted(expected)]

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(_rank, _rank, st.integers(0, 3), st.integers(0, 2**15)),
            min_size=1,
            max_size=60,
        )
    )
    def test_channel_codes(self, keys):
        src, dst, comm, tag = (np.array(c) for c in zip(*keys))
        narrow_order = _channel_sort(
            src.astype(np.int32), dst.astype(np.int32), comm, tag.astype(np.int32)
        )
        assert np.array_equal(narrow_order, np.lexsort((tag, comm, dst, src)))

    @settings(max_examples=40, deadline=None)
    @given(
        routes=st.lists(
            st.tuples(st.integers(0, 49), st.integers(0, 3 * SCALE_RANKS - 1)),
            min_size=1,
            max_size=60,
        ),
        weights=st.lists(st.integers(0, 2**40), min_size=50, max_size=50),
    )
    def test_bincount_link_loads(self, routes, weights):
        pair_index, link_id = (np.array(c, dtype=np.int64) for c in zip(*routes))
        wide = RouteIncidence(pair_index, link_id)
        compact = wide.compacted(50)
        assert compact.pair_index.dtype == np.uint8
        assert compact.link_id.dtype == index_dtype(int(link_id.max()) + 1)
        weights = np.array(weights, dtype=np.int64)
        ids, loads = compact.link_loads(weights)
        wide_ids, wide_loads = wide.link_loads(weights)
        assert np.array_equal(ids, wide_ids)
        assert np.array_equal(loads, wide_loads)
        assert np.array_equal(compact.used_links(), np.unique(link_id))

    @settings(max_examples=40, deadline=None)
    @given(rows=_rows, bins=st.integers(1, 64), ranks=st.sampled_from([65_536, SCALE_RANKS]))
    def test_rank_arithmetic_of_the_metrics(self, rows, bins, ranks):
        # At 65,536 ranks the ranks are uint16, where ``src * bins`` wraps.
        matrix = _matrix([(s % ranks, d % ranks, *rest) for s, d, *rest in rows], ranks)
        src, dst = matrix.src.tolist(), matrix.dst.tolist()
        off = [i for i in range(len(src)) if src[i] != dst[i]]
        dist, _ = pair_distances(matrix)
        assert dist.tolist() == [abs(src[i] - dst[i]) for i in off]
        density = downsample(matrix, bins)
        expected = np.zeros((bins, bins))
        for s, d, b in zip(src, dst, matrix.nbytes.tolist()):
            expected[s * bins // ranks, d * bins // ranks] += b
        assert np.array_equal(density, expected)
        u, v, w = _symmetric_coo(matrix)
        edges = _sums(
            (key, b)
            for s, d, b in zip(src, dst, matrix.nbytes.tolist())
            if s != d and b > 0
            for key in ((s, d), (d, s))
        )
        assert list(zip(u.tolist(), v.tolist())) == sorted(edges)
        assert w.tolist() == [edges[k][0] for k in sorted(edges)]

    @settings(max_examples=20, deadline=None)
    @given(
        sends=st.lists(
            st.tuples(
                _rank, _rank, st.integers(0, 2**31 - 1), st.integers(1, 2**24)
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_byte_products_and_matched_pair_codes(self, sends):
        sends = [(s, d, c, r) for s, d, c, r in sends if s != d] or [(0, 1, 1, 1)]
        block = _send_block(sends)
        trace = Trace.from_blocks(TraceMetadata("scale", SCALE_RANKS, 1.0), [block])
        total = sum(8 * c * r for _, _, c, r in sends)
        assert trace.p2p_bytes() == total
        assert block.num_calls == sum(r for *_, r in sends)
        p2p = matrix_from_trace(trace, include_collectives=False)
        assert p2p.total_bytes == total
        audit = channel_audit(ensure_receives(trace))
        assert {audit.src.dtype, audit.dst.dtype, audit.tag.dtype} == {np.dtype(np.int64)}
        context = CheckContext(label="scale", trace=trace, p2p_matrix=p2p)
        assert list(check_critpath_matching(context)) == []
