"""The Table-3 metric kernels against their oracles in ``tests/oracles``.

:mod:`repro.metrics.selectivity` ranks every sending rank's partners in one
segmented NumPy pass; ``_node_pair_aggregate`` skips its argsort when the
node-pair keys already increase strictly.  ``tests/oracles/metrics.py``
keeps the per-rank loops and the always-sort aggregate they replaced.
Results must be bitwise equal: per-rank dicts equal, floats ``==`` (or both
NaN), arrays ``np.array_equal`` with the same dtype.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_matrix, spread_matrix
from oracles.metrics import (
    mean_selectivity_curve_reference,
    node_pair_aggregate_reference,
    per_rank_selectivity_reference,
    selectivity_reference,
)

from repro.apps.registry import iter_configurations
from repro.cache import cached_matrix, cached_trace
from repro.comm.matrix import CommMatrix
from repro.core.blocks import CACHED_COLUMNS, stored_dtype
from repro.mapping.base import Mapping
from repro.metrics.selectivity import (
    mean_selectivity_curve,
    per_rank_selectivity,
    selectivity,
)
from repro.model.engine import _node_pair_aggregate, analyze_network
from repro.topology.configs import TOPOLOGY_KINDS, build_topology

SHARES = [1e-6, 0.5, 0.9, 1.0]

# Zero bytes, small ties and volumes past 2**53 (where the float threshold
# rounds) all occur in one matrix.
VOLUMES = [0, 0, 1, 3, 100, 100, 4096, 2**40, 2**55]


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_same_aggregate(got, want, matrix, mapping) -> None:
    """Equal values; arrays the aggregate holds itself in the dtypes
    ``CACHED_COLUMNS`` declares (the oracle computes in ``int64``)."""
    assert len(got) == len(want)
    own = [getattr(matrix, c) for c in ("src", "dst", "nbytes", "packets")]
    for name, a, b in zip(CACHED_COLUMNS["pairs"], got, want):
        assert np.array_equal(a, b)
        if not any(a is array for array in own):
            assert a.dtype == stored_dtype("pairs", name, mapping.num_nodes)


def _assert_selectivity_matches(matrix: CommMatrix, share: float) -> None:
    assert per_rank_selectivity(matrix, share) == per_rank_selectivity_reference(
        matrix, share
    )
    assert _same_float(selectivity(matrix, share), selectivity_reference(matrix, share))


def _assert_curve_matches(matrix: CommMatrix, max_partners: int | None) -> None:
    got = mean_selectivity_curve(matrix, max_partners)
    want = mean_selectivity_curve_reference(matrix, max_partners)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)


@st.composite
def matrices(draw):
    """Sorted matrices with self pairs, zero-byte pairs, ties and one-partner ranks."""
    n = draw(st.integers(1, 12))
    pairs = draw(
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.sampled_from(VOLUMES),
            max_size=60,
        )
    )
    keys = sorted(pairs)
    src = np.array([s for s, _ in keys], dtype=np.int64)
    dst = np.array([d for _, d in keys], dtype=np.int64)
    nbytes = np.array([pairs[k] for k in keys], dtype=np.int64)
    ones = np.ones(len(keys), dtype=np.int64)
    return CommMatrix(n, src, dst, nbytes, ones, np.maximum(ones, nbytes // 4096))


class TestSelectivityOracle:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.sampled_from(SHARES) | st.floats(1e-9, 1.0))
    def test_random_matrices(self, matrix, share):
        _assert_selectivity_matches(matrix, share)

    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.sampled_from([None, 1, 2, 100]))
    def test_random_curves(self, matrix, max_partners):
        _assert_curve_matches(matrix, max_partners)

    @pytest.mark.parametrize("share", SHARES)
    def test_hand_built_cases(self, share):
        cases = [
            make_matrix(4, []),  # no p2p at all
            make_matrix(4, [(0, 0, 10**9)]),  # self traffic only
            make_matrix(4, [(0, 1, 0), (0, 2, 0), (1, 2, 5)]),  # all-zero rank
            make_matrix(3, [(2, 0, 7)]),  # single-partner rank
            make_matrix(6, [(0, d, 100) for d in range(1, 6)]),  # all tied
        ]
        for matrix in cases:
            _assert_selectivity_matches(matrix, share)
            for max_partners in (None, 1, 2, 10):
                _assert_curve_matches(matrix, max_partners)

    def test_exact_threshold_boundary(self):
        # Ten equal partners: the top nine cover exactly 90 %, and 0.3 is
        # three partners' worth up to float rounding.
        matrix = make_matrix(11, [(0, d, 100) for d in range(1, 11)])
        for share in (0.9, 0.3, 0.1, 0.7):
            _assert_selectivity_matches(matrix, share)
        assert per_rank_selectivity(matrix, 0.9) == {0: 9}
        # 0.55 * 100 rounds up to 55.00000000000001; the 1e-9 slack lets the
        # heaviest partner's 55 bytes reach it.
        matrix = make_matrix(3, [(0, 1, 55), (0, 2, 45)])
        _assert_selectivity_matches(matrix, 0.55)
        assert per_rank_selectivity(matrix, 0.55) == {0: 1}

    @pytest.mark.parametrize(
        "app,ranks,variant",
        [
            (app.name, point.ranks, point.variant)
            for app, point in iter_configurations(max_ranks=256)
        ],
    )
    def test_registry_configurations(self, app, ranks, variant):
        trace = cached_trace(app, ranks, variant=variant)
        matrix = cached_matrix(trace, include_collectives=False)
        for share in SHARES:
            _assert_selectivity_matches(matrix, share)
        longest = int(np.bincount(matrix.src, minlength=ranks).max(initial=0))
        for max_partners in (None, 1, 2, longest + 1):
            _assert_curve_matches(matrix, max_partners)


def _full_matrix(app: str, ranks: int) -> CommMatrix:
    return cached_matrix(cached_trace(app, ranks))


class TestNodePairShortcut:
    def test_consecutive_mapping_takes_the_shortcut(self):
        matrix = _full_matrix("LULESH", 64)
        mapping = Mapping.consecutive(64, 64)
        got = _node_pair_aggregate(matrix, mapping)
        assert got[2] is matrix.nbytes and got[3] is matrix.packets
        _assert_same_aggregate(
            got, node_pair_aggregate_reference(matrix, mapping), matrix, mapping
        )

    @pytest.mark.parametrize(
        "mapping",
        [
            Mapping.from_permutation(np.arange(64)[::-1], 64),
            Mapping.consecutive(64, 32, ranks_per_node=2),
            Mapping.random(64, 64, seed=3),
        ],
        ids=["reversed", "two-per-node", "random"],
    )
    def test_other_mappings_sort(self, mapping):
        matrix = _full_matrix("LULESH", 64)
        got = _node_pair_aggregate(matrix, mapping)
        assert got[2] is not matrix.nbytes
        _assert_same_aggregate(
            got, node_pair_aggregate_reference(matrix, mapping), matrix, mapping
        )

    @pytest.mark.parametrize(
        "src,dst",
        [([2, 0, 1], [0, 1, 2]), ([0, 1, 1], [1, 2, 2])],
        ids=["unsorted", "duplicate"],
    )
    def test_hand_built_matrix_sorts(self, src, dst):
        nbytes = np.array([10, 20, 30], dtype=np.int64)
        ones = np.ones(3, dtype=np.int64)
        matrix = CommMatrix(
            3, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            nbytes, ones, ones.copy(),
        )
        mapping = Mapping.consecutive(3, 3)
        got = _node_pair_aggregate(matrix, mapping)
        assert got[2] is not matrix.nbytes
        _assert_same_aggregate(
            got, node_pair_aggregate_reference(matrix, mapping), matrix, mapping
        )

    def test_empty_matrix(self):
        empty = np.zeros(0, dtype=np.int64)
        matrix = CommMatrix(4, empty, empty, empty, empty, empty)
        mapping = Mapping.consecutive(4, 4)
        _assert_same_aggregate(
            _node_pair_aggregate(matrix, mapping),
            node_pair_aggregate_reference(matrix, mapping),
            matrix,
            mapping,
        )

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    @pytest.mark.parametrize("routing", ["minimal", "valiant", "ugal"])
    def test_analysis_leaves_matrix_untouched(self, kind, routing):
        matrix = spread_matrix(27, seed=5)
        nbytes, packets = matrix.nbytes.copy(), matrix.packets.copy()
        analyze_network(matrix, build_topology(kind, 27), routing=routing)
        assert np.array_equal(matrix.nbytes, nbytes)
        assert np.array_equal(matrix.packets, packets)
