"""The congestion-region labelling kernel against its union-find oracle.

:mod:`repro.telemetry.congestion` labels hot (link, window) cells in one
NumPy pass; ``tests/oracles/telemetry.py`` keeps the union-find over dicts
it replaced.  Every region field, the cell arrays, the region order, the
:class:`CongestionSummary` and the tenancy blame computed from the regions
must be identical, on simulated reports and on generated hot masks over
all three link decoders.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import spread_matrix
from oracles.telemetry import (
    congestion_summary_reference,
    find_congestion_regions_reference,
)

from repro.apps.noise import HotspotNoise, UniformNoise
from repro.comm.matrix import matrix_from_trace
from repro.sim.common import prepare_simulation
from repro.sim.engine import simulate_network
from repro.telemetry import (
    TelemetryConfig,
    congestion_summary,
    find_congestion_regions,
)
from repro.telemetry.collector import TelemetryReport
from repro.telemetry.congestion import _min_labels
from repro.tenancy import TenantSpec, attribute_regions, compose_workload
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D

DECODERS = [Torus3D((3, 3, 3)), FatTree(8, 3), Dragonfly(4, 2, 2)]


def _mask_report(link_ids, hot: np.ndarray) -> TelemetryReport:
    """A report whose busy fraction is 1 exactly on ``hot`` (L x W)."""
    num_links, windows = hot.shape
    zeros = np.zeros(windows, dtype=np.int64)
    return TelemetryReport(
        span=float(windows),
        window_dt=1.0,
        service=1e-3,
        link_ids=np.asarray(link_ids, dtype=np.int64),
        serve_series=hot.astype(np.int64),
        occupancy=hot.astype(np.float64),
        injections=zeros,
        ejections=zeros,
        injected_series=zeros,
        delivered_series=zeros,
        queue_depth_hist=zeros[:1],
        stall_hist=zeros[:1],
        stall_edges=np.zeros(0),
    )


def _bit_reversed(bits: int) -> np.ndarray:
    """0 .. 2**bits - 1 with each index's bits reversed (an involution)."""
    index = np.arange(1 << bits)
    out = np.zeros_like(index)
    for b in range(bits):
        out |= ((index >> b) & 1) << (bits - 1 - b)
    return out


def _assert_matches_oracle(report, topology, threshold=0.7):
    got = find_congestion_regions(report, topology, threshold)
    want = find_congestion_regions_reference(report, topology, threshold)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("onset_window", "end_window", "peak_links", "link_windows"):
            assert type(getattr(a, name)) is int
            assert getattr(a, name) == getattr(b, name), name
        assert a.window_dt == b.window_dt
        for name in ("links", "cell_links", "cell_windows"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    summary = congestion_summary(report, topology, threshold)
    assert summary == congestion_summary_reference(report, topology, threshold)
    return got


class TestGeneratedMasks:
    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(DECODERS),
        num_links=st.integers(1, 60),
        windows=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_masks_match_oracle(
        self, topology, num_links, windows, density, seed
    ):
        rng = np.random.default_rng(seed)
        num_links = min(num_links, topology.num_links)
        link_ids = rng.choice(topology.num_links, size=num_links, replace=False)
        hot = rng.random((num_links, windows)) < density
        _assert_matches_oracle(_mask_report(link_ids, hot), topology)

    @pytest.mark.parametrize("topology", DECODERS, ids=lambda t: type(t).__name__)
    def test_no_hot_cell(self, topology):
        report = _mask_report(np.arange(10), np.zeros((10, 5), dtype=bool))
        assert _assert_matches_oracle(report, topology) == []
        summary = congestion_summary(report, topology)
        assert (summary.num_regions, summary.first_onset_window) == (0, -1)
        assert summary.longest_region_s == 0.0

    @pytest.mark.parametrize("topology", DECODERS, ids=lambda t: type(t).__name__)
    def test_single_cell(self, topology):
        hot = np.zeros((10, 5), dtype=bool)
        hot[7, 3] = True
        (region,) = _assert_matches_oracle(_mask_report(np.arange(10), hot), topology)
        assert (region.onset_window, region.link_windows) == (3, 1)
        assert region.links.tolist() == [7]

    @pytest.mark.parametrize("topology", DECODERS, ids=lambda t: type(t).__name__)
    def test_every_cell_hot(self, topology):
        link_ids = np.arange(topology.num_links)
        hot = np.ones((topology.num_links, 4), dtype=bool)
        (region,) = _assert_matches_oracle(_mask_report(link_ids, hot), topology)
        assert region.link_windows == hot.size
        assert region.peak_links == topology.num_links

    @pytest.mark.parametrize("topology", DECODERS, ids=lambda t: type(t).__name__)
    def test_one_link_hot_in_every_window(self, topology):
        hot = np.zeros((10, 9), dtype=bool)
        hot[4] = True
        (region,) = _assert_matches_oracle(_mask_report(np.arange(10), hot), topology)
        assert (region.onset_window, region.end_window) == (0, 8)
        assert (region.peak_links, region.spread) == (1, 1)

    def test_zigzag_ring_is_one_region(self):
        """A ring of 64 x-links whose compact rows are bit-reversed ring
        positions, so neighbours along the ring zigzag through cell order
        and the kernel needs one hooking round per bit (six)."""
        torus = Torus3D((64, 2, 2))
        ring = np.arange(64) * 4 * 3  # +x link of node (x, 0, 0)
        hot = np.ones((64, 1), dtype=bool)
        (region,) = _assert_matches_oracle(
            _mask_report(ring[_bit_reversed(6)], hot), torus
        )
        assert region.spread == 64

    def test_tied_regions_keep_first_cell_order(self):
        """Regions tied on (onset, link_windows) stay in first-cell order."""
        torus = Torus3D((8, 8, 8))
        # Four +x links of nodes far apart: pairwise vertex-disjoint.
        link_ids = np.array([300, 3, 100, 450]) * 3
        hot = np.zeros((4, 3), dtype=bool)
        hot[:, 1] = True
        hot[2, 2] = True  # the third region is larger: it sorts first
        regions = _assert_matches_oracle(_mask_report(link_ids, hot), torus)
        assert [r.links.tolist() for r in regions] == [[2], [0], [1], [3]]


class TestMinLabels:
    def test_zigzag_path_labels_to_zero(self):
        """Path vertices in bit-reversed order: each round hooks only the
        roots of one bit level, so this takes log2(n) = 10 rounds."""
        order = _bit_reversed(10)
        assert np.array_equal(
            _min_labels(len(order), order[1:], order[:-1]),
            np.zeros(len(order), dtype=np.int64),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 80),
        edges=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)), max_size=120),
    )
    def test_labels_are_component_minima(self, n, edges):
        edges = [(a % n, b % n) for a, b in edges]
        a = np.array([e[0] for e in edges], dtype=np.int64)
        b = np.array([e[1] for e in edges], dtype=np.int64)
        comp = list(range(n))  # naive relabelling to the smaller label
        changed = True
        while changed:
            changed = False
            for x, y in edges:
                low = min(comp[x], comp[y])
                if comp[x] != low or comp[y] != low:
                    comp[x] = comp[y] = low
                    changed = True
        assert _min_labels(n, a, b).tolist() == comp


class TestSimulatedReports:
    @pytest.mark.parametrize("topology", DECODERS, ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("routing", ["minimal", "valiant", "ugal"])
    def test_congested_run_matches_oracle(self, topology, routing):
        result = simulate_network(
            spread_matrix(27, seed=5),
            topology,
            execution_time=5e-5,
            seed=2,
            routing=routing,
            telemetry=TelemetryConfig(windows=24),
        )
        for threshold in (0.3, 0.6, 0.9, 1.0):
            _assert_matches_oracle(result.telemetry, topology, threshold)

    def test_tenancy_blame_matches_oracle(self):
        workload = compose_workload(
            [TenantSpec(UniformNoise(fanout=4, volume_mb=32.0), 36)],
            noise=[
                TenantSpec(
                    HotspotNoise(hot_ranks=2, src_ranks=16, volume_mb=32768.0), 36
                )
            ],
            allocation="round_robin",
        )
        topology = Dragonfly(4, 2, 2)
        matrix = matrix_from_trace(workload.trace)
        common = dict(
            execution_time=workload.trace.meta.execution_time, volume_scale=128.0
        )
        result = simulate_network(
            matrix,
            topology,
            telemetry=TelemetryConfig(windows=24),
            job_of_rank=workload.job_of_rank,
            **common,
        )
        setup = prepare_simulation(
            matrix, topology, job_of_rank=workload.job_of_rank, **common
        )
        regions = _assert_matches_oracle(result.telemetry, topology, 0.6)
        assert regions
        got = attribute_regions(regions, result.telemetry, setup)
        want = attribute_regions(
            find_congestion_regions_reference(result.telemetry, topology, 0.6),
            result.telemetry,
            setup,
        )
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.blamed_bytes, b.blamed_bytes)
            assert np.array_equal(a.share, b.share, equal_nan=True)
            assert (a.participants, a.is_shared) == (b.participants, b.is_shared)
