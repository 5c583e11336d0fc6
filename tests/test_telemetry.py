"""The telemetry subsystem: collectors, congestion analysis, and plumbing.

Covers the three pillars of the subsystem:

1. **Bit-identity** — both sim engines feed the collector the same service
   multiset, so the finalized :class:`TelemetryReport` is exactly equal
   (every array bitwise) seed for seed, across topologies, load regimes,
   and routing policies.
2. **Congestion analysis** — hot-link thresholding, spatio-temporal region
   grouping, and the adversarial-traffic routing comparison: UGAL's
   congestion regions are strictly smaller and shorter than minimal's.
3. **Plumbing** — null-collector transparency, npz/json round trips, sweep
   integration, cache-key hygiene, and the CLI surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from helpers import make_matrix, spread_matrix

from repro import cache
from repro.analysis.sweep import SweepSpec, run_sweep
from repro.cli import main as cli_main
from repro.sim import simulate_network
from repro.sim.common import prepare_simulation
from repro.sim.engine import resolve_collector, run_batched
from repro.sim.reference import run_reference
from repro.telemetry import (
    NullCollector,
    TelemetryConfig,
    WindowedCollector,
    adversarial_hot_group_matrix,
    congestion_by_routing,
    congestion_summary,
    find_congestion_regions,
    load_report_npz,
    render_congestion_timeline,
    render_summary,
    report_to_json_dict,
    reports_equal,
    save_report_json,
    save_report_npz,
)
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D

TOPOLOGIES = [
    pytest.param(Torus3D((3, 3, 3)), id="torus3d"),
    pytest.param(FatTree(8, 3), id="fattree"),
    pytest.param(Dragonfly(4, 2, 2), id="dragonfly"),
]

REGIMES = [
    pytest.param(1.0, id="sparse"),
    pytest.param(5e-4, id="dense"),
    pytest.param(5e-5, id="congested"),
]


def _instrumented_pair(setup, config=None):
    """Run both engines over one setup, each with a fresh collector."""
    ref = run_reference(setup, collector=WindowedCollector(config))
    bat = run_batched(setup, collector=WindowedCollector(config))
    return ref, bat


class TestBitIdentity:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("execution_time", REGIMES)
    def test_reports_bit_identical(self, topology, execution_time):
        setup = prepare_simulation(
            spread_matrix(27, seed=1),
            topology,
            execution_time=execution_time,
            seed=3,
        )
        ref, bat = _instrumented_pair(setup)
        assert ref.telemetry is not None and bat.telemetry is not None
        assert reports_equal(ref.telemetry, bat.telemetry)

    @pytest.mark.parametrize("routing", ["minimal", "valiant", "ugal"])
    def test_reports_bit_identical_per_policy(self, routing):
        topo = Dragonfly(4, 2, 2)
        setup = prepare_simulation(
            spread_matrix(27, seed=2),
            topo,
            execution_time=2e-4,
            seed=5,
            routing=routing,
            routing_seed=1,
        )
        ref, bat = _instrumented_pair(setup)
        assert reports_equal(ref.telemetry, bat.telemetry)

    def test_tie_storm_reports_identical(self):
        matrix = make_matrix(8, [(0, 1, 400 * 4096)])
        setup = prepare_simulation(
            matrix, Torus3D((2, 2, 2)), execution_time=1e-5, seed=11
        )
        config = TelemetryConfig(windows=7, queue_depth_bins=8)
        ref, bat = _instrumented_pair(setup, config)
        assert reports_equal(ref.telemetry, bat.telemetry)

    def test_simulate_network_engines_match(self):
        matrix = spread_matrix(27, seed=4)
        kw = dict(
            execution_time=4e-4, seed=2, telemetry=TelemetryConfig(windows=12)
        )
        a = simulate_network(matrix, FatTree(8, 3), engine="batched", **kw)
        b = simulate_network(matrix, FatTree(8, 3), engine="reference", **kw)
        assert reports_equal(a.telemetry, b.telemetry)


class TestResultLinkFields:
    """Satellite: per-link serve counts and peak occupancy on the result."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_serve_counts_identical_between_engines(self, topology):
        setup = prepare_simulation(
            spread_matrix(27, seed=6), topology, execution_time=3e-4, seed=1
        )
        ref = run_reference(setup)
        bat = run_batched(setup)
        assert np.array_equal(ref.link_ids, bat.link_ids)
        assert np.array_equal(ref.link_serve_counts, bat.link_serve_counts)
        assert np.array_equal(ref.link_ids, setup.link_ids)
        assert ref.link_serve_counts.sum() == setup.total_hops
        assert ref.peak_link_busy_fraction == bat.peak_link_busy_fraction

    def test_peak_link_busy_fraction_definition(self):
        setup = prepare_simulation(
            spread_matrix(27, seed=6),
            Torus3D((3, 3, 3)),
            execution_time=3e-4,
            seed=1,
        )
        result = run_batched(setup)
        expected = (
            float(result.link_serve_counts.max())
            * setup.service
            / result.makespan
        )
        assert result.peak_link_busy_fraction == pytest.approx(expected)
        assert 0.0 < result.peak_link_busy_fraction <= 1.0

    def test_empty_simulation_has_no_link_fields(self):
        result = simulate_network(make_matrix(8, []), Torus3D((2, 2, 2)))
        assert result.peak_link_busy_fraction == 0.0
        assert result.telemetry is None


class TestCollectorPlumbing:
    def test_default_run_has_no_telemetry(self):
        result = simulate_network(
            spread_matrix(27, seed=0), Torus3D((3, 3, 3)), execution_time=1e-3
        )
        assert result.telemetry is None

    def test_null_collector_is_transparent(self):
        setup = prepare_simulation(
            spread_matrix(27, seed=0),
            Torus3D((3, 3, 3)),
            execution_time=1e-3,
            seed=2,
        )
        bare = run_batched(setup)
        nulled = run_batched(setup, collector=NullCollector())
        assert nulled == bare
        assert nulled.telemetry is None

    def test_resolve_collector_forms(self):
        assert resolve_collector(None) is None
        assert isinstance(resolve_collector(TelemetryConfig()), WindowedCollector)
        null = NullCollector()
        assert resolve_collector(null) is null
        with pytest.raises(TypeError):
            resolve_collector("windowed")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"windows": 0},
            {"windows": -3},
            {"queue_depth_bins": 1},
            {"stall_octaves": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryConfig(**kwargs)


class TestReportInternals:
    @pytest.fixture(scope="class")
    def run(self):
        setup = prepare_simulation(
            spread_matrix(27, seed=3),
            Dragonfly(4, 2, 2),
            execution_time=2e-4,
            seed=9,
        )
        result = run_batched(
            setup, collector=WindowedCollector(TelemetryConfig(windows=16))
        )
        return setup, result

    def test_serve_series_totals(self, run):
        setup, result = run
        report = result.telemetry
        assert report.serve_series.shape == (setup.num_links, 16)
        assert np.array_equal(
            report.serve_series.sum(axis=1), result.link_serve_counts
        )

    def test_occupancy_accounts_every_service_second(self, run):
        setup, result = run
        report = result.telemetry
        per_link = report.occupancy.sum(axis=1)
        expected = result.link_serve_counts * setup.service
        assert np.allclose(per_link, expected, rtol=1e-9)
        assert report.occupancy_fraction().max() <= 1.0 + 1e-9
        assert report.peak_occupancy > 0.0

    def test_packet_flow_conservation(self, run):
        setup, result = run
        report = result.telemetry
        assert report.injections.sum() == result.packets_simulated
        assert report.ejections.sum() == result.packets_simulated
        assert report.injected_series.sum() == result.packets_simulated
        assert report.delivered_series.sum() == result.packets_simulated
        # Injections are per *source node*, ejections per destination node.
        src_nodes = np.unique(setup.pair_src[setup.inject_pair])
        assert np.all(report.injections[src_nodes] > 0)

    def test_histograms_cover_every_hop(self, run):
        setup, result = run
        report = result.telemetry
        assert report.queue_depth_hist.sum() == setup.total_hops
        assert report.stall_hist.sum() == setup.total_hops
        # Bin zero of the stall histogram is exactly the wait-free hops.
        assert report.stall_hist[0] < setup.total_hops  # congested regime

    def test_window_geometry(self, run):
        _, result = run
        report = result.telemetry
        assert report.span == result.makespan
        assert report.window_dt * report.num_windows == pytest.approx(
            report.span
        )


class TestCongestionRegions:
    def test_quiet_run_has_no_regions(self):
        result = simulate_network(
            spread_matrix(27, seed=0),
            Torus3D((3, 3, 3)),
            execution_time=1.0,  # sparse: no link is ever near saturation
            telemetry=TelemetryConfig(windows=8),
        )
        topo = Torus3D((3, 3, 3))
        assert find_congestion_regions(result.telemetry, topo, 0.9) == []
        summary = congestion_summary(result.telemetry, topo, 0.9)
        assert summary.num_regions == 0
        assert summary.peak_region_links == 0
        assert summary.longest_region_s == 0.0
        assert summary.first_onset_window == -1

    def test_single_link_storm_is_one_region(self):
        topo = Torus3D((2, 2, 2))
        matrix = make_matrix(8, [(0, 1, 400 * 4096)])
        result = simulate_network(
            matrix,
            topo,
            execution_time=1e-5,
            seed=11,
            telemetry=TelemetryConfig(windows=10),
        )
        regions = find_congestion_regions(result.telemetry, topo, 0.9)
        assert len(regions) == 1
        region = regions[0]
        # One saturated path, hot over essentially the whole makespan.
        assert region.onset_window == 0
        assert region.duration_windows >= 8
        assert region.peak_links >= 1
        assert region.link_windows == region.duration_windows * region.spread
        assert region.duration_s == pytest.approx(
            region.duration_windows * result.telemetry.window_dt
        )

    def test_threshold_validation(self):
        result = simulate_network(
            make_matrix(8, [(0, 1, 40 * 4096)]),
            Torus3D((2, 2, 2)),
            telemetry=TelemetryConfig(windows=4),
        )
        for entry in (find_congestion_regions, congestion_summary):
            for threshold in (0.0, 1.5, float("nan")):
                with pytest.raises(ValueError, match="threshold"):
                    entry(result.telemetry, Torus3D((2, 2, 2)), threshold)


class TestAdversarialRoutingComparison:
    """The paper-facing claim: adaptive routing flattens the congestion
    timeline minimal routing produces on hot-group dragonfly traffic."""

    @pytest.fixture(scope="class")
    def records(self):
        topo = Dragonfly(4, 2, 2)
        matrix = adversarial_hot_group_matrix(topo, packets_per_pair=40)
        recs = congestion_by_routing(
            matrix,
            topo,
            routings=("minimal", "valiant", "ugal"),
            execution_time=2e-3,
            threshold=0.4,
            windows=24,
        )
        return {r["routing"]: r for r in recs}

    def test_minimal_sustains_a_congestion_region(self, records):
        minimal = records["minimal"]
        assert minimal["num_regions"] >= 1
        assert minimal["peak_region_links"] >= 1
        assert minimal["longest_region_s"] > 0.0
        assert minimal["hot_windows"] >= 10  # hot for most of the run

    def test_ugal_strictly_below_minimal(self, records):
        minimal, ugal = records["minimal"], records["ugal"]
        assert ugal["peak_region_links"] < minimal["peak_region_links"]
        assert ugal["longest_region_s"] < minimal["longest_region_s"]
        assert ugal["total_hot_seconds"] < minimal["total_hot_seconds"]
        assert ugal["peak_window_occupancy"] < minimal["peak_window_occupancy"]

    def test_ugal_timeline_is_flat(self, records):
        # UGAL spreads the hot-group load over intermediate groups: no link
        # ever crosses the hot threshold at all.
        assert records["ugal"]["hot_windows"] == 0
        assert records["valiant"]["hot_windows"] == 0

    def test_adversarial_matrix_shape(self):
        topo = Dragonfly(4, 2, 2)
        matrix = adversarial_hot_group_matrix(topo, packets_per_pair=5)
        per_group = topo.num_nodes // topo.num_groups
        assert matrix.num_pairs == per_group * per_group


class TestExport:
    @pytest.fixture(scope="class")
    def report(self):
        result = simulate_network(
            spread_matrix(27, seed=5),
            Dragonfly(4, 2, 2),
            execution_time=3e-4,
            seed=4,
            telemetry=TelemetryConfig(windows=9),
        )
        return result.telemetry

    def test_npz_round_trip_exact(self, report, tmp_path):
        path = save_report_npz(report, tmp_path / "report.npz")
        assert reports_equal(load_report_npz(path), report)

    def test_json_summary(self, report, tmp_path):
        d = report_to_json_dict(report)
        assert d["num_windows"] == 9
        assert len(d["injected_series"]) == 9
        assert "serve_series" not in d
        full = report_to_json_dict(report, series=True)
        assert len(full["serve_series"]) == report.num_links
        path = save_report_json(report, tmp_path / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded["peak_occupancy"] == pytest.approx(report.peak_occupancy)


class TestRender:
    def test_timeline_renders_busiest_links(self):
        topo = Torus3D((2, 2, 2))
        result = simulate_network(
            make_matrix(8, [(0, 1, 400 * 4096)]),
            topo,
            execution_time=1e-5,
            seed=11,
            telemetry=TelemetryConfig(windows=12),
        )
        text = render_congestion_timeline(result.telemetry, topo, threshold=0.9)
        assert "occupancy timeline: 12 windows" in text
        assert "torus link" in text  # labeled through describe_link
        assert "hot links >= 0.90" in text
        # Without a topology the rows fall back to raw link IDs.
        assert "link " in render_congestion_timeline(result.telemetry)

    def test_summary_rendering(self):
        topo = Torus3D((2, 2, 2))
        result = simulate_network(
            make_matrix(8, [(0, 1, 400 * 4096)]),
            topo,
            execution_time=1e-5,
            seed=11,
            telemetry=TelemetryConfig(windows=12),
        )
        hot = render_summary(congestion_summary(result.telemetry, topo, 0.9))
        assert "congestion regions" in hot
        sparse = simulate_network(
            make_matrix(8, [(0, 1, 4096)]),
            topo,
            execution_time=1.0,
            telemetry=TelemetryConfig(windows=12),
        )
        quiet = render_summary(congestion_summary(sparse.telemetry, topo, 0.9))
        assert "no congestion regions" in quiet


class TestSweepIntegration:
    def test_telemetry_axis_merges_summary_fields(self):
        spec = SweepSpec(
            apps=(("AMG", 8),),
            topologies=("torus3d",),
            telemetry=True,
            telemetry_windows=8,
            telemetry_threshold=0.5,
        )
        records = run_sweep(spec)
        assert len(records) == 1
        record = records[0]
        for key in (
            "makespan_inflation",
            "peak_link_busy_fraction",
            "peak_window_occupancy",
            "num_regions",
            "longest_region_s",
            "hot_windows",
        ):
            assert key in record, key
        assert record["threshold"] == 0.5
        # Records stay flat scalars (export/pickle-safe).
        assert all(
            isinstance(v, (str, int, float)) for v in record.values()
        )

    def test_telemetry_off_keeps_records_unchanged(self):
        spec = SweepSpec(apps=(("AMG", 8),), topologies=("torus3d",))
        record = run_sweep(spec)[0]
        assert "peak_window_occupancy" not in record
        assert "num_regions" not in record

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"telemetry_windows": 0},
            {"telemetry_threshold": 0.0},
            {"telemetry_threshold": 1.5},
            {"sim_volume_scale": 0.0},
            {"sim_volume_scale": 0.5},  # the simulator needs volume_scale >= 1
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(apps=(("AMG", 8),), **kwargs)


class TestCacheHygiene:
    def test_telemetry_config_does_not_poison_route_cache(self):
        """The same traffic hits the cached incidence whether or not the run
        is instrumented: telemetry config never enters a cache key."""
        matrix = spread_matrix(27, seed=8)
        topo = Torus3D((3, 3, 3))
        cache.clear(memory=True)
        simulate_network(matrix, topo, execution_time=1e-3)
        before = cache.stats()["incidence"]
        simulate_network(
            matrix,
            topo,
            execution_time=1e-3,
            telemetry=TelemetryConfig(windows=32),
        )
        after = cache.stats()["incidence"]
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1


class TestCli:
    def run(self, capsys, *argv):
        code = cli_main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_telemetry_command(self, capsys, tmp_path):
        out_path = tmp_path / "report.npz"
        out = self.run(
            capsys,
            "telemetry",
            "--app", "AMG", "--ranks", "8",
            "--topology", "torus3d",
            "--windows", "6",
            "--threshold", "0.5",
            "--out", str(out_path),
        )
        assert "occupancy timeline: 6 windows" in out
        assert load_report_npz(out_path).num_windows == 6

    def test_telemetry_compare(self, capsys):
        out = self.run(
            capsys,
            "telemetry",
            "--app", "AMG", "--ranks", "8",
            "--topology", "dragonfly",
            "--windows", "6",
            "--compare", "minimal,valiant",
        )
        assert "congestion by routing" in out
        assert "minimal" in out and "valiant" in out

    def test_sweep_telemetry_flag(self, capsys):
        out = self.run(
            capsys,
            "sweep",
            "--app", "AMG", "--ranks", "8",
            "--topologies", "torus3d",
            "--format", "json",
            "--telemetry",
        )
        records = json.loads(out)
        assert "peak_window_occupancy" in records[0]


# ---------------------------------------------------------------- boundaries


class TestWindowBoundaries:
    """Occupancy attribution at exact window edges (synthetic services).

    The collector splits each service's busy time across the windows it
    overlaps; these tests pin the edge conventions — a service beginning
    exactly on a boundary belongs wholly to the window it opens, straddling
    services split exactly, and the last window absorbs the rounding tail.
    """

    @staticmethod
    def _finalize(begins, *, service=1.0, makespan=4.0, windows=4):
        from types import SimpleNamespace

        begins = np.asarray(begins, dtype=np.float64)
        setup = SimpleNamespace(
            num_links=2,
            total_hops=len(begins),
            service=service,
            link_ids=np.array([5, 9], dtype=np.int64),
            pair_src=np.array([0, 1], dtype=np.int64),
            pair_dst=np.array([1, 0], dtype=np.int64),
            inject_pair=np.zeros(1, dtype=np.int64),
            inject_time=np.zeros(1, dtype=np.float64),
        )
        result = SimpleNamespace(makespan=makespan)
        collector = WindowedCollector(TelemetryConfig(windows=windows))
        collector.start(setup)
        collector.record_services(
            np.zeros(len(begins), dtype=np.int64),
            begins,
            np.zeros(len(begins), dtype=np.float64),
        )
        return collector.finalize(setup, result, np.array([makespan / 2]))

    def test_begin_exactly_on_boundary(self):
        r = self._finalize([1.0])
        assert r.serve_series[0].tolist() == [0, 1, 0, 0]
        assert r.occupancy[0].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_service_ending_exactly_on_boundary_does_not_spill(self):
        r = self._finalize([0.0])
        assert r.occupancy[0].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_straddling_service_splits_exactly(self):
        r = self._finalize([0.5])
        assert r.serve_series[0].tolist() == [1, 0, 0, 0]
        assert r.occupancy[0].tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_near_boundary_split_conserves_total(self):
        r = self._finalize([0.9, 2.25])
        assert r.occupancy[0].tolist() == pytest.approx([0.1, 0.9, 0.75, 0.25])
        assert float(r.occupancy.sum()) == pytest.approx(2.0)

    def test_last_window_absorbs_tail(self):
        # ends at 4.5, past the 4.0 span: the tail stays in window 3
        r = self._finalize([3.5])
        assert r.occupancy[0].tolist() == pytest.approx([0.0, 0.0, 0.0, 1.0])

    def test_zero_span_collapses_to_window_zero(self):
        r = self._finalize([0.0, 0.0], makespan=0.0)
        assert r.window_dt == 0.0
        assert int(r.serve_series[0].sum()) == 2
        assert float(r.occupancy.sum()) == pytest.approx(2.0)

    def test_occupancy_invariant_holds_on_boundary_reports(self):
        from repro.validation import CheckContext, run_invariants

        for begins in ([1.0], [0.0], [0.5], [0.9, 2.25], [3.0]):
            report = self._finalize(begins)
            ctx = CheckContext(label="synthetic", telemetry=report)
            assert run_invariants(ctx) == []


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the dev env
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestCompactCollector:
    """``WindowedCollector`` keeps links and begins and bins waits as they
    arrive; ``tests/oracles/telemetry.py``'s ``BufferedCollector`` buffers
    every raw service.  Fed the same stream, in any chunking, their reports
    are equal bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_links=st.sampled_from([1, 7, 300, 70_000]),
        services=st.integers(0, 3_000),
        service=st.sampled_from([1e-6, 3.3e-7, 0.0]),
        windows=st.integers(1, 64),
        depth_bins=st.integers(2, 40),
        octaves=st.integers(1, 22),
        chunks=st.integers(1, 12),
    )
    def test_matches_buffering_oracle(
        self, seed, num_links, services, service, windows, depth_bins, octaves, chunks
    ):
        from types import SimpleNamespace

        from oracles.telemetry import BufferedCollector

        rng = np.random.default_rng(seed)
        links = rng.integers(0, num_links, services)
        begins = np.sort(rng.uniform(0.0, 1e-3, services))
        # Waits: mostly none, some exact multiples of the service, some
        # past every histogram's cap.
        kind = rng.integers(0, 3, services)
        waits = np.where(
            kind == 0,
            0.0,
            np.where(
                kind == 1,
                rng.integers(1, 64, services) * service,
                rng.uniform(0.0, 2.0**22, services) * service,
            ),
        )
        if service == 0.0:
            waits[:] = 0.0  # a zero service time never queues
        setup = SimpleNamespace(
            num_links=num_links,
            total_hops=services,
            service=service,
            link_ids=np.arange(num_links, dtype=np.int64),
            pair_src=np.array([0, 1], dtype=np.int64),
            pair_dst=np.array([1, 2], dtype=np.int64),
            inject_pair=rng.integers(0, 2, 5),
            inject_time=rng.uniform(0.0, 1e-3, 5),
        )
        span = float(begins[-1]) + service if services else 0.0
        result = SimpleNamespace(makespan=span)
        delivered = rng.uniform(0.0, span, 5)
        config = TelemetryConfig(
            windows=windows, queue_depth_bins=depth_bins, stall_octaves=octaves
        )
        cuts = np.sort(rng.integers(0, services + 1, chunks - 1))
        reports = []
        for collector in (WindowedCollector(config), BufferedCollector(config)):
            collector.start(setup)
            for part in np.split(np.arange(services), cuts):
                collector.record_services(links[part], begins[part], waits[part])
            reports.append(collector.finalize(setup, result, delivered))
        assert reports_equal(*reports)
