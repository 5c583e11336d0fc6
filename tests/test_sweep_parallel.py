"""run_sweep(workers=N): deterministic records regardless of worker count."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import SweepSpec, run_sweep


@pytest.fixture(scope="module")
def spec() -> SweepSpec:
    return SweepSpec(
        apps=(("LULESH", 64), ("AMG", 27)),
        topologies=("torus3d", "fattree", "dragonfly"),
        mappings=("consecutive", "random"),
        payloads=(4096, 1024),
        bandwidths=(12e9, 1e9),
    )


@pytest.fixture(scope="module")
def sequential(spec) -> list[dict]:
    return run_sweep(spec, workers=1)


class TestParallelIdentity:
    def test_worker_counts_produce_identical_records(self, spec, sequential):
        # identical = same order AND same values, not merely same set
        assert run_sweep(spec, workers=2) == sequential
        assert run_sweep(spec, workers=4) == sequential

    def test_record_count_and_order(self, spec, sequential):
        assert len(sequential) == spec.num_points  # includes the bandwidth axis
        # canonical order: apps > payloads > topologies > mappings > bandwidths
        first = sequential[0]
        assert (first["app"], first["payload"]) == ("LULESH", 4096)
        assert (first["topology"], first["mapping"]) == ("torus3d", "consecutive")
        assert first["bandwidth"] == 12e9
        second = sequential[1]
        assert second["bandwidth"] == 1e9
        assert {k: second[k] for k in ("app", "topology", "mapping", "payload")} == {
            k: first[k] for k in ("app", "topology", "mapping", "payload")
        }

    def test_workers_must_be_positive(self, spec):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(spec, workers=0)

    def test_single_point_grid(self):
        tiny = SweepSpec(apps=(("LULESH", 64),), topologies=("torus3d",))
        assert run_sweep(tiny, workers=4) == run_sweep(tiny, workers=1)

    def test_routing_axis_parallel_identity(self):
        """Multi-policy sweeps stay deterministic across worker counts."""
        spec = SweepSpec(
            apps=(("LULESH", 64),),
            topologies=("dragonfly", "torus3d"),
            routings=("minimal", "valiant", "ugal"),
        )
        sequential = run_sweep(spec, workers=1)
        assert run_sweep(spec, workers=2) == sequential
        assert run_sweep(spec, workers=4) == sequential
        assert len(sequential) == spec.num_points == 6
        # routing is the innermost axis of the canonical grid order
        assert [r["routing"] for r in sequential[:3]] == [
            "minimal",
            "valiant",
            "ugal",
        ]
        assert all(r["topology"] == "dragonfly" for r in sequential[:3])
        # non-minimal detours show up in the records
        by_routing = {r["routing"]: r for r in sequential[:3]}
        assert by_routing["valiant"]["avg_hops"] > by_routing["minimal"]["avg_hops"]

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError, match="routing"):
            SweepSpec(routings=("minimal", "shortest"))

    def test_progress_sequential_counts_every_cell(self):
        spec = SweepSpec(
            apps=(("LULESH", 64),), topologies=("torus3d", "fattree")
        )
        calls: list[tuple[int, int]] = []
        run_sweep(spec, workers=1, progress=lambda d, t: calls.append((d, t)))
        total = len(spec.points())
        assert calls == [(i + 1, total) for i in range(total)]

    def test_progress_parallel_monotonic_to_total(self):
        spec = SweepSpec(
            apps=(("LULESH", 64),),
            topologies=("torus3d", "fattree", "dragonfly"),
            mappings=("consecutive", "random"),
        )
        calls: list[tuple[int, int]] = []
        records = run_sweep(
            spec, workers=3, progress=lambda d, t: calls.append((d, t))
        )
        total = len(spec.points())
        done = [d for d, _ in calls]
        assert all(t == total for _, t in calls)
        assert done == sorted(done)
        assert done[-1] == total
        assert records == run_sweep(spec, workers=1)

    def test_bandwidth_only_affects_utilization(self, sequential):
        by_key: dict[tuple, list[dict]] = {}
        for r in sequential:
            by_key.setdefault(
                (r["app"], r["topology"], r["mapping"], r["payload"]), []
            ).append(r)
        for group in by_key.values():
            assert len(group) == 2
            a, b = group
            assert a["packet_hops"] == b["packet_hops"]
            assert a["avg_hops"] == b["avg_hops"]
            assert a["used_links"] == b["used_links"]
            if a["packet_hops"]:
                # a ran at 12 GB/s, b at 1 GB/s: same traffic, more headroom
                assert a["utilization_percent"] < b["utilization_percent"]


class TestSimulationGroups:
    """Dense telemetry simulations run in groups that share kernel rounds
    (``repro.sim.engine.run_group``); grouping changes no record and no
    cache lookup count."""

    SPEC = SweepSpec(
        apps=(("AMG", 216), ("LULESH", 64)),
        topologies=("torus3d", "fattree"),
        routings=("minimal", "ugal"),
        bandwidths=(12e9, 24e9),
        telemetry=True,
        sim_volume_scale=3200.0,
    )

    @staticmethod
    def _run(monkeypatch, budget=None, workers=1):
        """Records, progress calls, cache counts and group sizes of a run."""
        from repro import cache
        from repro.sim import engine

        if budget is not None:
            monkeypatch.setattr(engine, "GROUP_HOP_BUDGET", budget)
        sizes = []
        run_group = engine.run_group

        def counted(members):
            sizes.append(len(members))
            return run_group(members)

        monkeypatch.setattr(engine, "run_group", counted)
        cache.configure(disable_disk=True)
        cache.clear()
        calls = []
        records = run_sweep(
            TestSimulationGroups.SPEC,
            workers=workers,
            progress=lambda done, total: calls.append((done, total)),
        )
        stats = cache.stats()
        monkeypatch.undo()
        return records, calls, stats, sizes

    def test_grouping_changes_no_record_and_no_cache_count(self, monkeypatch):
        solo, solo_calls, solo_stats, solo_sizes = self._run(monkeypatch, budget=1)
        grouped, calls, stats, sizes = self._run(monkeypatch)
        assert solo_sizes and set(solo_sizes) == {1}
        assert max(sizes) > 1  # the default budget really groups
        assert sum(sizes) == sum(solo_sizes)
        assert grouped == solo
        assert stats == solo_stats
        total = self.SPEC.num_points // len(self.SPEC.bandwidths)
        for progress in (solo_calls, calls):
            assert [done for done, _ in progress] == sorted(
                done for done, _ in progress
            )
            assert progress[-1] == (total, total)
            assert {t for _, t in progress} == {total}
        assert any(r["makespan_inflation"] == r["makespan_inflation"] for r in solo)

    def test_grouped_pool_matches_sequential(self, monkeypatch):
        sequential, *_ = self._run(monkeypatch)
        pooled, calls, *_ = self._run(monkeypatch, workers=2)
        assert pooled == sequential
        assert calls[-1][0] == calls[-1][1]
