"""Tests for the sharded sweep service (repro.service).

Covers the identity layer (cell keys, spec round-trip), the journal's
crash-resume semantics (torn tails, duplicate entries), the scheduler's
affinity/random placement, and the service end to end: bit-identical
records vs ``run_sweep`` under any worker count, cross-job dedup, cancel,
a SIGKILL'd worker mid-job, and a SIGKILL'd *server* resumed from its
journal in a fresh process.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import logging
import os
import signal
import socket
import time
from pathlib import Path

import pytest

from repro import cache
from repro.analysis.sweep import SweepSpec, run_sweep
from repro.service.cells import (
    CELL_KEY_VERSION,
    affinity_token,
    cell_key,
    expand_cells,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.client import ServiceError, SweepClient
from repro.service.journal import JOURNAL_VERSION, JobJournal
from repro.service.scheduler import CellScheduler
from repro.service.server import SweepService

from helpers import shutdown_server, spawn_server

SMALL_SPEC = SweepSpec(
    apps=(("LULESH", 64),),
    topologies=("torus3d", "fattree"),
    mappings=("consecutive", "bisection"),
    payloads=(4096,),
)


def small_reference_records():
    cache.clear(memory=True)
    return run_sweep(SMALL_SPEC)


# ---------------------------------------------------------------- identity


class TestCells:
    def test_spec_round_trips_exactly(self):
        spec = SweepSpec(
            apps=(("LULESH", 64), ("AMG", 216)),
            topologies=("dragonfly",),
            mappings=("greedy",),
            payloads=(1024, 4096),
            bandwidths=(6e9, 12e9),
            routings=("minimal", "ecmp"),
            include_collectives=False,
            seed=3,
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_spec_field_rejected(self):
        data = spec_to_dict(SMALL_SPEC)
        data["workers"] = 4
        with pytest.raises(ValueError, match="unknown sweep spec fields"):
            spec_from_dict(data)

    def test_cell_key_covers_shared_fields(self):
        point = SMALL_SPEC.points()[0]
        base = cell_key(SMALL_SPEC, point)
        assert base == cell_key(SMALL_SPEC, point)  # deterministic
        import dataclasses

        for change in (
            {"seed": 1},
            {"bandwidths": (6e9,)},
            {"include_collectives": False},
        ):
            other = dataclasses.replace(SMALL_SPEC, **change)
            assert cell_key(other, point) != base, change

    @pytest.mark.parametrize(
        "field, value",
        [
            ("include_collectives", "false"),
            ("telemetry", 1),
            ("seed", "3"),
            ("seed", True),
            ("telemetry_windows", "48"),
            ("payloads", [4096.5]),
            ("apps", [["LULESH", "64"]]),
        ],
    )
    def test_wire_decoding_is_strict(self, field, value):
        data = spec_to_dict(SMALL_SPEC)
        data[field] = value
        with pytest.raises(ValueError, match=f"^{field}: "):
            spec_from_dict(data)

    def test_affinity_token_groups_by_trace(self):
        points = SMALL_SPEC.points()
        tokens = {affinity_token(SMALL_SPEC, p) for p in points}
        assert tokens == {"LULESH:64:0"}  # one trace -> one group

    def test_expand_cells_collapses_duplicates(self):
        doubled = SweepSpec(
            apps=(("LULESH", 64), ("LULESH", 64)),
            topologies=("torus3d",),
            mappings=("consecutive",),
        )
        cells, collapsed = expand_cells(doubled)
        assert collapsed == 1
        assert len(cells) == 1
        assert len({c.key for c in cells}) == len(cells)

    def test_run_sweep_warns_once_about_collapsed_cells(self, caplog):
        doubled = SweepSpec(
            apps=(("LULESH", 64),),
            topologies=("torus3d", "torus3d"),
            mappings=("consecutive",),
        )
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            records = run_sweep(doubled)
        messages = [r for r in caplog.records if "collapsed" in r.message]
        assert len(messages) == 1
        assert len(records) == 1  # evaluated once, recorded once


#: One small cell; the identity tests perturb it field by field.  On
#: MOCFE@64 every field that is active changes the records (on AMG@8, for
#: one, neither the seed nor include_collectives does); the volume scale
#: keeps its simulation fast.
ONE_CELL_SPEC = SweepSpec(
    apps=(("MOCFE", 64),), topologies=("torus3d",), sim_volume_scale=256.0
)

#: A value different from ``ONE_CELL_SPEC``'s for every non-boolean field
#: (booleans are flipped).  A field added to ``SweepSpec`` without an
#: entry here fails the completeness test.
PERTURBED = {
    "apps": (("AMG", 8),),
    "payloads": (1024,),
    "topologies": ("fattree",),
    "mappings": ("bisection",),
    "routings": ("valiant",),
    "collectives": ("binomial",),
    "bandwidths": (6e9,),
    "seed": 1,
    "telemetry_windows": 8,
    "telemetry_threshold": 0.5,
    "sim_volume_scale": 512.0,
    "critpath_max_repeat": 2,
}


def _records_json(spec: SweepSpec) -> str:
    return json.dumps(run_sweep(spec), sort_keys=True)


class TestCellIdentity:
    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("critpath", [False, True])
    def test_key_changes_iff_records_change(self, telemetry, critpath):
        """Records differ => keys differ (no aliasing), and keys differ =>
        records differ (a field inert under its gate never fragments)."""
        base = dataclasses.replace(
            ONE_CELL_SPEC, telemetry=telemetry, critpath=critpath
        )
        (point,) = base.points()
        base_key = cell_key(base, point)
        base_records = _records_json(base)
        for field in dataclasses.fields(SweepSpec):
            value = getattr(base, field.name)
            changed = dataclasses.replace(
                base,
                **{
                    field.name: not value
                    if isinstance(value, bool)
                    else PERTURBED[field.name]
                },
            )
            (changed_point,) = changed.points()
            key_changed = cell_key(changed, changed_point) != base_key
            records_changed = _records_json(changed) != base_records
            assert key_changed == records_changed, field.name

    def test_python_and_wire_specs_share_one_key(self):
        spec = dataclasses.replace(ONE_CELL_SPEC, telemetry=True)
        wire = spec_from_dict(
            {
                "apps": [["MOCFE", 64]],
                "topologies": ["torus3d"],
                "payloads": [4096.0],
                "sim_volume_scale": 256,
                "telemetry": True,
            }
        )
        assert wire == spec
        (point,) = spec.points()
        assert cell_key(wire, point) == cell_key(spec, point)

    def test_record_schema_is_pinned_to_the_key_version(self):
        """Changing record fields, rounding, or cell evaluation changes this
        digest: bump ``CELL_KEY_VERSION`` and re-pin both together."""
        cache.clear(memory=True)
        records = run_sweep(
            dataclasses.replace(ONE_CELL_SPEC, telemetry=True, critpath=True)
        )
        raw = json.dumps(
            {"keys": sorted(records[0]), "records": records}, sort_keys=True
        )
        digest = hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()
        assert {CELL_KEY_VERSION: digest} == {4: "b3eb8557aeabbd57fc0f7c2945409d1c"}


# ---------------------------------------------------------------- journal


class TestJournal:
    def test_round_trip_and_first_occurrence_wins(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        with JobJournal(path, batch=1) as journal:
            journal.append("aa", [{"x": 1}])
            journal.append("bb", [{"x": 2.5}])
            journal.append("aa", [{"x": 999}])  # duplicate: ignored on replay
        entries, good_end = JobJournal.replay(path)
        assert entries == {"aa": [{"x": 1}], "bb": [{"x": 2.5}]}
        assert good_end == path.stat().st_size

    def test_torn_tail_is_truncated_and_resumed(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        with JobJournal(path, batch=1) as journal:
            journal.append("aa", [{"x": 1}])
            journal.append("bb", [{"x": 2}])
        clean_size = path.stat().st_size
        with path.open("ab") as fh:  # writer died mid-append
            fh.write(b'{"v": 1, "cell": "cc", "rec')
        entries, good_end = JobJournal.replay(path)
        assert set(entries) == {"aa", "bb"}
        assert good_end == clean_size

        journal = JobJournal(path, batch=1)
        journal.open(truncate_to=good_end)
        journal.append("cc", [{"x": 3}])
        journal.close()
        entries, _ = JobJournal.replay(path)
        assert set(entries) == {"aa", "bb", "cc"}

    def test_garbage_line_stops_replay(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        good = json.dumps({"v": JOURNAL_VERSION, "cell": "aa", "records": []})
        path.write_bytes(good.encode() + b"\nnot json\n" + good.encode() + b"\n")
        entries, good_end = JobJournal.replay(path)
        assert set(entries) == {"aa"}
        assert good_end == len(good.encode()) + 1

    def test_missing_file_is_empty(self, tmp_path):
        entries, good_end = JobJournal.replay(tmp_path / "absent.jsonl")
        assert entries == {} and good_end == 0

    def test_batching_defers_flush(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        journal = JobJournal(path, batch=100)
        journal.open()
        journal.append("aa", [])
        assert JobJournal.replay(path)[0] == {}  # buffered, not yet on disk
        journal.flush()
        assert set(JobJournal.replay(path)[0]) == {"aa"}
        journal.close()


# --------------------------------------------------------------- scheduler


class TestScheduler:
    def test_affinity_is_sticky_per_token(self):
        sched = CellScheduler("affinity")
        for wid in range(3):
            sched.add_worker(wid)
        first = sched.assign("tokA", "k1")
        assert sched.assign("tokA", "k2") == first
        other = sched.assign("tokB", "k3")
        assert other != first  # least-loaded, not the busy one
        assert sched.assign("tokA", "k4") == first

    def test_affinity_balances_new_tokens_by_load(self):
        sched = CellScheduler("affinity")
        sched.add_worker(0)
        sched.add_worker(1)
        assert sched.assign("a", "k1") == 0
        assert sched.assign("b", "k2") == 1
        sched.release(0)
        assert sched.assign("c", "k3") == 0

    def test_orphaned_cell_returns_to_its_respawned_sticky_slot(self):
        """The server's respawn path: release the dead slot's charge,
        re-add the slot, assign the orphan again."""
        sched = CellScheduler("affinity")
        sched.add_worker(0)
        sched.add_worker(1)
        assert [sched.assign("a", k) for k in ("k1", "k2", "k3")] == [0, 0, 0]
        assert sched.assign("b", "k4") == 1
        sched.release(0)  # slot 0 died with k1 in flight
        sched.add_worker(0)  # respawned: same slot, load kept
        assert sched.load() == {0: 2, 1: 1}
        assert sched.assign("a", "k1") == 0  # sticky, not least-loaded
        assert sched.load() == {0: 3, 1: 1}

    def test_random_mode_is_stable_by_key_and_ignores_tokens(self):
        sched = CellScheduler("random")
        for wid in range(4):
            sched.add_worker(wid)
        a = sched.assign("tok", "key-1")
        sched.release(a)
        assert sched.assign("other-tok", "key-1") == a
        spread = {sched.assign("tok", f"key-{i}") for i in range(40)}
        assert len(spread) > 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler mode"):
            CellScheduler("round-robin")


# ------------------------------------------------------------- service e2e


def _run_service(coro_fn, tmp_path, **service_kwargs):
    """Run ``await coro_fn(svc)`` against a started service, then stop it."""

    async def _main():
        svc = SweepService(tmp_path / "state", **service_kwargs)
        await svc.start()
        try:
            return await coro_fn(svc)
        finally:
            await svc.stop()

    return asyncio.run(_main())


class TestServiceEndToEnd:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("scheduler", ["affinity", "random"])
    def test_records_bit_identical_to_run_sweep(
        self, tmp_path, workers, scheduler
    ):
        reference = small_reference_records()

        async def scenario(svc):
            job = svc.submit(spec_to_dict(SMALL_SPEC))["job"]
            assert await svc.wait(job) == "done"
            return svc.results(job)

        records = _run_service(
            scenario, tmp_path, workers=workers, scheduler=scheduler
        )
        assert records == reference

    def test_concurrent_identical_jobs_share_computation(self, tmp_path):
        async def scenario(svc):
            spec = spec_to_dict(SMALL_SPEC)
            job_a = svc.submit(spec)["job"]
            job_b = svc.submit(spec)["job"]
            assert await svc.wait(job_a) == "done"
            assert await svc.wait(job_b) == "done"
            return (
                svc.results(job_a),
                svc.results(job_b),
                svc.stats()["counts"],
            )

        records_a, records_b, counts = _run_service(scenario, tmp_path)
        assert records_a == records_b
        assert counts["cells_computed"] == len(SMALL_SPEC.points())
        assert counts["dedup_inflight"] == len(SMALL_SPEC.points())

    def test_resubmit_after_done_hits_record_cache(self, tmp_path):
        async def scenario(svc):
            spec = spec_to_dict(SMALL_SPEC)
            first = svc.submit(spec)["job"]
            assert await svc.wait(first) == "done"
            computed = svc.stats()["counts"]["cells_computed"]
            second = svc.submit(spec)["job"]
            assert await svc.wait(second) == "done"
            counts = svc.stats()["counts"]
            assert counts["cells_computed"] == computed  # nothing recomputed
            assert counts["dedup_warm"] == len(SMALL_SPEC.points())
            return svc.results(first), svc.results(second)

        first, second = _run_service(scenario, tmp_path)
        assert first == second

    def test_cancel_stops_notifications(self, tmp_path):
        async def scenario(svc):
            job = svc.submit(spec_to_dict(SMALL_SPEC))["job"]
            summary = svc.cancel(job)
            assert summary["status"] == "cancelled"
            assert await svc.wait(job) == "cancelled"
            with pytest.raises(RuntimeError, match="cancelled"):
                svc.results(job)

        _run_service(scenario, tmp_path)

    def test_sigkilled_worker_is_respawned_and_job_completes(self, tmp_path):
        reference = small_reference_records()

        async def scenario(svc):
            job = svc.submit(spec_to_dict(SMALL_SPEC))["job"]
            victim = svc.pool.handles()[0]
            # Wait for the worker to exist, then kill it mid-queue.
            for _ in range(100):
                if victim.pid is not None:
                    break
                await asyncio.sleep(0.05)
            assert victim.pid is not None
            os.kill(victim.pid, signal.SIGKILL)
            assert await svc.wait(job) == "done"
            assert svc.pool.respawns >= 1
            return svc.results(job)

        records = _run_service(scenario, tmp_path, workers=2)
        assert records == reference


SERVER_SPEC = SweepSpec(
    apps=(("LULESH", 64),),
    topologies=("torus3d", "fattree", "dragonfly"),
    mappings=("consecutive", "bisection", "greedy"),
    payloads=(1024, 4096),
)


class TestServerCrashResume:
    def test_sigkilled_server_resumes_from_journal(self, tmp_path):
        state = tmp_path / "state"
        socket_path = tmp_path / "svc.sock"
        server = spawn_server(state, socket_path)
        try:
            client = SweepClient.wait_ready(socket_path, timeout=60.0)
            job = client.submit(spec_to_dict(SERVER_SPEC))["job"]

            # Follow the stream until a few cells are journaled, then
            # SIGKILL the whole server (workers die with it: daemons).
            seen = 0
            for event in client.attach(job):
                if event.get("event") == "cell":
                    seen += 1
                    if seen >= 3:
                        break
            assert seen >= 3
            server.kill()
            server.wait(timeout=10)

            restarted = spawn_server(state, socket_path)
            try:
                client = SweepClient.wait_ready(socket_path, timeout=60.0)
                end = client.wait(job)
                assert end["status"] == "done"
                status = client.status(job)
                # Journaled cells were restored, not recomputed.
                assert status["counts"]["restored"] >= 3
                computed = client.stats()["counts"]["cells_computed"]
                assert status["counts"]["restored"] + computed >= len(
                    SERVER_SPEC.points()
                )
                records = client.results(job)
            finally:
                shutdown_server(client, restarted)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)

        cache.clear(memory=True)
        assert records == run_sweep(SERVER_SPEC)


    def test_sigkilled_server_leaves_no_workers(self, tmp_path):
        socket_path = tmp_path / "svc.sock"
        server = spawn_server(tmp_path / "state", socket_path)
        try:
            client = SweepClient.wait_ready(socket_path, timeout=60.0)
            pids: list = []
            for _ in range(200):
                pids = [w["pid"] for w in client.stats()["workers"]]
                if len(pids) == 2 and None not in pids:
                    break
                time.sleep(0.05)
            assert len(pids) == 2 and None not in pids, pids
            assert all(_running(pid) for pid in pids)
        finally:
            server.kill()
            server.wait(timeout=10)

        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in pids if _running(pid)]


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


class TestSocketApi:
    def test_unary_ops_and_errors_over_socket(self, tmp_path):
        state = tmp_path / "state"
        socket_path = tmp_path / "svc.sock"
        server = spawn_server(state, socket_path)
        try:
            client = SweepClient.wait_ready(socket_path, timeout=60.0)
            assert client.ping()
            assert client.jobs() == []
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("job-9999")

            resp = client.submit(spec_to_dict(SMALL_SPEC))
            assert resp["cells"] == len(SMALL_SPEC.points())
            end = client.wait(resp["job"])
            assert end["status"] == "done"
            assert len(client.results(resp["job"])) == resp["cells"]
            jobs = client.jobs()
            assert [j["job"] for j in jobs] == [resp["job"]]
            assert jobs[0]["status"] == "done"

            stats = client.stats()
            assert stats["counts"]["cells_computed"] == resp["cells"]
            assert len(stats["workers"]) == 2
        finally:
            shutdown_server(client, server)
        # The server removed its socket on clean shutdown.
        deadline = time.monotonic() + 5
        while socket_path.exists() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not socket_path.exists()

    def test_malformed_requests_get_an_error_reply(self, tmp_path):
        """Bad specs and ill-typed fields are answered with ``ok: false`` on
        the same connection, which stays usable afterwards."""
        state = tmp_path / "state"
        socket_path = tmp_path / "svc.sock"
        server = spawn_server(state, socket_path)
        try:
            client = SweepClient.wait_ready(socket_path, timeout=60.0)
            bad_specs = [
                {"include_collectives": "false"},
                {"telemetry": 1},
                {"seed": "3"},
                {"telemetry_windows": "48"},
                {"apps": [["LULESH", "64"]]},
            ]
            requests = [
                {"op": "submit", "spec": {**spec_to_dict(SMALL_SPEC), **bad}}
                for bad in bad_specs
            ]
            requests.append({"op": "status", "job": ["not", "hashable"]})
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(30)
                sock.connect(str(socket_path))
                with sock.makefile("rb") as fh:
                    for request in requests:
                        sock.sendall(json.dumps(request).encode() + b"\n")
                        reply = json.loads(fh.readline())
                        assert reply["ok"] is False, request
                        assert reply["error"], request
                    sock.sendall(b'{"op": "ping"}\n')
                    assert json.loads(fh.readline())["pong"] is True
            assert client.jobs() == []
        finally:
            shutdown_server(client, server)
