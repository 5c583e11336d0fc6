"""The sweep job server: job state, dedup, failover, and the socket API.

:class:`SweepService` owns a :class:`~repro.service.workers.WorkerPool`,
a :class:`~repro.service.scheduler.CellScheduler`, and a directory of job
state (``<state_dir>/jobs/<job_id>/{job.json,journal.jsonl}``).  Cells are
content-keyed (:func:`~repro.service.cells.cell_key`), which buys three
things at once:

- **in-flight dedup** — a cell requested by several concurrent jobs is
  computed once; every subscriber job receives the record the moment it
  lands, and recently completed cells are replayed to new jobs from a
  bounded server-side record cache;
- **crash resume** — completed cells are journaled per job; on startup
  every job still marked ``running`` replays its journal and only the
  missing cells are rescheduled;
- **failover** — a worker that dies mid-cell is respawned in place and its
  orphaned cells requeued (sticky affinity preserved), with first-result-
  wins semantics if a duplicate completion ever races in.

All state mutation happens on the asyncio event loop; worker reader
threads only enqueue events via ``call_soon_threadsafe``.  The wire API is
JSON lines over a unix socket (ops: ping, submit, jobs, status, results,
attach, cancel, stats, shutdown) — see :mod:`repro.service.client`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import signal
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

from .cells import Cell, expand_cells, spec_from_dict, spec_to_dict
from .journal import JobJournal
from .scheduler import SCHEDULER_MODES, CellScheduler
from .workers import WorkerHandle, WorkerPool

__all__ = ["SweepService", "run_server"]

_log = logging.getLogger("repro.service")

#: readline limit for the asyncio server — results lines carry whole jobs.
_STREAM_LIMIT = 32 * 1024 * 1024

_TERMINAL = ("done", "failed", "cancelled")


class UnknownJob(KeyError):
    """No job has the requested id.  A ``KeyError`` whose text is its
    message unquoted, so replies built with ``str(exc)`` read plainly."""

    def __str__(self) -> str:
        return str(self.args[0])


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _Inflight:
    """One cell being computed, shared by every job that wants it."""

    __slots__ = ("key", "token", "task", "worker_id", "subscribers")

    def __init__(self, key: str, token: str, task: tuple, worker_id: int) -> None:
        self.key = key
        self.token = token
        self.task = task  # (spec_json, point_list) — enough to recompute
        self.worker_id = worker_id
        self.subscribers: set[str] = set()


class _Job:
    """Server-side state of one submitted sweep."""

    def __init__(self, job_id: str, spec, cells: list[Cell], job_dir: Path) -> None:
        self.id = job_id
        self.spec = spec
        self.cells = cells
        self.dir = job_dir
        self.key_index = {cell.key: cell.index for cell in cells}
        self.completed: dict[str, list] = {}
        self.status = "running"
        self.error: str | None = None
        self.created = time.time()
        self.collapsed = 0
        self.counts = {"restored": 0, "dedup_warm": 0, "dedup_inflight": 0}
        self.watchers: list[asyncio.Queue] = []
        self.done_event = asyncio.Event()
        self.journal = JobJournal(job_dir / "journal.jsonl")

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def remaining(self) -> int:
        return self.total - len(self.completed)

    def records(self) -> list[dict]:
        """All records in canonical grid order (requires terminal 'done')."""
        out: list[dict] = []
        for cell in self.cells:
            out.extend(self.completed[cell.key])
        return out

    def summary(self) -> dict[str, Any]:
        return {
            "job": self.id,
            "status": self.status,
            "cells_total": self.total,
            "cells_done": len(self.completed),
            "collapsed": self.collapsed,
            "created": self.created,
            "error": self.error,
            "counts": dict(self.counts),
        }

    def manifest(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "status": self.status,
            "created": self.created,
            "collapsed": self.collapsed,
            "cells_total": self.total,
            "error": self.error,
            "spec": spec_to_dict(self.spec),
        }


class SweepService:
    """Async sweep job service over a persistent sharded worker pool."""

    def __init__(
        self,
        state_dir: str | os.PathLike,
        workers: int = 2,
        scheduler: str = "affinity",
        cache_dir: str | os.PathLike | None = None,
        journal_batch: int = 16,
        record_cache_items: int = 4096,
    ) -> None:
        if scheduler not in SCHEDULER_MODES:
            raise ValueError(f"unknown scheduler mode {scheduler!r}")
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else self.state_dir / "cache"
        )
        self.journal_batch = journal_batch
        self.scheduler = CellScheduler(scheduler)
        self.pool = WorkerPool(workers, cache_dir=self.cache_dir, emit=self._emit)
        self._jobs: dict[str, _Job] = {}
        self._inflight: dict[str, _Inflight] = {}
        self._records: OrderedDict[str, list] = OrderedDict()
        self._record_cache_items = record_cache_items
        self.counts = {
            "cells_computed": 0,
            "dedup_inflight": 0,
            "dedup_warm": 0,
            "restored": 0,
            "errors": 0,
        }
        self.cache_totals: dict[str, dict[str, int]] = {}
        self.stage_totals: dict[str, float] = {}
        self.cell_seconds = 0.0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._events: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._stopping = False
        self._next_job = 1
        self.shutdown_requested: asyncio.Event | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn workers, then resume every job left in ``running`` state."""
        self._loop = asyncio.get_running_loop()
        self._events = asyncio.Queue()
        self.shutdown_requested = asyncio.Event()
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.pool.start()
        for handle in self.pool.handles():
            self.scheduler.add_worker(handle.id)
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._resume_jobs()

    async def stop(self) -> None:
        """Stop workers and flush journals; running jobs resume next start."""
        self._stopping = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        await asyncio.get_running_loop().run_in_executor(None, self.pool.stop)
        for job in self._jobs.values():
            job.journal.close()

    # -- event bridge (reader threads -> loop) ------------------------------

    def _emit(self, handle: WorkerHandle, message: tuple) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._events.put_nowait, (handle, message))
        except RuntimeError:  # loop shut down mid-emit
            pass

    async def _dispatch_loop(self) -> None:
        while True:
            handle, message = await self._events.get()
            kind = message[0]
            try:
                if kind == "done":
                    self._on_done(handle, *message[1:])
                elif kind == "error":
                    self._on_error(handle, *message[1:])
                elif kind == "lost":
                    self._on_lost(handle)
                # "ready"/"exit" are informational
            except Exception:  # pragma: no cover - keep the loop alive
                _log.exception("service: error handling %s event", kind)

    # -- job intake ---------------------------------------------------------

    def _new_job_id(self) -> str:
        while True:
            job_id = f"job-{self._next_job:04d}"
            self._next_job += 1
            if job_id not in self._jobs and not (self.jobs_dir / job_id).exists():
                return job_id

    def submit(self, spec_data: dict) -> dict[str, Any]:
        """Register a job, dedup its cells, and schedule what's missing."""
        if self._stopping:
            raise RuntimeError("service is shutting down")
        spec = spec_from_dict(spec_data)
        cells, collapsed = expand_cells(spec)
        job_id = self._new_job_id()
        job_dir = self.jobs_dir / job_id
        job_dir.mkdir(parents=True)
        job = _Job(job_id, spec, cells, job_dir)
        job.collapsed = collapsed
        job.journal.batch = self.journal_batch
        job.journal.open()
        self._jobs[job_id] = job
        _write_json_atomic(job_dir / "job.json", job.manifest())
        spec_json = json.dumps(
            spec_to_dict(spec), sort_keys=True, separators=(",", ":")
        )
        for cell in cells:
            self._need_cell(job, cell, spec_json)
        if job.remaining == 0:
            self._finalize(job, "done")
        _log.info(
            "service: %s submitted (%d cells, %d collapsed)",
            job_id,
            job.total,
            collapsed,
        )
        return {"job": job_id, "cells": job.total, "collapsed": collapsed}

    def _need_cell(self, job: _Job, cell: Cell, spec_json: str) -> None:
        """Satisfy one cell: record cache, in-flight piggyback, or schedule."""
        if cell.key in job.completed:
            return
        cached = self._records.get(cell.key)
        if cached is not None:
            self._records.move_to_end(cell.key)
            job.counts["dedup_warm"] += 1
            self.counts["dedup_warm"] += 1
            self._job_cell_done(job, cell.key, cached)
            return
        entry = self._inflight.get(cell.key)
        if entry is not None:
            entry.subscribers.add(job.id)
            job.counts["dedup_inflight"] += 1
            self.counts["dedup_inflight"] += 1
            return
        task = (spec_json, list(cell.point))
        worker_id = self.scheduler.assign(cell.token, cell.key)
        entry = _Inflight(cell.key, cell.token, task, worker_id)
        entry.subscribers.add(job.id)
        self._inflight[cell.key] = entry
        self.pool.submit(worker_id, cell.key, task)

    # -- completion paths ---------------------------------------------------

    def _store_record(self, key: str, records: list) -> None:
        self._records[key] = records
        self._records.move_to_end(key)
        while len(self._records) > self._record_cache_items:
            self._records.popitem(last=False)

    def _on_done(
        self,
        handle: WorkerHandle,
        key: str,
        records: list,
        cache_delta: dict,
        stage_delta: dict,
        seconds: float,
    ) -> None:
        self.pool.mark_done(handle, key)
        entry = self._inflight.pop(key, None)
        if entry is None:
            return  # duplicate completion after failover: first result won
        self.scheduler.release(entry.worker_id)
        self.counts["cells_computed"] += 1
        self.cell_seconds += seconds
        for region, delta in cache_delta.items():
            totals = self.cache_totals.setdefault(
                region, {"hits": 0, "misses": 0, "disk_hits": 0}
            )
            for field, value in delta.items():
                totals[field] += value
        for stage, value in stage_delta.items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + value
        self._store_record(key, records)
        for job_id in entry.subscribers:
            job = self._jobs.get(job_id)
            if job is not None and job.status == "running":
                self._job_cell_done(job, key, records)

    def _on_error(self, handle: WorkerHandle, key: str, message: str) -> None:
        self.pool.mark_done(handle, key)
        entry = self._inflight.pop(key, None)
        if entry is None:
            return
        self.scheduler.release(entry.worker_id)
        self.counts["errors"] += 1
        _log.error("service: cell %s failed: %s", key, message)
        for job_id in list(entry.subscribers):
            job = self._jobs.get(job_id)
            if job is not None and job.status == "running":
                self._fail_job(job, f"cell {key[:12]} failed: {message}")

    def _on_lost(self, handle: WorkerHandle) -> None:
        if self._stopping or handle.graceful:
            return
        if not self._handles_current(handle):
            return  # stale event for an already-replaced generation
        orphans = self.pool.respawn(handle)
        _log.warning(
            "service: worker %d (pid %s) died; respawned, requeuing %d cells",
            handle.id,
            handle.pid,
            len(orphans),
        )
        self.scheduler.add_worker(handle.id)
        for key, task in orphans.items():
            entry = self._inflight.get(key)
            if entry is None:
                continue  # result landed just before the pipe broke
            # The slot survives the death (same queues, fresh process)
            # and its sticky tokens still point at it, so the respawned
            # process re-warms from the disk tier once per token.
            self.scheduler.release(entry.worker_id)
            entry.worker_id = self.scheduler.assign(entry.token, key)
            self.pool.submit(entry.worker_id, key, task)

    def _handles_current(self, handle: WorkerHandle) -> bool:
        try:
            return self.pool.current(handle.id) is handle
        except KeyError:
            return False

    def _job_cell_done(self, job: _Job, key: str, records: list) -> None:
        if key in job.completed:
            return
        job.completed[key] = records
        job.journal.append(key, records)
        self._notify(
            job,
            {
                "event": "cell",
                "job": job.id,
                "index": job.key_index[key],
                "cell": key,
                "done": len(job.completed),
                "total": job.total,
                "records": records,
            },
        )
        if job.remaining == 0:
            self._finalize(job, "done")

    def _finalize(self, job: _Job, status: str, error: str | None = None) -> None:
        job.status = status
        job.error = error
        job.journal.close()
        _write_json_atomic(job.dir / "job.json", job.manifest())
        job.done_event.set()
        self._notify(
            job,
            {"event": "end", "job": job.id, "status": status, "error": error},
        )
        job.watchers.clear()
        _log.info("service: %s -> %s", job.id, status)

    def _fail_job(self, job: _Job, message: str) -> None:
        self._unsubscribe(job.id)
        self._finalize(job, "failed", message)

    def _unsubscribe(self, job_id: str) -> None:
        for entry in self._inflight.values():
            entry.subscribers.discard(job_id)

    def _notify(self, job: _Job, event: dict) -> None:
        for queue in job.watchers:
            queue.put_nowait(event)

    # -- resume -------------------------------------------------------------

    def _resume_jobs(self) -> None:
        """Rebuild jobs from disk; reschedule only unjournaled cells."""
        manifests = []
        for job_dir in sorted(self.jobs_dir.iterdir() if self.jobs_dir.is_dir() else []):
            manifest_path = job_dir / "job.json"
            if not manifest_path.is_file():
                continue
            try:
                manifest = json.loads(manifest_path.read_text())
            except ValueError:
                _log.warning("service: skipping unreadable %s", manifest_path)
                continue
            manifests.append((job_dir, manifest))
            number = str(manifest.get("id", "")).rsplit("-", 1)[-1]
            if number.isdigit():
                self._next_job = max(self._next_job, int(number) + 1)
        for job_dir, manifest in manifests:
            if manifest.get("status") != "running":
                continue
            try:
                spec = spec_from_dict(manifest["spec"])
            except (KeyError, ValueError, TypeError) as exc:
                _log.warning(
                    "service: cannot resume %s: %s", manifest.get("id"), exc
                )
                continue
            cells, collapsed = expand_cells(spec)
            job = _Job(manifest["id"], spec, cells, job_dir)
            job.collapsed = collapsed
            job.created = manifest.get("created", job.created)
            job.journal.batch = self.journal_batch
            entries, good_end = JobJournal.replay(job.journal.path)
            job.journal.open(truncate_to=good_end)
            for cell in cells:
                records = entries.get(cell.key)
                if records is not None:
                    job.completed[cell.key] = records
                    self._store_record(cell.key, records)
            job.counts["restored"] = len(job.completed)
            self.counts["restored"] += len(job.completed)
            self._jobs[job.id] = job
            _log.info(
                "service: resumed %s (%d/%d cells journaled)",
                job.id,
                len(job.completed),
                job.total,
            )
            if job.remaining == 0:
                self._finalize(job, "done")
                continue
            spec_json = json.dumps(
                spec_to_dict(spec), sort_keys=True, separators=(",", ":")
            )
            for cell in cells:
                self._need_cell(job, cell, spec_json)

    # -- queries ------------------------------------------------------------

    def get_job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        return job

    def list_jobs(self) -> list[dict]:
        return [
            job.summary()
            for job in sorted(self._jobs.values(), key=lambda j: j.id)
        ]

    def cancel(self, job_id: str) -> dict:
        job = self.get_job(job_id)
        if job.status == "running":
            self._unsubscribe(job.id)
            self._finalize(job, "cancelled")
        return job.summary()

    async def wait(self, job_id: str) -> str:
        job = self.get_job(job_id)
        await job.done_event.wait()
        return job.status

    def results(self, job_id: str) -> list[dict]:
        job = self.get_job(job_id)
        if job.status != "done":
            raise RuntimeError(f"job {job_id} is {job.status}, not done")
        return job.records()

    def stats(self) -> dict[str, Any]:
        jobs_by_status: dict[str, int] = {}
        for job in self._jobs.values():
            jobs_by_status[job.status] = jobs_by_status.get(job.status, 0) + 1
        return {
            "counts": dict(self.counts),
            "jobs": jobs_by_status,
            "inflight": len(self._inflight),
            "record_cache": len(self._records),
            "cache": {k: dict(v) for k, v in self.cache_totals.items()},
            "stages": dict(self.stage_totals),
            "cell_seconds": self.cell_seconds,
            "workers": self.pool.info(),
            "respawns": self.pool.respawns,
            "scheduler": {
                "mode": self.scheduler.mode,
                "load": {str(k): v for k, v in self.scheduler.load().items()},
            },
        }

    # -- socket API ---------------------------------------------------------

    async def serve(self, socket_path: str | os.PathLike) -> asyncio.AbstractServer:
        socket_path = Path(socket_path)
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            socket_path.unlink()
        return await asyncio.start_unix_server(
            self._handle_connection, path=str(socket_path), limit=_STREAM_LIMIT
        )

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    op = request["op"]
                except (ValueError, KeyError, TypeError):
                    await self._reply(writer, {"ok": False, "error": "bad request"})
                    continue
                if op == "attach":
                    await self._op_attach(writer, request)
                    break  # the stream ends the connection
                try:
                    response = self._handle_op(op, request)
                except KeyError as exc:
                    response = {"ok": False, "error": str(exc.args[0])}
                except (RuntimeError, ValueError, TypeError) as exc:
                    response = {"ok": False, "error": str(exc)}
                await self._reply(writer, response)
                if op == "shutdown" and response.get("ok"):
                    self.shutdown_requested.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _handle_op(self, op: str, request: dict) -> dict:
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            spec = request.get("spec")
            if not isinstance(spec, dict):
                raise ValueError("submit needs a 'spec' object")
            return {"ok": True, **self.submit(spec)}
        if op == "jobs":
            return {"ok": True, "jobs": self.list_jobs()}
        if op == "status":
            return {"ok": True, **self.get_job(request["job"]).summary()}
        if op == "results":
            job = self.get_job(request["job"])
            if job.status != "done":
                raise RuntimeError(f"job {job.id} is {job.status}, not done")
            return {"ok": True, "job": job.id, "records": job.records()}
        if op == "cancel":
            return {"ok": True, **self.cancel(request["job"])}
        if op == "stats":
            return {"ok": True, **self.stats()}
        if op == "shutdown":
            return {"ok": True, "stopping": True}
        raise ValueError(f"unknown op {op!r}")

    async def _op_attach(self, writer, request: dict) -> None:
        """Stream a job's cells (replay, then live) and a final end event."""
        try:
            job = self.get_job(request["job"])
        except (KeyError, TypeError) as exc:
            await self._reply(writer, {"ok": False, "error": str(exc)})
            return
        queue: asyncio.Queue = asyncio.Queue()
        # Register, then replay: both happen without yielding to the loop,
        # so live events cannot interleave with (or duplicate) the replay.
        live = job.status == "running"
        if live:
            job.watchers.append(queue)
        await self._reply(
            writer, {"ok": True, **job.summary(), "streaming": True}
        )
        try:
            done_keys = sorted(job.completed, key=job.key_index.__getitem__)
            for n, key in enumerate(done_keys, 1):
                await self._reply(
                    writer,
                    {
                        "event": "cell",
                        "job": job.id,
                        "index": job.key_index[key],
                        "cell": key,
                        "done": n,
                        "total": job.total,
                        "records": job.completed[key],
                        "replayed": True,
                    },
                )
            if not live:
                await self._reply(
                    writer,
                    {
                        "event": "end",
                        "job": job.id,
                        "status": job.status,
                        "error": job.error,
                    },
                )
                return
            while True:
                event = await queue.get()
                await self._reply(writer, event)
                if event.get("event") == "end":
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if queue in job.watchers:
                job.watchers.remove(queue)

    @staticmethod
    async def _reply(writer, payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()


def run_server(
    state_dir: str | os.PathLike,
    socket_path: str | os.PathLike,
    workers: int = 2,
    scheduler: str = "affinity",
    journal_batch: int = 16,
    cache_dir: str | os.PathLike | None = None,
) -> int:
    """Blocking entry point for ``repro serve``: run until signalled."""

    async def _amain() -> int:
        service = SweepService(
            state_dir,
            workers=workers,
            scheduler=scheduler,
            cache_dir=cache_dir,
            journal_batch=journal_batch,
        )
        await service.start()
        server = await service.serve(socket_path)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
        print(
            f"repro sweep service ready: socket={socket_path} "
            f"workers={workers} scheduler={scheduler}",
            flush=True,
        )
        serve_task = asyncio.ensure_future(server.serve_forever())
        waiters = [
            asyncio.ensure_future(stop.wait()),
            asyncio.ensure_future(service.shutdown_requested.wait()),
        ]
        try:
            await asyncio.wait(
                [serve_task, *waiters], return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (serve_task, *waiters):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            server.close()
            await server.wait_closed()
            await service.stop()
            with contextlib.suppress(FileNotFoundError):
                Path(socket_path).unlink()
        return 0

    return asyncio.run(_amain())
