"""Persistent worker processes for the sweep service.

Each worker slot owns a long-lived child process, a task queue
(server → worker), and a one-way result pipe (worker → server).  The
process evaluates cells forever with :func:`repro.analysis.sweep._eval_point`
— the exact function the library path runs, so records are bit-identical —
and keeps its :mod:`repro.cache` memory LRU warm across cells, which is
what cache-affinity scheduling monetizes.

Crash behaviour is the design center:

- results travel over a dedicated pipe per worker, so a SIGKILL'd worker
  tears at most its own stream — the reader thread sees EOF and emits a
  ``lost`` event instead of wedging the pool on a shared queue lock;
- :meth:`WorkerPool.respawn` replaces the process *and* both channels
  (a queue whose reader died mid-``get`` may hold its feeder lock
  forever), and returns the dead worker's outstanding tasks so the server
  can requeue them;
- each spawn gets a fresh handle object; stale events from a replaced
  generation are recognized by handle identity and dropped.

Per-cell results carry the worker's cache-stat and stage-timing deltas, so
the server can report pool-wide warm-hit rates and stage attribution
without touching the workers again.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import queue
import threading
import time
from typing import Any, Callable

__all__ = ["WorkerHandle", "WorkerPool"]

#: Regions whose hit/miss deltas are reported per cell.
_STAT_REGIONS = ("trace", "matrix", "mapping", "incidence")

#: How often an idle worker checks that its server is still alive.
_PARENT_POLL_S = 1.0


def _cache_counters() -> dict[str, dict[str, int]]:
    from .. import cache

    return cache.stats()


def _counter_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    delta: dict[str, dict[str, int]] = {}
    for region in _STAT_REGIONS:
        b = before.get(region, {})
        a = after.get(region, {})
        d = {k: a.get(k, 0) - b.get(k, 0) for k in ("hits", "misses", "disk_hits")}
        if any(d.values()):
            delta[region] = d
    return delta


def _worker_main(task_q, conn, cache_dir, memory_items) -> None:
    """Child entry point: evaluate cells until a ``None`` sentinel arrives.

    A server killed without the sentinel (SIGKILL) never sends it, so the
    idle loop also exits once the worker is reparented away from the
    server that forked it.
    """
    from .. import cache, timings
    from ..analysis.sweep import _eval_point
    from .cells import spec_from_dict

    if cache_dir:
        cache.configure(disk_dir=cache_dir)
    if memory_items:
        cache.configure(memory_items=memory_items)
    # Under the fork start method the child inherits whatever the server
    # process had in its memory tier; start empty so each worker's warm set
    # (and its hit accounting) reflects only the cells routed to it.
    cache.clear(memory=True)
    timings.enable(reset_counters=True)
    server = os.getppid()
    conn.send(("ready", os.getpid()))
    specs: dict[str, Any] = {}
    try:
        while True:
            try:
                task = task_q.get(timeout=_PARENT_POLL_S)
            except queue.Empty:
                if os.getppid() != server:
                    return
                continue
            if task is None:
                conn.send(("exit",))
                return
            key, spec_json, point = task
            spec = specs.get(spec_json)
            if spec is None:
                spec = specs[spec_json] = spec_from_dict(json.loads(spec_json))
            stats_before = _cache_counters()
            stages_before = timings.snapshot()
            t0 = time.perf_counter()
            try:
                records = _eval_point(spec, tuple(point))
            except Exception as exc:  # surfaced as a job failure server-side
                conn.send(("error", key, f"{type(exc).__name__}: {exc}"))
                continue
            conn.send(
                (
                    "done",
                    key,
                    records,
                    _counter_delta(stats_before, _cache_counters()),
                    timings.since(stages_before),
                    time.perf_counter() - t0,
                )
            )
    except (EOFError, BrokenPipeError, OSError):
        # Server went away; nothing useful left to do in this process.
        return


class WorkerHandle:
    """One generation of one worker slot (process + channels + bookkeeping)."""

    def __init__(self, worker_id: int, process, task_q, conn) -> None:
        self.id = worker_id
        self.process = process
        self.task_q = task_q
        self.conn = conn
        self.pid: int | None = None
        #: Cells dispatched to this generation and not yet reported.
        self.outstanding: dict[str, tuple] = {}
        self.graceful = False  # server sent the stop sentinel
        self.cells_done = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """A fixed set of worker slots with respawn-on-death semantics.

    ``emit(handle, message)`` is called from per-worker reader threads for
    every message a child sends, plus a synthesized ``("lost",)`` when a
    pipe hits EOF — the server bridges these into its event loop.
    """

    def __init__(
        self,
        size: int,
        cache_dir: str | os.PathLike | None = None,
        emit: Callable[[WorkerHandle, tuple], None] | None = None,
        memory_items: dict[str, int] | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("worker pool size must be >= 1")
        self.size = size
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.memory_items = memory_items
        self._emit = emit or (lambda handle, message: None)
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = mp.get_context("spawn")
        self._handles: dict[int, WorkerHandle] = {}
        self.respawns = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for worker_id in range(self.size):
            self._handles[worker_id] = self._spawn(worker_id)

    def _spawn(self, worker_id: int) -> WorkerHandle:
        task_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(task_q, send_conn, self.cache_dir, self.memory_items),
            name=f"repro-sweep-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        send_conn.close()  # child's end; parent EOF detection needs this
        handle = WorkerHandle(worker_id, process, task_q, recv_conn)
        reader = threading.Thread(
            target=self._read_loop,
            args=(handle,),
            name=f"repro-sweep-reader-{worker_id}",
            daemon=True,
        )
        reader.start()
        return handle

    def _read_loop(self, handle: WorkerHandle) -> None:
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            except TypeError:
                # close() on another thread nulled the fd mid-recv; same as EOF.
                break
            if message[0] == "ready":
                handle.pid = message[1]
            self._emit(handle, message)
        self._emit(handle, ("lost",))

    # -- dispatch -----------------------------------------------------------

    def current(self, worker_id: int) -> WorkerHandle:
        return self._handles[worker_id]

    def handles(self) -> list[WorkerHandle]:
        return [self._handles[wid] for wid in sorted(self._handles)]

    def submit(self, worker_id: int, key: str, task: tuple) -> None:
        handle = self._handles[worker_id]
        handle.outstanding[key] = task
        handle.task_q.put((key, *task))

    def mark_done(self, handle: WorkerHandle, key: str) -> None:
        handle.outstanding.pop(key, None)
        handle.cells_done += 1

    def respawn(self, handle: WorkerHandle) -> dict[str, tuple]:
        """Replace a dead generation; return its orphaned (key -> task) map.

        Only replaces the slot if ``handle`` is still its current
        generation — a stale ``lost`` event from an already-replaced worker
        is a no-op returning no orphans.
        """
        if self._handles.get(handle.id) is not handle:
            return {}
        orphans = dict(handle.outstanding)
        handle.outstanding.clear()
        try:
            handle.conn.close()
        except OSError:
            pass
        self._handles[handle.id] = self._spawn(handle.id)
        self.respawns += 1
        return orphans

    # -- shutdown -----------------------------------------------------------

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: sentinel every queue, then join, then terminate."""
        for handle in self._handles.values():
            handle.graceful = True
            try:
                handle.task_q.put(None)
            except (ValueError, OSError):  # queue already closed
                pass
        deadline = time.monotonic() + timeout
        for handle in self._handles.values():
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.task_q.close()
            handle.task_q.cancel_join_thread()
        self._handles.clear()

    def info(self) -> list[dict[str, Any]]:
        return [
            {
                "id": handle.id,
                "pid": handle.pid,
                "alive": handle.alive,
                "outstanding": len(handle.outstanding),
                "cells_done": handle.cells_done,
            }
            for handle in self.handles()
        ]
