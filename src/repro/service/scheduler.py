"""Cache-affinity cell scheduling over persistent workers.

The expensive part of a sweep cell is not the analysis — it is
deserializing the trace, matrices, and mappings the analysis consumes.
Those artifacts live in each worker's process-local memory LRU
(:mod:`repro.cache`), so the scheduler's one job is to keep cells that
share artifacts on the same worker:

- **affinity** mode (the default) keeps a sticky ``token -> worker`` map.
  The first cell of a token goes to the least-loaded worker (outstanding
  cells, lowest id breaking ties — deterministic for a given arrival
  order); every later cell of that token follows it.  Load is balanced at
  token granularity, warm hits at cell granularity.
- **random** mode spreads cells by a stable hash of their content key,
  ignoring tokens.  It exists as the control arm: ``repro bench sweep``
  gates affinity mode on beating it on warm-hit rate.

Scheduling decisions never affect record *values* — every cell is a pure
function of its spec — only where the artifact cost is paid, so any mode,
worker count, or failover pattern yields bit-identical results.
"""

from __future__ import annotations

import hashlib

__all__ = ["CellScheduler", "SCHEDULER_MODES"]

SCHEDULER_MODES = ("affinity", "random")


def _stable_hash(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


class CellScheduler:
    """Assigns cells to worker slots; tracks per-slot outstanding load."""

    def __init__(self, mode: str = "affinity") -> None:
        if mode not in SCHEDULER_MODES:
            raise ValueError(
                f"unknown scheduler mode {mode!r} (choose from "
                f"{', '.join(SCHEDULER_MODES)})"
            )
        self.mode = mode
        self._load: dict[int, int] = {}
        self._sticky: dict[str, int] = {}

    # -- worker membership --------------------------------------------------

    @property
    def workers(self) -> list[int]:
        return sorted(self._load)

    def add_worker(self, worker_id: int) -> None:
        self._load.setdefault(worker_id, 0)

    # -- assignment ---------------------------------------------------------

    def assign(self, token: str, key: str) -> int:
        """Pick the worker slot for one cell and charge its load."""
        if not self._load:
            raise RuntimeError("scheduler has no workers")
        if self.mode == "random":
            ids = self.workers
            wid = ids[_stable_hash(key) % len(ids)]
        else:
            wid = self._sticky.get(token)
            if wid is None:
                wid = min(self._load, key=lambda w: (self._load[w], w))
                self._sticky[token] = wid
        self._load[wid] += 1
        return wid

    def release(self, worker_id: int) -> None:
        """One outstanding cell of the slot finished (or was orphaned)."""
        if worker_id in self._load and self._load[worker_id] > 0:
            self._load[worker_id] -= 1

    def load(self) -> dict[int, int]:
        return dict(self._load)
