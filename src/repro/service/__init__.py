"""Persistent sharded sweep job service.

``run_sweep`` evaluates one grid in one shot: every invocation cold-starts
its worker pool, every worker re-reads the disk cache, and a crash loses
all progress.  This package promotes sweeps into a long-running job
service — ``repro serve`` hosts a pool of persistent worker processes
behind a unix-socket API, and ``repro submit`` / ``repro jobs`` /
``repro attach`` / ``repro cancel`` drive it from any number of concurrent
clients.  Three properties make it fast and safe:

- **cache-affinity scheduling** (:mod:`.scheduler`): cells are grouped by
  their trace-cache token and stick to one long-lived worker, so an
  expensive artifact is deserialized once into that worker's warm memory
  LRU instead of N times across the pool;
- **in-flight dedup** (:mod:`.server`): identical cells across concurrent
  jobs collapse onto one computation, and completed cells are served to
  later jobs from a server-side record cache;
- **crash-resumable journal** (:mod:`.journal`): every completed cell is
  appended (content-keyed, fsync'd in batches) to a per-job journal, so a
  killed worker is respawned with its queue requeued and a killed server
  resumes every incomplete job without recomputing journaled cells.

Records are bit-identical to :func:`repro.analysis.sweep.run_sweep` for
the same spec — each cell is a pure function of ``(spec, point)``, and the
final record order is the spec's canonical deduplicated grid order — under
any worker count, scheduler mode, and crash/resume pattern.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cells": ("Cell", "cell_key", "expand_cells", "spec_from_dict", "spec_to_dict"),
    ".client": ("ServiceError", "SweepClient"),
    ".journal": ("JobJournal",),
    ".scheduler": ("CellScheduler",),
    ".server": ("SweepService", "run_server"),
})
