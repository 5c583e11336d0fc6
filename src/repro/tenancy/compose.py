"""The multi-tenant workload composer.

``compose_workload`` places N tenant jobs on disjoint rank sets of one
shared machine (via :mod:`repro.tenancy.allocate`), generates each job's
solo trace, remaps its communicator-local rank IDs onto the allocated
global IDs, and merges the per-job EventBlock streams into a single
composite :class:`~repro.core.trace.Trace`.

Job identity is carried by two artifacts rather than a per-event column:

- ``job_of_rank`` — an ``int64[total_ranks]`` table mapping every global
  rank to its owning job.  Because jobs occupy disjoint rank sets and
  every MPI record (p2p or collective) stays within one job's
  communicators, ``job_of_rank[caller]`` recovers the job of any event,
  matrix row, or simulated packet exactly.  The sim engines accept it via
  ``simulate_network(job_of_rank=...)`` and report per-job makespans.
- per-job communicators — each part's communicator ``C`` appears in the
  composite table as ``"<label>:C"`` with globally remapped members, so
  collective expansion reproduces the solo fan-outs on the allocated
  ranks and the composite trace remains fully self-describing.

**Solo identity guarantee:** composing a single job with zero noise
returns the solo trace object unchanged — records, telemetry, and cache
keys are bit-identical to a solo run by construction.  (Every allocation
policy is the identity for one job because per-job rank sets are sorted
ascending and complete.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..apps.base import SyntheticApp
from ..apps.registry import get_app
from ..cache import set_provenance
from ..comm.matrix import CommMatrix
from ..core.blocks import KIND_COLLECTIVE, EventBlock
from ..core.communicator import (
    CartesianCommunicator,
    Communicator,
    CommunicatorTable,
)
from ..core.trace import Trace, TraceMetadata
from .allocate import allocate_ranks, job_of_rank_table

__all__ = ["TenantSpec", "JobPlacement", "ComposedWorkload", "compose_workload"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant job: an application at a rank count.

    ``app`` is a registry name (Table-1, scale, or noise tier) or a
    pre-built :class:`~repro.apps.base.SyntheticApp` instance — the latter
    lets callers tune noise generators without registering them.
    """

    app: str | SyntheticApp
    ranks: int
    variant: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ranks <= 0:
            raise ValueError("TenantSpec.ranks must be positive")

    def resolve(self) -> SyntheticApp:
        return self.app if isinstance(self.app, SyntheticApp) else get_app(self.app)

    @property
    def app_name(self) -> str:
        return self.app.name if isinstance(self.app, SyntheticApp) else self.app


@dataclass(frozen=True, eq=False)
class JobPlacement:
    """Where one tenant landed: its job ID, label, and global rank set."""

    job_id: int
    label: str
    spec: TenantSpec
    ranks: np.ndarray  # int64, sorted ascending global rank IDs
    is_noise: bool

    @property
    def num_ranks(self) -> int:
        return len(self.ranks)


@dataclass(eq=False)
class ComposedWorkload:
    """A composite trace plus the placement metadata that produced it."""

    trace: Trace
    jobs: tuple[JobPlacement, ...]
    job_of_rank: np.ndarray  # int64[total_ranks]
    allocation: str
    alloc_seed: int = 0
    _solo_cache: dict[int, Trace] = field(default_factory=dict, repr=False)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def num_ranks(self) -> int:
        return self.trace.meta.num_ranks

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(job.label for job in self.jobs)

    def app_job_ids(self) -> list[int]:
        """Job IDs of the tenant applications (non-noise)."""
        return [job.job_id for job in self.jobs if not job.is_noise]

    def noise_job_ids(self) -> list[int]:
        return [job.job_id for job in self.jobs if job.is_noise]

    def solo_trace(self, job_id: int) -> Trace:
        """The job's solo trace (local rank space), regenerated on demand."""
        if job_id not in self._solo_cache:
            job = self.jobs[job_id]
            self._solo_cache[job_id] = _generate_part(job.spec)
        return self._solo_cache[job_id]

    def job_matrix(self, matrix: CommMatrix, job_id: int) -> CommMatrix:
        """The composite matrix restricted to one job's traffic.

        Rows are selected by source rank; since every record stays within
        one job's rank set, this captures the job's destinations too.  The
        result keeps the composite rank space, so it can be simulated
        under the *same* mapping — that is the solo baseline used for
        slowdown attribution (placement held fixed, interference removed).
        """
        mask = self.job_of_rank[matrix.src] == job_id
        return CommMatrix(
            matrix.num_ranks,
            matrix.src[mask],
            matrix.dst[mask],
            matrix.nbytes[mask],
            matrix.messages[mask],
            matrix.packets[mask],
        )


def _generate_part(spec: TenantSpec) -> Trace:
    return spec.resolve().generate(spec.ranks, variant=spec.variant, seed=spec.seed)


def _job_labels(specs: list[TenantSpec]) -> list[str]:
    names = [spec.app_name for spec in specs]
    labels = []
    for job_id, name in enumerate(names):
        labels.append(f"{name}#{job_id}" if names.count(name) > 1 else name)
    return labels


def _remap_communicator(comm: Communicator, name: str, gmap: np.ndarray) -> Communicator:
    members = tuple(int(gmap[m]) for m in comm.members)
    if isinstance(comm, CartesianCommunicator):
        return CartesianCommunicator(name, members, comm.dims, comm.periods)
    return Communicator(name, members)


def _remap_block(
    block: EventBlock, gmap: np.ndarray, comm_names: tuple[str, ...]
) -> EventBlock:
    """Rewrite one part block into the composite rank space.

    ``caller`` and p2p ``peer`` columns are translated through the
    allocation map; ``root`` stays communicator-local (the remapped
    communicator carries the new local→global mapping); all payload
    columns are shared by reference — the remap is O(rows), not O(bytes).
    """
    peer = block.peer
    p2p = block.kind != KIND_COLLECTIVE
    if p2p.any():
        peer = peer.copy()
        peer[p2p] = gmap[block.peer[p2p]]
    return EventBlock(
        kind=block.kind,
        caller=gmap[block.caller],
        peer=peer,
        count=block.count,
        dtype_id=block.dtype_id,
        op=block.op,
        root=block.root,
        comm_id=block.comm_id,
        tag=block.tag,
        func_id=block.func_id,
        repeat=block.repeat,
        t_enter=block.t_enter,
        t_leave=block.t_leave,
        dtype_names=block.dtype_names,
        comm_names=comm_names,
        func_names=block.func_names,
    )


def compose_workload(
    jobs,
    noise=(),
    allocation: str = "contiguous",
    alloc_seed: int = 0,
    validate: bool = True,
) -> ComposedWorkload:
    """Co-schedule tenant jobs (plus noise aggressors) on one machine.

    ``jobs`` and ``noise`` are iterables of :class:`TenantSpec`; noise
    specs are tagged so attribution can split victims from aggressors.
    Jobs are numbered in submission order, applications first.
    """
    app_specs = list(jobs)
    noise_specs = list(noise)
    specs = app_specs + noise_specs
    if not specs:
        raise ValueError("compose_workload needs at least one job")

    parts = [_generate_part(spec) for spec in specs]
    sizes = [spec.ranks for spec in specs]
    total = sum(sizes)
    allocations = allocate_ranks(sizes, allocation, alloc_seed)
    table = job_of_rank_table(allocations, total)
    labels = _job_labels(specs)
    placements = tuple(
        JobPlacement(
            job_id=j,
            label=labels[j],
            spec=specs[j],
            ranks=allocations[j],
            is_noise=j >= len(app_specs),
        )
        for j in range(len(specs))
    )

    if len(specs) == 1:
        # Single tenant: every allocation policy is the identity, so the
        # solo trace IS the composite — bit-identical by construction.
        workload = ComposedWorkload(
            trace=parts[0],
            jobs=placements,
            job_of_rank=table,
            allocation=allocation,
            alloc_seed=alloc_seed,
        )
        workload._solo_cache[0] = parts[0]
        return workload

    communicators = CommunicatorTable.for_world(total)
    blocks: list[EventBlock] = []
    for placement, part in zip(placements, parts):
        gmap = placement.ranks
        rename = {}
        for name in part.communicators.names():
            new_name = f"{placement.label}:{name}"
            communicators.add(
                _remap_communicator(part.communicators.get(name), new_name, gmap)
            )
            rename[name] = new_name
        for block in part.blocks():
            blocks.append(
                _remap_block(
                    block, gmap, tuple(rename[n] for n in block.comm_names)
                )
            )

    meta = TraceMetadata(
        app="+".join(labels),
        num_ranks=total,
        execution_time=max(part.meta.execution_time for part in parts),
        uses_derived_types=any(part.meta.uses_derived_types for part in parts),
    )
    trace = Trace.from_blocks(
        meta, blocks, communicators=communicators, validate=validate
    )
    if all(isinstance(spec.app, str) for spec in specs):
        # Registry-named specs fully determine the composite content, so
        # the trace can carry cheap cache provenance (repro.cache uses it
        # instead of digesting the event stream).  Custom app instances
        # have unhashable tuning — those traces fall back to the digest.
        key = (
            "composed-trace",
            allocation,
            alloc_seed,
            tuple(
                (spec.app_name, spec.ranks, spec.variant, spec.seed)
                for spec in specs
            ),
            len(app_specs),
        )
        set_provenance(trace, key)
    workload = ComposedWorkload(
        trace=trace,
        jobs=placements,
        job_of_rank=table,
        allocation=allocation,
        alloc_seed=alloc_seed,
    )
    for j, part in enumerate(parts):
        workload._solo_cache[j] = part
    return workload
