"""The :class:`CollectiveAlgorithm` interface.

A collective algorithm decides *which point-to-point messages* a collective
record expands into — the seam that separates what the application asked
for from what the modeled MPI library does on the wire.  It mirrors
:class:`repro.routing.base.RoutingPolicy`: engines are stateless strategy
objects resolved by name through :func:`repro.collectives.get_algorithm`,
and every consumer that caches derived artifacts (traffic matrices,
happens-before DAGs, sweep cells) keys them by the engine's
:meth:`~CollectiveAlgorithm.cache_token`.

Two entry points, both columnar over many records of one op:

- :meth:`~CollectiveAlgorithm.expand_batch` — the message arrays, for
  matrix building;
- :meth:`~CollectiveAlgorithm.expand_batch_phased` — the same with a
  per-batch ``after`` flag for happens-before DAG construction: ``True``
  marks sends of data the sender first had to receive, so the DAG edge
  must leave the sender's completion node.

All engines satisfy the same per-record-independence contract as the flat
expansion: a record's messages depend only on that record, so unions over
arbitrary record subsets (blocks, stream chunks) never double count.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.communicator import Communicator
from ..core.events import ROOTED_OPS, CollectiveOp
from .patterns import check_root, expand_collective_batch
from .schedules import Schedule, expand_batch_from_schedule

__all__ = ["CollectiveAlgorithm", "FlatCollective", "ScheduleAlgorithm"]

#: Batch arrays: (src, dst, bytes_per_msg, calls)
Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: Batch arrays plus the happens-before ``after`` flag.
PhasedBatch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]


def _flat_after(op: CollectiveOp, index: int) -> bool:
    """The flat expansion's happens-before rule, batch ``index`` of the op.

    The second allreduce batch is the broadcast of the reduced result, and
    scan chains forward accumulated partials — both leave completion nodes.
    """
    return (op is CollectiveOp.ALLREDUCE and index == 1) or op in (
        CollectiveOp.SCAN,
        CollectiveOp.EXSCAN,
    )


class CollectiveAlgorithm(abc.ABC):
    """Strategy object expanding collective records into p2p messages."""

    #: Registry identifier ("flat", "binomial", "ring", ...).
    name: str = "algorithm"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def cache_token(self) -> tuple:
        """Identity of this engine for derived-artifact cache keys.

        Two engines with equal tokens must expand every record into the
        identical message multiset.
        """
        return (self.name,)

    @abc.abstractmethod
    def expand_batch(
        self,
        op: CollectiveOp,
        comm: Communicator,
        callers: np.ndarray,
        nbytes: np.ndarray,
        roots: np.ndarray,
        calls: np.ndarray,
    ) -> list[Batch]:
        """Columnar expansion of many records of one op on one communicator.

        A record's messages depend only on that record, so the message
        multiset equals the union of the per-record expansions in
        ``tests/oracles/collectives.py`` — the engine equivalence suite
        pins this.
        """

    def expand_batch_phased(
        self,
        op: CollectiveOp,
        comm: Communicator,
        callers: np.ndarray,
        nbytes: np.ndarray,
        roots: np.ndarray,
        calls: np.ndarray,
    ) -> list[PhasedBatch]:
        """Like :meth:`expand_batch`, with per-batch ``after`` flags.

        The default tags batches with the flat rule, which is exact for
        any engine that only reorders the flat batches.
        """
        return [
            (src, dst, bpm, cls, _flat_after(op, j))
            for j, (src, dst, bpm, cls) in enumerate(
                self.expand_batch(op, comm, callers, nbytes, roots, calls)
            )
        ]


class FlatCollective(CollectiveAlgorithm):
    """The paper's §4.4 expansion — the bit-identical default."""

    name = "flat"

    def expand_batch(self, op, comm, callers, nbytes, roots, calls):
        return expand_collective_batch(op, comm, callers, nbytes, roots, calls)


class ScheduleAlgorithm(CollectiveAlgorithm):
    """Base for engines driven by cached :class:`Schedule` tables.

    Subclasses implement :meth:`_schedule`, returning ``None`` for any op
    the engine leaves to the flat expansion (the alltoall family,
    reduce_scatter, and scan chains are already direct algorithms in
    practice, so every engine falls back for them).
    """

    def _schedule(self, op: CollectiveOp, n: int, root: int) -> Schedule | None:
        raise NotImplementedError

    def expand_batch(self, op, comm, callers, nbytes, roots, calls):
        return [
            batch[:4]
            for batch in self.expand_batch_phased(
                op, comm, callers, nbytes, roots, calls
            )
        ]

    def expand_batch_phased(self, op, comm, callers, nbytes, roots, calls):
        n = comm.size
        rooted = op in ROOTED_OPS
        if len(callers) and rooted:
            rmin, rmax = int(roots.min()), int(roots.max())
            if rmin < 0 or rmax >= n:
                check_root(op, comm, rmin if rmin < 0 else rmax)
        if n == 1 or op is CollectiveOp.BARRIER or len(callers) == 0:
            return []
        if self._schedule(op, n, 0) is None:
            return [
                (src, dst, bpm, cls, _flat_after(op, j))
                for j, (src, dst, bpm, cls) in enumerate(
                    expand_collective_batch(op, comm, callers, nbytes, roots, calls)
                )
            ]
        members = np.asarray(comm.members, dtype=np.int64)
        mmax = int(members.max())
        lookup = np.full(mmax + 1, -1, dtype=np.int64)
        lookup[members] = np.arange(n, dtype=np.int64)
        in_range = (callers >= 0) & (callers <= mmax)
        local = np.where(in_range, lookup[np.clip(callers, 0, mmax)], -1)
        if local.min() < 0:
            bad = int(callers[local < 0][0])
            raise ValueError(f"rank {bad} is not a member of this communicator")
        out: list[PhasedBatch] = []
        if rooted:
            for root in np.unique(roots):
                sel = roots == root
                sched = self._schedule(op, n, int(root))
                out.extend(
                    expand_batch_from_schedule(
                        sched, members, local[sel], nbytes[sel], calls[sel]
                    )
                )
        else:
            sched = self._schedule(op, n, 0)
            out.extend(
                expand_batch_from_schedule(sched, members, local, nbytes, calls)
            )
        return out
