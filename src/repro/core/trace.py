"""Trace container.

A :class:`Trace` bundles everything one analyzed run contributes:

- metadata (application name, rank count, traced execution time),
- the datatype registry used to resolve element sizes,
- the communicator table,
- the MPI call records.

Records have one representation: columnar
:class:`~repro.core.blocks.EventBlock` arrays, read through
:meth:`Trace.blocks`.  Synthetic generators and the dumpi loader build
traces straight from blocks; builders that append
:class:`~repro.core.events.TraceEvent` objects (:meth:`Trace.add`: the
repro-dumpi parser, the tests' per-event oracles) have them converted to
one block on first read.  :attr:`Trace.events` is a derived view, materialized lazily
from the blocks for code that wants one object per record; every summary
and every consumer in the library reads the blocks.

Execution time is taken from trace timestamps, exactly as the paper takes it
from dumpi wall-clock records; synthetic generators stamp it from their
calibrated duration model.  It is the ``t_execution`` of the utilization
formula (Eq. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .blocks import KIND_COLLECTIVE, EventBlock, same_records
from .communicator import CommunicatorTable
from .datatypes import DatatypeRegistry
from .events import P2PEvent, TraceEvent

__all__ = ["TraceMetadata", "Trace"]


@dataclass(frozen=True, slots=True)
class TraceMetadata:
    """Identifying metadata of one traced run."""

    app: str
    num_ranks: int
    execution_time: float
    variant: str = ""
    uses_derived_types: bool = False

    def __post_init__(self) -> None:
        if self.num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if self.execution_time <= 0:
            raise ValueError("execution_time must be positive")

    @property
    def label(self) -> str:
        """Human-readable ``app@ranks`` label, with variant if present."""
        base = f"{self.app}@{self.num_ranks}"
        return f"{base}/{self.variant}" if self.variant else base


class Trace:
    """An ordered stream of MPI call records plus run metadata."""

    def __init__(
        self,
        meta: TraceMetadata,
        datatypes: DatatypeRegistry | None = None,
        communicators: CommunicatorTable | None = None,
        events: Iterable[TraceEvent] | None = None,
    ) -> None:
        self.meta = meta
        self.datatypes = DatatypeRegistry() if datatypes is None else datatypes
        self.communicators = (
            CommunicatorTable.for_world(meta.num_ranks)
            if communicators is None
            else communicators
        )
        self._events: list[TraceEvent] | None = (
            list(events) if events is not None else []
        )
        self._blocks: list[EventBlock] | None = None

    @classmethod
    def from_blocks(
        cls,
        meta: TraceMetadata,
        blocks: Sequence[EventBlock],
        datatypes: DatatypeRegistry | None = None,
        communicators: CommunicatorTable | None = None,
        validate: bool = True,
    ) -> "Trace":
        """Build a block-native trace (no per-event objects allocated)."""
        trace = cls(meta, datatypes, communicators)
        trace._events = None
        trace._blocks = [b for b in blocks if len(b)]
        if validate:
            assert trace.communicators is not None
            for block in trace._blocks:
                block.check(meta.num_ranks, trace.communicators)
        return trace

    # -- storage ----------------------------------------------------------

    def blocks(self) -> list[EventBlock]:
        """The records as columnar blocks; added events are converted once."""
        if self._blocks is None:
            assert self._events is not None
            self._blocks = (
                [EventBlock.from_events(self._events)] if self._events else []
            )
        return self._blocks

    @property
    def events(self) -> list[TraceEvent]:
        """Per-record event objects, materialized lazily from the blocks.

        Treat the returned list as read-only — use :meth:`add` /
        :meth:`extend` to append records so the columnar view stays in sync.
        """
        if self._events is None:
            assert self._blocks is not None
            evs: list[TraceEvent] = []
            for block in self._blocks:
                evs.extend(block.to_events())
            self._events = evs
        return self._events

    # -- construction -----------------------------------------------------

    def add(self, event: TraceEvent) -> None:
        """Append one event after validating its ranks and communicator."""
        self._validate(event)
        self.events.append(event)
        self._blocks = None  # columnar view is stale; rebuild on demand

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for ev in events:
            self.add(ev)

    def _validate(self, event: TraceEvent) -> None:
        n = self.meta.num_ranks
        if event.caller >= n:
            raise ValueError(
                f"event caller {event.caller} out of range for {n}-rank trace"
            )
        if isinstance(event, P2PEvent) and event.peer >= n:
            raise ValueError(
                f"event peer {event.peer} out of range for {n}-rank trace"
            )
        assert self.communicators is not None
        if event.comm not in self.communicators:
            raise ValueError(f"event references unknown communicator {event.comm!r}")

    # -- iteration --------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(b) for b in self.blocks())

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        """Same metadata, tables and records; block partitioning is ignored."""
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.meta == other.meta
            and self.datatypes == other.datatypes
            and self.communicators == other.communicators
            and same_records(self.blocks(), other.blocks())
        )

    def __repr__(self) -> str:
        return f"Trace(meta={self.meta!r}, records={len(self)})"

    # -- summary properties ------------------------------------------------

    @property
    def num_calls(self) -> int:
        """Total MPI calls represented (repeat-expanded count)."""
        return sum(b.num_calls for b in self.blocks())

    def p2p_bytes(self) -> int:
        """Total bytes injected by point-to-point sends (repeat-expanded)."""
        total = 0
        for block in self.blocks():
            mask = block.p2p_send_mask()
            nbytes = np.multiply(
                block.row_bytes(self.datatypes)[mask],
                block.repeat[mask],
                dtype=np.int64,
            )
            total += int(nbytes.sum())
        return total

    def active_ranks(self) -> set[int]:
        """Ranks that appear as caller or peer of any record."""
        ranks: set[int] = set()
        for block in self.blocks():
            ranks.update(np.unique(block.caller).tolist())
            p2p = block.kind != KIND_COLLECTIVE
            ranks.update(np.unique(block.peer[p2p]).tolist())
        return ranks

    @property
    def uses_only_global_communicators(self) -> bool:
        """Paper §4.3 inclusion criterion."""
        assert self.communicators is not None
        return self.communicators.uses_only_global
