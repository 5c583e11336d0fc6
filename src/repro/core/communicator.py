"""MPI communicator model.

A communicator defines the group of ranks eligible to take part in a
communication and the mapping between *communicator-local* rank IDs and
*global* (``MPI_COMM_WORLD``) rank IDs.

The paper restricts its analysis to traces that only use **global
communicators** (§4.3): traces with ``MPI_Cart_create`` / ``MPI_Cart_sub``
style communicators are excluded, because dumpi traces do not record enough
information to keep the local→global rank mapping consistent.  We model the
general structure anyway — sub-communicators with explicit member lists and
Cartesian communicators — so that the exclusion rule can be *checked* rather
than assumed, and so the library remains usable on traces that do carry the
mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Communicator", "CartesianCommunicator", "CommunicatorTable", "WORLD_NAME"]

#: Conventional name for the world communicator in traces.
WORLD_NAME = "MPI_COMM_WORLD"


@dataclass(frozen=True)
class Communicator:
    """A group of global ranks with local rank numbering.

    ``members[i]`` is the global rank of local rank ``i``.  The world
    communicator of an N-rank job is ``Communicator.world(N)`` with
    ``members = (0, 1, ..., N-1)``.
    """

    name: str
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"communicator {self.name!r} has duplicate members")
        if any(m < 0 for m in self.members):
            raise ValueError(f"communicator {self.name!r} has negative rank IDs")

    @staticmethod
    def world(num_ranks: int, name: str = WORLD_NAME) -> "Communicator":
        if num_ranks <= 0:
            raise ValueError(f"world communicator needs >= 1 rank, got {num_ranks}")
        return Communicator(name, tuple(range(num_ranks)))

    @property
    def size(self) -> int:
        return len(self.members)

    def to_global(self, local_rank: int) -> int:
        """Translate a communicator-local rank to a global rank."""
        try:
            return self.members[local_rank]
        except IndexError:
            raise ValueError(
                f"local rank {local_rank} out of range for communicator "
                f"{self.name!r} of size {self.size}"
            ) from None

    def to_local(self, global_rank: int) -> int:
        """Translate a global rank to this communicator's local rank."""
        try:
            return self.members.index(global_rank)
        except ValueError:
            raise ValueError(
                f"global rank {global_rank} is not a member of {self.name!r}"
            ) from None

    @property
    def is_world_like(self) -> bool:
        """True when local and global numbering coincide (identity mapping)."""
        return self.members == tuple(range(len(self.members)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class CartesianCommunicator(Communicator):
    """A communicator created by ``MPI_Cart_create``.

    Carries the Cartesian grid shape and periodicity so locality analyses can
    recover the application's logical decomposition.  ``dims`` multiplies out
    to ``len(members)``; ordering is row-major (C order, last dim fastest), as
    MPI specifies.
    """

    dims: tuple[int, ...] = ()
    periods: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.dims:
            raise ValueError("Cartesian communicator requires at least one dim")
        prod = 1
        for d in self.dims:
            if d <= 0:
                raise ValueError(f"Cartesian dims must be positive, got {self.dims}")
            prod *= d
        if prod != len(self.members):
            raise ValueError(
                f"Cartesian dims {self.dims} imply {prod} ranks, "
                f"but communicator has {len(self.members)}"
            )
        if self.periods and len(self.periods) != len(self.dims):
            raise ValueError("periods must match dims in length")


@dataclass
class CommunicatorTable:
    """All communicators seen in one trace, keyed by name/handle.

    Tracks whether any *non-world-like* communicator was used, which is the
    paper's exclusion criterion (§4.3): when the local→global mapping of a
    sub-communicator cannot be trusted, the trace is rejected for locality
    analysis.
    """

    world: Communicator
    _table: dict[str, Communicator] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._table.setdefault(self.world.name, self.world)

    @staticmethod
    def for_world(num_ranks: int) -> "CommunicatorTable":
        return CommunicatorTable(Communicator.world(num_ranks))

    def add(self, comm: Communicator) -> Communicator:
        if comm.name in self._table and self._table[comm.name] != comm:
            raise ValueError(f"communicator {comm.name!r} already defined differently")
        members = set(comm.members)
        if not members <= set(self.world.members):
            raise ValueError(
                f"communicator {comm.name!r} contains ranks outside the world group"
            )
        self._table[comm.name] = comm
        return comm

    def get(self, name: str) -> Communicator:
        try:
            return self._table[name]
        except KeyError:
            raise KeyError(f"unknown communicator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def names(self) -> list[str]:
        return sorted(self._table)

    @property
    def uses_only_global(self) -> bool:
        """True iff every communicator is world-like (paper §4.3 criterion)."""
        return all(c.is_world_like for c in self._table.values())
