"""MPI call event records.

Every record in a trace corresponds to one MPI call issued by one rank
(the *caller*).  Two families matter for traffic analysis:

- **point-to-point** sends/receives (``MPI_Send``/``MPI_Isend``/...): carry a
  peer rank, an element count, and a datatype;
- **collectives** (``MPI_Bcast``/``MPI_Alltoall``/...): carry a communicator,
  counts, a datatype, and (for rooted operations) a root rank.

Traffic is always accounted on the *sending* side: a ``P2PEvent`` with
``direction=SEND`` injects bytes, the matching ``RECV`` does not (it is kept
because dumpi traces record both and parsers must accept them).

A ``repeat`` field compresses ``repeat`` identical back-to-back calls into
one record.  Real dumpi traces store each call separately; our ASCII format
records the repeat count explicitly, and parsers treat a missing annotation
as ``repeat=1``, so the compressed and expanded forms are interchangeable
for every static analysis in this library.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Union

__all__ = [
    "Direction",
    "CollectiveOp",
    "P2P_CALLS",
    "P2PEvent",
    "CollectiveEvent",
    "TraceEvent",
    "ROOTED_OPS",
    "VECTOR_OPS",
]


class Direction(enum.Enum):
    """Whether a point-to-point record injects or absorbs traffic."""

    SEND = "send"
    RECV = "recv"


#: MPI function names treated as point-to-point, mapped to their direction.
P2P_CALLS: dict[str, Direction] = {
    "MPI_Send": Direction.SEND,
    "MPI_Isend": Direction.SEND,
    "MPI_Issend": Direction.SEND,
    "MPI_Ssend": Direction.SEND,
    "MPI_Rsend": Direction.SEND,
    "MPI_Bsend": Direction.SEND,
    "MPI_Recv": Direction.RECV,
    "MPI_Irecv": Direction.RECV,
}


class CollectiveOp(enum.Enum):
    """Collective operations with a defined point-to-point translation."""

    BARRIER = "MPI_Barrier"
    BCAST = "MPI_Bcast"
    REDUCE = "MPI_Reduce"
    ALLREDUCE = "MPI_Allreduce"
    GATHER = "MPI_Gather"
    GATHERV = "MPI_Gatherv"
    SCATTER = "MPI_Scatter"
    SCATTERV = "MPI_Scatterv"
    ALLGATHER = "MPI_Allgather"
    ALLGATHERV = "MPI_Allgatherv"
    ALLTOALL = "MPI_Alltoall"
    ALLTOALLV = "MPI_Alltoallv"
    REDUCE_SCATTER = "MPI_Reduce_scatter"
    SCAN = "MPI_Scan"
    EXSCAN = "MPI_Exscan"


#: Collectives with a root parameter.
ROOTED_OPS = frozenset(
    {
        CollectiveOp.BCAST,
        CollectiveOp.REDUCE,
        CollectiveOp.GATHER,
        CollectiveOp.GATHERV,
        CollectiveOp.SCATTER,
        CollectiveOp.SCATTERV,
    }
)

#: Vector collectives whose data the paper splits evenly across ranks (§4.4).
VECTOR_OPS = frozenset(
    {
        CollectiveOp.GATHERV,
        CollectiveOp.SCATTERV,
        CollectiveOp.ALLGATHERV,
        CollectiveOp.ALLTOALLV,
    }
)


@dataclass(frozen=True, slots=True)
class P2PEvent:
    """One point-to-point MPI call (possibly repeated).

    Attributes
    ----------
    caller:
        Global rank issuing the call.
    peer:
        Global rank of the destination (for sends) or source (for receives).
    count:
        Number of datatype elements in the buffer.
    dtype:
        Datatype name; resolved against a :class:`~repro.core.datatypes.DatatypeRegistry`.
    direction:
        SEND records inject traffic; RECV records are bookkeeping only.
    func:
        The MPI function name as recorded in the trace (``MPI_Send``, ...).
    tag, comm:
        MPI message tag and communicator name.
    t_enter, t_leave:
        Wall-clock seconds of call entry/exit (first occurrence if repeated).
    repeat:
        Number of identical back-to-back calls this record stands for.
    """

    caller: int
    peer: int
    count: int
    dtype: str
    direction: Direction = Direction.SEND
    func: str = "MPI_Send"
    tag: int = 0
    comm: str = "MPI_COMM_WORLD"
    t_enter: float = 0.0
    t_leave: float = 0.0
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.caller < 0 or self.peer < 0:
            raise ValueError("ranks must be non-negative")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        expected = P2P_CALLS.get(self.func)
        if expected is not None and expected is not self.direction:
            raise ValueError(
                f"{self.func} is a {expected.value} call, direction says "
                f"{self.direction.value}"
            )

    @property
    def is_send(self) -> bool:
        return self.direction is Direction.SEND

    def bytes_per_call(self, element_size: int) -> int:
        """Payload bytes of one call given the datatype's element size."""
        return self.count * element_size

    def total_bytes(self, element_size: int) -> int:
        """Payload bytes across all repeats."""
        return self.bytes_per_call(element_size) * self.repeat

    def expanded(self) -> list["P2PEvent"]:
        """Expand the repeat compression into individual records."""
        return [replace(self, repeat=1) for _ in range(self.repeat)]


@dataclass(frozen=True, slots=True)
class CollectiveEvent:
    """One collective MPI call as seen by one participating rank.

    For rooted vector collectives the trace records per-peer counts only at
    the root; per the paper, vector data is split evenly across ranks, so a
    single aggregate ``count`` (total elements moved by this caller) plus the
    communicator size fully determines the translation.

    Attributes
    ----------
    caller:
        Global rank issuing the call.
    op:
        The collective operation.
    count:
        Elements *contributed by this caller* (send-side count for the
        caller's role; 0 for ``MPI_Barrier``).  For ``Alltoall`` this is the
        per-destination count, matching the MPI signature.
    dtype:
        Datatype name of the contributed elements.
    root:
        Root rank for rooted operations; ignored otherwise.
    comm:
        Communicator name.
    t_enter, t_leave:
        Wall-clock seconds of call entry/exit (first occurrence if repeated).
    repeat:
        Number of identical back-to-back calls this record stands for.
    """

    caller: int
    op: CollectiveOp
    count: int = 0
    dtype: str = "MPI_BYTE"
    root: int = 0
    comm: str = "MPI_COMM_WORLD"
    t_enter: float = 0.0
    t_leave: float = 0.0
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.caller < 0:
            raise ValueError("caller rank must be non-negative")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.root < 0:
            raise ValueError("root rank must be non-negative")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if self.op is CollectiveOp.BARRIER and self.count != 0:
            raise ValueError("MPI_Barrier carries no payload")

    @property
    def func(self) -> str:
        """The MPI function name (mirrors :class:`P2PEvent`)."""
        return self.op.value

    @property
    def is_rooted(self) -> bool:
        return self.op in ROOTED_OPS

    @property
    def is_vector(self) -> bool:
        return self.op in VECTOR_OPS

    def bytes_per_call(self, element_size: int) -> int:
        """Bytes contributed by this caller in one call."""
        return self.count * element_size

    def expanded(self) -> list["CollectiveEvent"]:
        """Expand the repeat compression into individual records."""
        return [replace(self, repeat=1) for _ in range(self.repeat)]


#: Any record that may appear in a trace event stream.
TraceEvent = Union[P2PEvent, CollectiveEvent]
