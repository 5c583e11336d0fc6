"""Columnar (structure-of-arrays) event storage.

An :class:`EventBlock` holds a run of trace records as parallel NumPy
arrays instead of one Python object per MPI call.  The columnar layout is
what makes the front-end scale: synthetic generators emit whole channel
sets as arrays, the collective translator expands entire blocks at once,
and the traffic-matrix builder consumes the columns without ever touching
an individual message from Python.

The representation is **lossless** with respect to the event objects of
:mod:`repro.core.events`: :meth:`EventBlock.from_events` /
:meth:`EventBlock.to_events` round-trip every field (including tags,
function names, timestamps, and repeat compression), so the legacy
``Trace.events`` view can always be materialized bit-for-bit.

Row encoding
------------

``kind`` selects the record family per row:

- :data:`KIND_P2P_SEND` / :data:`KIND_P2P_RECV` — point-to-point records;
  ``peer``/``tag``/``func_id`` are meaningful, ``op`` is ``-1`` and
  ``root`` is 0.
- :data:`KIND_COLLECTIVE` — collective records; ``op`` indexes
  :data:`OPS`, ``root`` is the communicator-local root, ``peer`` is ``-1``
  and ``func_id`` is ``-1``.

String-valued fields (datatype, communicator, MPI function name) are
interned per block: the integer columns ``dtype_id`` / ``comm_id`` /
``func_id`` index the block's ``dtype_names`` / ``comm_names`` /
``func_names`` tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .events import (
    CollectiveEvent,
    CollectiveOp,
    Direction,
    P2PEvent,
    TraceEvent,
)

__all__ = [
    "KIND_P2P_SEND",
    "KIND_P2P_RECV",
    "KIND_COLLECTIVE",
    "OPS",
    "OP_CODE",
    "EventBlock",
    "CACHED_COLUMNS",
    "index_dtype",
    "count_dtype",
    "stored_dtype",
    "narrow",
    "decoded_columns",
    "same_records",
]

#: ``kind`` column values.
KIND_P2P_SEND = 0
KIND_P2P_RECV = 1
KIND_COLLECTIVE = 2

#: Stable collective-op encoding: ``op`` column value ``i`` means ``OPS[i]``.
OPS: tuple[CollectiveOp, ...] = tuple(CollectiveOp)
OP_CODE: dict[CollectiveOp, int] = {op: i for i, op in enumerate(OPS)}

_KIND_OF_DIRECTION = {
    Direction.SEND: KIND_P2P_SEND,
    Direction.RECV: KIND_P2P_RECV,
}
_DIRECTION_OF_KIND = {
    KIND_P2P_SEND: Direction.SEND,
    KIND_P2P_RECV: Direction.RECV,
}


class _Interner:
    """Assigns dense integer ids to strings, preserving first-seen order."""

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def __call__(self, name: str) -> int:
        ids = self._ids
        idx = ids.get(name)
        if idx is None:
            idx = len(ids)
            ids[name] = idx
        return idx

    def names(self) -> tuple[str, ...]:
        return tuple(self._ids)


@dataclass
class EventBlock:
    """A run of trace records stored column-wise.

    All array fields are parallel; row ``i`` is one (possibly repeated) MPI
    call record.  Blocks are immutable by convention — consumers may keep
    references to the columns.
    """

    kind: np.ndarray  # uint8[k]
    caller: np.ndarray  # int32[k]
    peer: np.ndarray  # int32[k]   (-1 on collective rows)
    count: np.ndarray  # int32[k]
    dtype_id: np.ndarray  # int32[k]  -> dtype_names
    op: np.ndarray  # int16[k]  -> OPS  (-1 on p2p rows)
    root: np.ndarray  # int32[k]  (0 on p2p rows)
    comm_id: np.ndarray  # int32[k]  -> comm_names
    tag: np.ndarray  # int32[k]  (0 on collective rows)
    func_id: np.ndarray  # int16[k]  -> func_names  (-1 on collective rows)
    repeat: np.ndarray  # int32[k]
    t_enter: np.ndarray  # float64[k]
    t_leave: np.ndarray  # float64[k]
    dtype_names: tuple[str, ...] = ("MPI_BYTE",)
    comm_names: tuple[str, ...] = ("MPI_COMM_WORLD",)
    func_names: tuple[str, ...] = field(default_factory=tuple)

    #: Stored dtype of each column (see :data:`CACHED_COLUMNS`).  A block
    #: does not know its trace's rank count, so its integer columns take
    #: one width for every trace: ``int32``, the C ``int`` that MPI ranks,
    #: tags and counts are.  They stay signed: ``peer`` uses the sentinel
    #: -1, matching swaps callers and peers, and :meth:`check` must see a
    #: negative count or repeat to reject it.  Arithmetic on these
    #: columns widens them to ``int64`` first.
    _COLUMN_DTYPES = {
        "kind": np.uint8,
        "caller": np.int32,
        "peer": np.int32,
        "count": np.int32,
        "dtype_id": np.int32,
        "op": np.int16,
        "root": np.int32,
        "comm_id": np.int32,
        "tag": np.int32,
        "func_id": np.int16,
        "repeat": np.int32,
        "t_enter": np.float64,
        "t_leave": np.float64,
    }

    def __post_init__(self) -> None:
        k = None
        for name, dtype in self._COLUMN_DTYPES.items():
            arr = narrow(getattr(self, name), dtype, name)
            setattr(self, name, arr)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if k is None:
                k = len(arr)
            elif len(arr) != k:
                raise ValueError("EventBlock columns must be parallel arrays")
        self.dtype_names = tuple(self.dtype_names)
        self.comm_names = tuple(self.comm_names)
        self.func_names = tuple(self.func_names)

    # -- shape / totals -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def num_calls(self) -> int:
        """Repeat-expanded number of MPI calls in this block."""
        return int(self.repeat.sum(dtype=np.int64))

    # -- row masks ----------------------------------------------------------

    def p2p_send_mask(self) -> np.ndarray:
        return self.kind == KIND_P2P_SEND

    def collective_mask(self) -> np.ndarray:
        return self.kind == KIND_COLLECTIVE

    def row_bytes(self, datatypes) -> np.ndarray:
        """Payload bytes of one call of each row: ``count * element size``.

        ``datatypes`` is the owning trace's
        :class:`~repro.core.datatypes.DatatypeRegistry`; derived types it
        does not know resolve to the paper's one-byte convention (§4.3).
        """
        sizes = np.array(
            [datatypes.size_of(name) for name in self.dtype_names],
            dtype=np.int64,
        )
        return np.multiply(self.count, sizes[self.dtype_id], dtype=np.int64)

    # -- validation ---------------------------------------------------------

    def check(self, num_ranks: int, known_comms) -> None:
        """Vectorized equivalent of per-event ``Trace.add`` validation.

        Raises ``ValueError`` on the first violated invariant, mirroring the
        checks in :class:`~repro.core.events` ``__post_init__`` methods and
        ``Trace._validate``.
        """
        if len(self) == 0:
            return
        if self.caller.min() < 0:
            raise ValueError("ranks must be non-negative")
        if self.caller.max() >= num_ranks:
            raise ValueError(
                f"event caller {int(self.caller.max())} out of range for "
                f"{num_ranks}-rank trace"
            )
        p2p = self.kind != KIND_COLLECTIVE
        if p2p.any():
            peers = self.peer[p2p]
            if peers.min() < 0:
                raise ValueError("ranks must be non-negative")
            if peers.max() >= num_ranks:
                raise ValueError(
                    f"event peer {int(peers.max())} out of range for "
                    f"{num_ranks}-rank trace"
                )
        if self.count.min() < 0:
            raise ValueError("count must be non-negative")
        if self.repeat.min() < 1:
            raise ValueError("repeat must be >= 1")
        if self.root.min() < 0:
            raise ValueError("root rank must be non-negative")
        coll = ~p2p
        if coll.any():
            codes = self.op[coll]
            if codes.min() < 0 or codes.max() >= len(OPS):
                raise ValueError("collective rows carry an unknown op code")
            barrier = codes == OP_CODE[CollectiveOp.BARRIER]
            if barrier.any() and self.count[coll][barrier].max() != 0:
                raise ValueError("MPI_Barrier carries no payload")
        for name in self.comm_names:
            if name not in known_comms:
                raise ValueError(
                    f"event references unknown communicator {name!r}"
                )

    # -- conversion ---------------------------------------------------------

    @staticmethod
    def from_events(events) -> "EventBlock":
        """Build a block from a sequence of event objects (lossless)."""
        k = len(events)
        kind = np.empty(k, dtype=np.uint8)
        caller = np.empty(k, dtype=np.int64)
        peer = np.full(k, -1, dtype=np.int64)
        count = np.empty(k, dtype=np.int64)
        dtype_id = np.empty(k, dtype=np.int32)
        op = np.full(k, -1, dtype=np.int16)
        root = np.zeros(k, dtype=np.int64)
        comm_id = np.empty(k, dtype=np.int32)
        tag = np.zeros(k, dtype=np.int64)
        func_id = np.full(k, -1, dtype=np.int16)
        repeat = np.empty(k, dtype=np.int64)
        t_enter = np.empty(k, dtype=np.float64)
        t_leave = np.empty(k, dtype=np.float64)
        dtypes = _Interner()
        comms = _Interner()
        funcs = _Interner()

        for i, ev in enumerate(events):
            caller[i] = ev.caller
            count[i] = ev.count
            dtype_id[i] = dtypes(ev.dtype)
            comm_id[i] = comms(ev.comm)
            repeat[i] = ev.repeat
            t_enter[i] = ev.t_enter
            t_leave[i] = ev.t_leave
            if isinstance(ev, P2PEvent):
                kind[i] = _KIND_OF_DIRECTION[ev.direction]
                peer[i] = ev.peer
                tag[i] = ev.tag
                func_id[i] = funcs(ev.func)
            elif isinstance(ev, CollectiveEvent):
                kind[i] = KIND_COLLECTIVE
                op[i] = OP_CODE[ev.op]
                root[i] = ev.root
            else:
                raise TypeError(f"cannot blockify event of type {type(ev)}")

        return EventBlock(
            kind, caller, peer, count, dtype_id, op, root, comm_id, tag,
            func_id, repeat, t_enter, t_leave,
            dtype_names=dtypes.names() or ("MPI_BYTE",),
            comm_names=comms.names() or ("MPI_COMM_WORLD",),
            func_names=funcs.names(),
        )

    def to_events(self) -> list[TraceEvent]:
        """Materialize the legacy event objects, row order preserved."""
        # Scalarize columns once; constructing half a million dataclasses is
        # the unavoidable cost of the legacy view, but attribute-by-attribute
        # NumPy indexing would triple it.
        kind = self.kind.tolist()
        caller = self.caller.tolist()
        peer = self.peer.tolist()
        count = self.count.tolist()
        dtype_id = self.dtype_id.tolist()
        op = self.op.tolist()
        root = self.root.tolist()
        comm_id = self.comm_id.tolist()
        tag = self.tag.tolist()
        func_id = self.func_id.tolist()
        repeat = self.repeat.tolist()
        t_enter = self.t_enter.tolist()
        t_leave = self.t_leave.tolist()
        dtype_names = self.dtype_names
        comm_names = self.comm_names
        func_names = self.func_names

        events: list[TraceEvent] = []
        append = events.append
        for i in range(len(kind)):
            if kind[i] == KIND_COLLECTIVE:
                append(
                    CollectiveEvent(
                        caller=caller[i],
                        op=OPS[op[i]],
                        count=count[i],
                        dtype=dtype_names[dtype_id[i]],
                        root=root[i],
                        comm=comm_names[comm_id[i]],
                        t_enter=t_enter[i],
                        t_leave=t_leave[i],
                        repeat=repeat[i],
                    )
                )
            else:
                append(
                    P2PEvent(
                        caller=caller[i],
                        peer=peer[i],
                        count=count[i],
                        dtype=dtype_names[dtype_id[i]],
                        direction=_DIRECTION_OF_KIND[kind[i]],
                        func=func_names[func_id[i]],
                        tag=tag[i],
                        comm=comm_names[comm_id[i]],
                        t_enter=t_enter[i],
                        t_leave=t_leave[i],
                        repeat=repeat[i],
                    )
                )
        return events

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def empty() -> "EventBlock":
        z = np.zeros(0, dtype=np.int64)
        return EventBlock(
            z, z, z, z, z, z, z, z, z, z, z,
            np.zeros(0), np.zeros(0),
            func_names=(),
        )


#: Stored dtype of every cached integer column, declared once per cache
#: region: the producers store narrow, and every arithmetic site widens to
#: ``int64`` first, so no result depends on NumPy's promotion rules.  A
#: dtype is fixed, or derived from the column's bound:
#:
#: - ``"index"``: an index below a rank, node, link or pair count, in the
#:   smallest unsigned dtype that holds it (:func:`index_dtype`);
#: - ``"count"``: a message or packet count, ``uint32`` when every value
#:   fits and ``int64`` otherwise (:func:`count_dtype`).
#:
#: Byte totals, sums and times stay ``int64``/``float64``.  Trace columns
#: are fixed (:attr:`EventBlock._COLUMN_DTYPES`).
CACHED_COLUMNS: dict[str, dict[str, object]] = {
    "trace": EventBlock._COLUMN_DTYPES,
    "matrix": {
        "src": "index",
        "dst": "index",
        "nbytes": np.int64,
        "messages": "count",
        "packets": "count",
    },
    "incidence": {"pair_index": "index", "link_id": "index"},
    "pairs": {
        "src_node": "index",
        "dst_node": "index",
        "nbytes": np.int64,
        "packets": np.int64,
    },
}


def index_dtype(n: int) -> np.dtype:
    """The smallest unsigned dtype holding indexes ``0 .. n-1`` (``int64``
    past ``uint32``, so index arithmetic never promotes to float)."""
    dtype = np.min_scalar_type(max(int(n) - 1, 0))
    return dtype if dtype.itemsize <= 4 else np.dtype(np.int64)


def count_dtype(top: int) -> np.dtype:
    """``uint32`` when every count up to ``top`` fits, else ``int64``."""
    return np.dtype(np.uint32 if int(top) <= np.iinfo(np.uint32).max else np.int64)


def stored_dtype(region: str, column: str, bound: int = 0) -> np.dtype:
    """The dtype :data:`CACHED_COLUMNS` declares for ``region.column``.

    ``bound`` is the index count of an ``"index"`` column, or the largest
    value of a ``"count"`` column; fixed dtypes ignore it.
    """
    rule = CACHED_COLUMNS[region][column]
    if rule == "index":
        return index_dtype(bound)
    if rule == "count":
        return count_dtype(bound)
    return np.dtype(rule)


def narrow(values, dtype, name: str = "values") -> np.ndarray:
    """``values`` as an array of ``dtype``, refusing values it cannot hold.

    Inputs whose dtype casts safely (or is already ``dtype``) are converted
    without a range check; wider integer inputs are checked, so a narrowed
    column never wraps around silently.
    """
    arr = np.asarray(values)
    dtype = np.dtype(dtype)
    if arr.dtype == dtype:
        return arr
    if (
        arr.size
        and dtype.kind in "iu"
        and arr.dtype.kind in "iub"
        and not np.can_cast(arr.dtype, dtype)
    ):
        info = np.iinfo(dtype)
        lo, hi = int(arr.min()), int(arr.max())
        if lo < info.min or hi > info.max:
            bad = lo if lo < info.min else hi
            raise ValueError(f"{name} value {bad} does not fit in {dtype}")
    return arr.astype(dtype)


def decoded_columns(blocks: Iterable[EventBlock]) -> dict[str, np.ndarray]:
    """Concatenated per-record columns with interned ids decoded to names.

    Block *partitioning* is an emitter detail (the columnar front-end emits
    p2p and collective records as separate blocks; an event-built trace
    holds one block), and interned name ids are block-local — so records
    are compared and digested on their decoded values, concatenated across
    blocks in record order.  The ``dtype``/``comm``/``func`` columns are
    object arrays of names (``""`` where a row has no function name).
    """
    numeric = [c for c in EventBlock._COLUMN_DTYPES if not c.endswith("_id")]
    parts: dict[str, list[np.ndarray]] = {
        c: [] for c in numeric + ["dtype", "comm", "func"]
    }
    for block in blocks:
        for column in numeric:
            parts[column].append(getattr(block, column))
        for column, ids, names in (
            ("dtype", block.dtype_id, block.dtype_names),
            ("comm", block.comm_id, block.comm_names),
            ("func", block.func_id, block.func_names),
        ):
            decoded = np.full(len(ids), "", dtype=object)
            mask = ids >= 0
            if mask.any():
                decoded[mask] = np.asarray(names, dtype=object)[ids[mask]]
            parts[column].append(decoded)
    return {
        c: np.concatenate(v) if v else np.empty(0) for c, v in parts.items()
    }


def same_records(a: Iterable[EventBlock], b: Iterable[EventBlock]) -> bool:
    """True when two block sequences hold the same records in the same order."""
    ca, cb = decoded_columns(a), decoded_columns(b)
    return all(np.array_equal(ca[c], cb[c]) for c in ca)
