"""Converter for real SST-dumpi ``dumpi2ascii`` output.

The Sandia trace portal ships binary dumpi traces; ``dumpi2ascii`` renders
them as one text file per rank, with records of the form::

    MPI_Send entering at walltime 11651.672436, cputime 0.000112 seconds in thread 0.
    int count=4096
    MPI_Datatype datatype=2 (MPI_CHAR)
    int dest=5
    int tag=0
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Send returning at walltime 11651.672440, cputime 0.000116 seconds in thread 0.

This module parses that layout into :class:`~repro.core.trace.Trace`
objects so the full analysis pipeline runs unchanged on real traces when
they are available.  The parser decodes each rank file into columnar
accumulators and the directory loader assembles them directly into
:class:`~repro.core.blocks.EventBlock` arrays — no per-record Python event
objects are created on the loading path (the legacy ``events`` view stays
available lazily).

The parser is deliberately tolerant: unknown MPI functions are skipped
(dumpi records *every* call, most of which carry no traffic), unknown
datatypes resolve through the registry's 1-byte convention (the paper's
treatment of underdocumented derived types), and per-call fields are
matched by name with sensible fallbacks (``sendcount``/``count``,
``dest``/``source``/``root``).

Calls that carry traffic the converter does not decode
(:data:`UNDECODED_CALLS`: ``MPI_Sendrecv``, persistent requests,
nonblocking collectives, one-sided RMA) are never dropped silently: they
raise :class:`UndecodedCallError` naming the rank file, line and function,
or with ``strict=False`` are skipped with one warning per load that counts
them per function.

Cartesian/sub-communicator calls cannot be reconstructed from dumpi output
(the paper excludes such traces, §4.3); records referencing a communicator
other than ``MPI_COMM_WORLD``/``MPI_COMM_SELF`` raise
:class:`UnsupportedCommunicatorError`, or with ``strict=False`` are skipped
and counted in the same warning, as ``<func> (sub-communicator)``.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from ..core.blocks import (
    KIND_COLLECTIVE,
    KIND_P2P_RECV,
    KIND_P2P_SEND,
    OP_CODE,
    EventBlock,
    _Interner,
)
from ..core.events import CollectiveOp, Direction, P2P_CALLS
from ..core.trace import Trace, TraceMetadata

__all__ = [
    "UNDECODED_CALLS",
    "UndecodedCallError",
    "UnsupportedCommunicatorError",
    "parse_rank_stream",
    "load_rank_file",
    "load_dumpi2ascii_dir",
    "stream_dumpi2ascii_dir",
    "RANK_FILE_PATTERN",
]

#: dumpi2ascii file naming: <prefix>-<rank>.txt (rank zero-padded).
RANK_FILE_PATTERN = re.compile(r"-(\d+)\.txt$")

_ENTER_RE = re.compile(
    r"^(MPI_\w+) entering at walltime ([0-9.eE+-]+), cputime ([0-9.eE+-]+)"
)
_RETURN_RE = re.compile(
    r"^(MPI_\w+) returning at walltime ([0-9.eE+-]+)"
)
_FIELD_RE = re.compile(
    r"^\s*(?:\w[\w\s*]*\s)?(\w+)=(-?\d+)(?:\s+\(([\w-]+)\))?"
)

_COLLECTIVE_BY_NAME = {op.value: op for op in CollectiveOp}

#: Traffic-bearing calls the converter does not decode: combined
#: send-receives, one-sided RMA, and the nonblocking form of every decoded
#: collective.  Persistent requests (``MPI_*_init`` plus ``MPI_Start``/
#: ``MPI_Startall``) are matched by :data:`_PERSISTENT_RE`.
UNDECODED_CALLS = frozenset(
    {
        "MPI_Sendrecv", "MPI_Sendrecv_replace", "MPI_Start", "MPI_Startall",
        "MPI_Put", "MPI_Get", "MPI_Accumulate", "MPI_Get_accumulate",
        "MPI_Rput", "MPI_Rget", "MPI_Raccumulate",
    }
    | {"MPI_I" + op.value[len("MPI_"):].lower() for op in CollectiveOp}
)
_PERSISTENT_RE = re.compile(r"^MPI_\w+_init$")

_log = logging.getLogger(__name__)

#: World-like communicator names dumpi prints; everything else is a
#: sub-communicator we cannot resolve.
_WORLD_COMMS = {"MPI_COMM_WORLD", "MPI_COMM_SELF"}

_KIND_OF_DIRECTION = {
    Direction.SEND: KIND_P2P_SEND,
    Direction.RECV: KIND_P2P_RECV,
}


class UnsupportedCommunicatorError(ValueError):
    """A record references a communicator whose rank mapping is unknown."""


class UndecodedCallError(ValueError):
    """A record carries traffic the converter does not decode."""


def _undecoded(func: str) -> bool:
    return func in UNDECODED_CALLS or _PERSISTENT_RE.match(func) is not None


def _warn_skipped(skipped: Counter, source: object) -> None:
    """One warning per load for the records ``strict=False`` skipped."""
    if skipped:
        counts = ", ".join(f"{func} x{n}" for func, n in sorted(skipped.items()))
        _log.warning(
            "skipped %d traffic-bearing records the converter does not decode "
            "in %s: %s", sum(skipped.values()), source, counts,
        )


class _Record:
    """One MPI call being assembled."""

    __slots__ = ("func", "line", "t_enter", "t_leave", "ints", "names")

    def __init__(self, func: str, line: int, t_enter: float) -> None:
        self.func = func
        self.line = line
        self.t_enter = t_enter
        self.t_leave = t_enter
        self.ints: dict[str, int] = {}
        self.names: dict[str, str] = {}


class _Columns:
    """Columnar accumulator for one rank's decoded records.

    String fields are interned through shared tables so per-rank columns
    concatenate into one :class:`EventBlock` without re-mapping.
    """

    __slots__ = (
        "kind", "peer", "count", "dtype_id", "op", "root", "tag",
        "func_id", "t_enter", "t_leave", "_dtypes", "_funcs",
    )

    def __init__(self, dtypes: _Interner, funcs: _Interner) -> None:
        self.kind: list[int] = []
        self.peer: list[int] = []
        self.count: list[int] = []
        self.dtype_id: list[int] = []
        self.op: list[int] = []
        self.root: list[int] = []
        self.tag: list[int] = []
        self.func_id: list[int] = []
        self.t_enter: list[float] = []
        self.t_leave: list[float] = []
        self._dtypes = dtypes
        self._funcs = funcs

    def __len__(self) -> int:
        return len(self.kind)

    def add_p2p(
        self,
        direction: Direction,
        peer: int,
        count: int,
        dtype: str,
        func: str,
        tag: int,
        t_enter: float,
        t_leave: float,
    ) -> None:
        self.kind.append(_KIND_OF_DIRECTION[direction])
        self.peer.append(peer)
        self.count.append(count)
        self.dtype_id.append(self._dtypes(dtype))
        self.op.append(-1)
        self.root.append(0)
        self.tag.append(tag)
        self.func_id.append(self._funcs(func))
        self.t_enter.append(t_enter)
        self.t_leave.append(t_leave)

    def add_collective(
        self,
        op: CollectiveOp,
        count: int,
        dtype: str,
        root: int,
        t_enter: float,
        t_leave: float,
    ) -> None:
        self.kind.append(KIND_COLLECTIVE)
        self.peer.append(-1)
        self.count.append(count)
        self.dtype_id.append(self._dtypes(dtype))
        self.op.append(OP_CODE[op])
        self.root.append(root)
        self.tag.append(0)
        self.func_id.append(-1)
        self.t_enter.append(t_enter)
        self.t_leave.append(t_leave)

    def to_block(self, rank: int) -> EventBlock:
        k = len(self)
        return EventBlock(
            kind=np.array(self.kind, dtype=np.uint8),
            caller=np.full(k, rank, dtype=np.int64),
            peer=np.array(self.peer, dtype=np.int64),
            count=np.array(self.count, dtype=np.int64),
            dtype_id=np.array(self.dtype_id, dtype=np.int32),
            op=np.array(self.op, dtype=np.int16),
            root=np.array(self.root, dtype=np.int64),
            comm_id=np.zeros(k, dtype=np.int32),
            tag=np.array(self.tag, dtype=np.int64),
            func_id=np.array(self.func_id, dtype=np.int16),
            repeat=np.ones(k, dtype=np.int64),
            t_enter=np.array(self.t_enter, dtype=np.float64),
            t_leave=np.array(self.t_leave, dtype=np.float64),
            dtype_names=self._dtypes.names() or ("MPI_BYTE",),
            comm_names=("MPI_COMM_WORLD",),
            func_names=self._funcs.names(),
        )


def _first(record: _Record, *keys: str, default: int | None = None) -> int | None:
    for key in keys:
        if key in record.ints:
            return record.ints[key]
    return default


def _check_comm(record: _Record, strict: bool, skipped: Counter) -> bool:
    """True when the record may be translated; raises, or counts the skip
    into ``skipped`` and returns False, otherwise."""
    comm_name = record.names.get("comm", "MPI_COMM_WORLD")
    if comm_name in _WORLD_COMMS:
        return True
    if strict:
        raise UnsupportedCommunicatorError(
            f"{record.func} uses communicator {comm_name!r}; dumpi traces do "
            "not carry sub-communicator rank mappings (paper §4.3 exclusion)"
        )
    skipped[f"{record.func} (sub-communicator)"] += 1
    return False


def _parse_columns(
    stream: TextIO | Iterable[str],
    columns: _Columns,
    strict: bool,
    source: object,
    skipped: Counter,
) -> tuple[float, float]:
    """Decode one rank's dumpi2ascii text into ``columns``.

    ``source`` names the rank file in errors; undecoded calls and
    sub-communicator records that ``strict=False`` lets through are counted
    into ``skipped``.  Returns
    ``(first_walltime, last_walltime)``.
    """
    t_min = float("inf")
    t_max = float("-inf")
    current: _Record | None = None

    for number, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        enter = _ENTER_RE.match(line)
        if enter:
            current = _Record(enter.group(1), number, float(enter.group(2)))
            t_min = min(t_min, current.t_enter)
            continue
        ret = _RETURN_RE.match(line)
        if ret and current is not None and ret.group(1) == current.func:
            current.t_leave = float(ret.group(2))
            t_max = max(t_max, current.t_leave)
            if not _undecoded(current.func):
                _translate(current, columns, strict, skipped)
            elif strict:
                raise UndecodedCallError(
                    f"{source}:{current.line}: {current.func} carries traffic "
                    "the dumpi2ascii converter does not decode (strict=False "
                    "skips it with a warning)"
                )
            else:
                skipped[current.func] += 1
            current = None
            continue
        if current is not None:
            field = _FIELD_RE.match(line)
            if field:
                key, value, name = field.group(1), int(field.group(2)), field.group(3)
                current.ints[key] = value
                if name:
                    current.names[key] = name
    if t_min > t_max:
        t_min = t_max = 0.0
    return t_min, t_max


def parse_rank_stream(
    stream: TextIO | Iterable[str],
    rank: int,
    strict: bool = True,
) -> tuple[list, float, float]:
    """Parse one rank's dumpi2ascii text.

    Returns ``(events, first_walltime, last_walltime)``.  Events carry the
    given caller rank; receives are kept (they do not inject traffic but
    complete the record, as in real traces).
    """
    columns = _Columns(_Interner(), _Interner())
    source = getattr(stream, "name", f"<rank {rank} stream>")
    skipped: Counter = Counter()
    t_min, t_max = _parse_columns(stream, columns, strict, source, skipped)
    _warn_skipped(skipped, source)
    return columns.to_block(rank).to_events(), t_min, t_max


def _translate(
    record: _Record, columns: _Columns, strict: bool, skipped: Counter
) -> None:
    """Decode one assembled record into the columns (or skip it)."""
    func = record.func
    if func in P2P_CALLS:
        if not _check_comm(record, strict, skipped):
            return
        direction = P2P_CALLS[func]
        peer_key = "dest" if direction is Direction.SEND else "source"
        peer = _first(record, peer_key, "dest", "source")
        count = _first(record, "count", default=0)
        if peer is None or peer < 0:  # MPI_ANY_SOURCE etc.
            return
        columns.add_p2p(
            direction=direction,
            peer=int(peer),
            count=int(count or 0),
            dtype=record.names.get("datatype", "MPI_BYTE"),
            func=func,
            tag=int(_first(record, "tag", default=0) or 0),
            t_enter=record.t_enter,
            t_leave=record.t_leave,
        )
        return
    op = _COLLECTIVE_BY_NAME.get(func)
    if op is not None:
        if not _check_comm(record, strict, skipped):
            return
        count = _first(
            record, "sendcount", "count", "recvcount", "sendcounts", default=0
        )
        dtype = record.names.get(
            "sendtype", record.names.get("datatype", "MPI_BYTE")
        )
        if op is CollectiveOp.BARRIER:
            count = 0
        columns.add_collective(
            op=op,
            count=max(int(count or 0), 0),
            dtype=dtype,
            root=int(_first(record, "root", default=0) or 0),
            t_enter=record.t_enter,
            t_leave=record.t_leave,
        )
    # anything else: bookkeeping calls (Comm_rank, Wait, Init, ...) carry
    # no traffic


def load_rank_file(path: str | Path, rank: int, strict: bool = True):
    """Parse one per-rank dumpi2ascii file."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_rank_stream(fh, rank, strict)


def _rank_files(directory: Path) -> dict[int, Path]:
    """Discover and validate the ``<prefix>-<rank>.txt`` per-rank files."""
    rank_files: dict[int, Path] = {}
    for path in sorted(directory.glob("*.txt")):
        match = RANK_FILE_PATTERN.search(path.name)
        if match:
            rank_files[int(match.group(1))] = path
    if not rank_files:
        raise FileNotFoundError(
            f"no dumpi2ascii rank files (*-NNNN.txt) under {directory}"
        )
    num_ranks = max(rank_files) + 1
    if set(rank_files) != set(range(num_ranks)):
        missing = sorted(set(range(num_ranks)) - set(rank_files))
        raise ValueError(f"missing rank files for ranks {missing[:10]}")
    return rank_files


def _parse_rank(
    path: Path, strict: bool, skipped: Counter
) -> tuple[_Columns, float, float]:
    """Decode one rank file into fresh columns (file-local name tables)."""
    columns = _Columns(_Interner(), _Interner())
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lo, hi = _parse_columns(fh, columns, strict, path, skipped)
    return columns, lo, hi


def load_dumpi2ascii_dir(
    directory: str | Path,
    app: str,
    strict: bool = True,
) -> Trace:
    """Assemble a trace from a directory of dumpi2ascii per-rank files.

    Files are matched by the ``<prefix>-<rank>.txt`` convention; the rank
    count is the number of files, the execution time the span between the
    earliest and latest walltime across ranks.  The result is a block-native
    trace: per-rank columns are concatenated, stably sorted by enter time,
    and normalized to start at walltime zero.
    """
    directory = Path(directory)
    rank_files = _rank_files(directory)
    num_ranks = len(rank_files)

    dtypes = _Interner()
    funcs = _Interner()
    blocks: list[EventBlock] = []
    skipped: Counter = Counter()
    t_min = float("inf")
    t_max = float("-inf")
    for rank in range(num_ranks):
        columns = _Columns(dtypes, funcs)
        path = rank_files[rank]
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            lo, hi = _parse_columns(fh, columns, strict, path, skipped)
        if len(columns):
            blocks.append(columns.to_block(rank))
            t_min = min(t_min, lo)
            t_max = max(t_max, hi)
    _warn_skipped(skipped, directory)
    duration = max(t_max - t_min, 1e-9) if t_min <= t_max else 1e-9

    meta = TraceMetadata(app=app, num_ranks=num_ranks, execution_time=duration)
    if not blocks:
        return Trace(meta)

    # Merge the per-rank columns (they share the interner tables), stable
    # sort by enter time, normalize walltimes to start at zero.
    merged = EventBlock(
        kind=np.concatenate([b.kind for b in blocks]),
        caller=np.concatenate([b.caller for b in blocks]),
        peer=np.concatenate([b.peer for b in blocks]),
        count=np.concatenate([b.count for b in blocks]),
        dtype_id=np.concatenate([b.dtype_id for b in blocks]),
        op=np.concatenate([b.op for b in blocks]),
        root=np.concatenate([b.root for b in blocks]),
        comm_id=np.concatenate([b.comm_id for b in blocks]),
        tag=np.concatenate([b.tag for b in blocks]),
        func_id=np.concatenate([b.func_id for b in blocks]),
        repeat=np.concatenate([b.repeat for b in blocks]),
        t_enter=np.concatenate([b.t_enter for b in blocks]),
        t_leave=np.concatenate([b.t_leave for b in blocks]),
        dtype_names=dtypes.names() or ("MPI_BYTE",),
        comm_names=("MPI_COMM_WORLD",),
        func_names=funcs.names(),
    )
    order = np.argsort(merged.t_enter, kind="stable")
    sorted_block = EventBlock(
        kind=merged.kind[order],
        caller=merged.caller[order],
        peer=merged.peer[order],
        count=merged.count[order],
        dtype_id=merged.dtype_id[order],
        op=merged.op[order],
        root=merged.root[order],
        comm_id=merged.comm_id[order],
        tag=merged.tag[order],
        func_id=merged.func_id[order],
        repeat=merged.repeat[order],
        t_enter=merged.t_enter[order] - t_min,
        t_leave=merged.t_leave[order] - t_min,
        dtype_names=merged.dtype_names,
        comm_names=merged.comm_names,
        func_names=merged.func_names,
    )
    return Trace.from_blocks(meta, [sorted_block])


def stream_dumpi2ascii_dir(
    directory: str | Path,
    app: str,
    strict: bool = True,
    chunk_bytes: int | None = None,
):
    """Chunked, re-iterable variant of :func:`load_dumpi2ascii_dir`.

    Returns a :class:`~repro.core.stream.BlockStream` that parses one rank
    file at a time and emits its records as byte-bounded chunks, so peak
    memory is one rank's decoded columns plus one chunk — the
    whole-directory trace is never materialized.  The directory is parsed
    twice: once up front for the walltime extent the metadata needs, and
    once more per consuming pass.

    The one intentional difference from the in-memory loader: records are
    *not* globally time-sorted — they arrive rank-major, chronological
    within each rank, with walltimes normalized to the same global zero.
    The event *multiset* is identical, so every order-insensitive consumer
    (traffic matrices, locality metrics, simulation feeds) produces
    bit-identical results on either path; tests pin the matrix equality.
    """
    from ..core.stream import DEFAULT_CHUNK_BYTES, BlockStream, rechunk_blocks

    if chunk_bytes is None:
        chunk_bytes = DEFAULT_CHUNK_BYTES
    directory = Path(directory)
    rank_files = _rank_files(directory)
    num_ranks = len(rank_files)

    t_min = float("inf")
    t_max = float("-inf")
    skipped: Counter = Counter()
    for rank in range(num_ranks):
        columns, lo, hi = _parse_rank(rank_files[rank], strict, skipped)
        if len(columns):
            t_min = min(t_min, lo)
            t_max = max(t_max, hi)
    _warn_skipped(skipped, directory)
    duration = max(t_max - t_min, 1e-9) if t_min <= t_max else 1e-9
    offset = t_min if t_min <= t_max else 0.0
    meta = TraceMetadata(app=app, num_ranks=num_ranks, execution_time=duration)

    def rank_blocks():
        for rank in range(num_ranks):
            # The up-front pass raised or warned for this directory already.
            columns, _, _ = _parse_rank(rank_files[rank], strict, Counter())
            if not len(columns):
                continue
            block = columns.to_block(rank)
            yield EventBlock(
                **{
                    name: getattr(block, name)
                    for name in EventBlock._COLUMN_DTYPES
                    if name not in ("t_enter", "t_leave")
                },
                t_enter=block.t_enter - offset,
                t_leave=block.t_leave - offset,
                dtype_names=block.dtype_names,
                comm_names=block.comm_names,
                func_names=block.func_names,
            )

    return BlockStream(meta, lambda: rechunk_blocks(rank_blocks(), chunk_bytes))
