"""Bounded-memory streaming over :class:`~repro.core.blocks.EventBlock` runs.

A :class:`BlockStream` is a trace whose records never have to fit in RAM: it
carries the same identity a :class:`~repro.core.trace.Trace` does (metadata,
datatype registry, communicator table) but yields its event blocks from a
re-invocable factory, one bounded chunk at a time.  Three sources feed it:

- **generators** — every synthetic app can emit its plan in chunk-size
  slices (:meth:`repro.apps.base.SyntheticApp.iter_blocks`), so a
  million-rank trace is produced without ever materializing it;
- **spill files** — :func:`write_spill` persists a stream as one ``.npy``
  segment file per chunk column plus a JSON manifest, and
  :func:`open_spill` memory-maps those segments back, so warm reads cost
  page-cache traffic instead of heap (NumPy's ``mmap_mode`` is silently
  ignored for ``.npz`` zip archives, which is why the spill format is a
  directory of flat ``.npy`` files);
- **in-memory traces** — :meth:`BlockStream.from_trace` wraps an existing
  trace, and :meth:`BlockStream.rechunk` re-slices any stream to a byte
  budget, which is how the streaming-equivalence invariant replays the
  in-memory path chunk by chunk.

Chunking is pure row slicing: the per-row columns of a sliced block are
views of the source block, and every streaming consumer (traffic matrix,
collective expansion, sim ingestion) is pinned bit-identical to the
monolithic path — summation over int64 per-pair keys is associative, so the
partition never shows in any result.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .blocks import EventBlock
from .communicator import CommunicatorTable
from .datatypes import DatatypeRegistry
from .trace import Trace, TraceMetadata

__all__ = [
    "ROW_BYTES",
    "DEFAULT_CHUNK_BYTES",
    "BlockStream",
    "slice_block",
    "rechunk_blocks",
    "rows_per_chunk",
    "write_spill",
    "open_spill",
    "load_spill_trace",
    "SPILL_MANIFEST",
    "SPILL_FORMAT_VERSION",
]

#: Bytes one row occupies across the 13 parallel columns (name tables and
#: array headers excluded — they are O(1) per block).
ROW_BYTES = sum(
    np.dtype(dtype).itemsize for dtype in EventBlock._COLUMN_DTYPES.values()
)

#: Default per-chunk byte budget.  8 MiB ≈ 100k rows: large enough that
#: per-chunk NumPy dispatch overhead is negligible, small enough that a
#: dozen chunks in flight stay far under any practical RSS budget.
DEFAULT_CHUNK_BYTES = 8 * 1024 * 1024

SPILL_MANIFEST = "manifest.json"
#: Bump when the segment layout or a column's dtype changes; other versions
#: are refused.  v2: integer columns are stored narrow
#: (:attr:`EventBlock._COLUMN_DTYPES`).
SPILL_FORMAT_VERSION = 2


def rows_per_chunk(chunk_bytes: int) -> int:
    """Row budget for a byte budget (at least one row per chunk)."""
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    return max(1, int(chunk_bytes) // ROW_BYTES)


def slice_block(block: EventBlock, start: int, stop: int) -> EventBlock:
    """Rows ``[start, stop)`` of a block as a new block (columns are views)."""
    return EventBlock(
        **{
            name: getattr(block, name)[start:stop]
            for name in EventBlock._COLUMN_DTYPES
        },
        dtype_names=block.dtype_names,
        comm_names=block.comm_names,
        func_names=block.func_names,
    )


def rechunk_blocks(
    blocks: Iterable[EventBlock], chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> Iterator[EventBlock]:
    """Re-slice a block sequence so no yielded block exceeds the byte budget.

    Blocks already within budget pass through untouched (no copy); empty
    blocks are dropped.  Row order is preserved exactly.
    """
    max_rows = rows_per_chunk(chunk_bytes)
    for block in blocks:
        k = len(block)
        if k == 0:
            continue
        if k <= max_rows:
            yield block
            continue
        for start in range(0, k, max_rows):
            yield slice_block(block, start, min(start + max_rows, k))


class BlockStream:
    """An ordered, re-iterable stream of event blocks plus trace identity.

    ``blocks_factory`` is called anew on every iteration, so the stream can
    be consumed multiple times (each pass regenerates or re-reads the
    chunks); nothing obliges the factory to keep more than one chunk alive.
    Like a :class:`Trace` it offers ``meta``, ``datatypes``,
    ``communicators`` and :meth:`blocks`, so block consumers such as
    :func:`~repro.collectives.translate.iter_send_batches` read either.
    """

    def __init__(
        self,
        meta: TraceMetadata,
        blocks_factory: Callable[[], Iterable[EventBlock]],
        datatypes: DatatypeRegistry | None = None,
        communicators: CommunicatorTable | None = None,
    ) -> None:
        self.meta = meta
        self.datatypes = DatatypeRegistry() if datatypes is None else datatypes
        self.communicators = (
            CommunicatorTable.for_world(meta.num_ranks)
            if communicators is None
            else communicators
        )
        self._factory = blocks_factory

    def blocks(self) -> Iterator[EventBlock]:
        """One pass over the non-empty blocks (the :class:`Trace` protocol)."""
        for block in self._factory():
            if len(block):
                yield block

    def __iter__(self) -> Iterator[EventBlock]:
        return self.blocks()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "BlockStream":
        """Wrap an in-memory trace (blocks are shared, not copied)."""
        return cls(
            trace.meta,
            trace.blocks,
            datatypes=trace.datatypes,
            communicators=trace.communicators,
        )

    @classmethod
    def from_blocks(
        cls,
        meta: TraceMetadata,
        blocks: Iterable[EventBlock],
        datatypes: DatatypeRegistry | None = None,
        communicators: CommunicatorTable | None = None,
    ) -> "BlockStream":
        """Stream over a fixed block list (mostly for tests)."""
        blocks = list(blocks)
        return cls(
            meta, lambda: blocks, datatypes=datatypes, communicators=communicators
        )

    # -- transforms ---------------------------------------------------------

    def rechunk(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> "BlockStream":
        """The same records re-sliced to the byte budget."""
        factory = self._factory
        return BlockStream(
            self.meta,
            lambda: rechunk_blocks(factory(), chunk_bytes),
            datatypes=self.datatypes,
            communicators=self.communicators,
        )

    def to_trace(self, validate: bool = False) -> Trace:
        """Materialize the whole stream as an in-memory block-native trace."""
        return Trace.from_blocks(
            self.meta,
            list(self),
            datatypes=self.datatypes,
            communicators=self.communicators,
            validate=validate,
        )

    # -- summaries ----------------------------------------------------------

    def num_rows(self) -> int:
        """Total block rows (consumes one pass over the stream)."""
        return sum(len(block) for block in self)


# ------------------------------------------------------------------- spill


def _reconstruction_context(
    meta: TraceMetadata,
    datatypes: DatatypeRegistry,
    communicators: CommunicatorTable,
    seen_dtype_names: Iterable[str],
) -> dict | None:
    """How a spill load would rebuild (datatypes, communicators), or None.

    Mirrors the trace-cache representability rule: the communicator table
    must be the plain world table, and the datatype registry either fresh
    (names resolve lazily downstream) or exactly the result of resolving the
    spilled blocks' dtype names.  Anything else is not spill-representable.
    """
    if CommunicatorTable.for_world(meta.num_ranks) != communicators:
        return None
    if DatatypeRegistry() == datatypes:
        return {"resolve_dtypes": False}
    registry = DatatypeRegistry()
    for name in seen_dtype_names:
        registry.resolve(name)
    if registry == datatypes:
        return {"resolve_dtypes": True}
    return None


def write_spill(stream: BlockStream, directory: str | os.PathLike) -> Path | None:
    """Persist a stream as chunked ``.npy`` segments under ``directory``.

    One pass over the stream; at no point is more than one chunk resident.
    The write is atomic (temp directory + rename): readers either see the
    complete spill or nothing.  Returns the directory path, or ``None`` when
    the stream's registry/communicators cannot be reconstructed from a spill
    (callers fall back to another serialization).
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(
        tempfile.mkdtemp(dir=directory.parent, prefix=directory.name + ".tmp")
    )
    try:
        chunks: list[dict] = []
        seen_dtypes: dict[str, None] = {}
        for i, block in enumerate(stream):
            for column in EventBlock._COLUMN_DTYPES:
                np.save(tmp / f"c{i}_{column}.npy", getattr(block, column))
            chunks.append(
                {
                    "rows": len(block),
                    "dtype_names": list(block.dtype_names),
                    "comm_names": list(block.comm_names),
                    "func_names": list(block.func_names),
                }
            )
            for name in block.dtype_names:
                seen_dtypes[name] = None
        context = _reconstruction_context(
            stream.meta, stream.datatypes, stream.communicators, seen_dtypes
        )
        if context is None:
            shutil.rmtree(tmp, ignore_errors=True)
            return None
        meta = stream.meta
        manifest = {
            "format": "repro-spill",
            "version": SPILL_FORMAT_VERSION,
            "meta": {
                "app": meta.app,
                "num_ranks": meta.num_ranks,
                "execution_time": meta.execution_time,
                "variant": meta.variant,
                "uses_derived_types": meta.uses_derived_types,
            },
            "resolve_dtypes": context["resolve_dtypes"],
            "chunks": chunks,
        }
        # fsync the manifest before the rename: without it a system crash
        # can persist the rename but not the data, leaving a torn spill
        # that every later reader would evict and recompute.
        with (tmp / SPILL_MANIFEST).open("w") as fh:
            fh.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.replace(tmp, directory)
        except OSError:
            # A concurrent writer won the rename race; its spill has the
            # same content key, so ours is redundant.
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return directory


def _read_manifest(directory: Path) -> dict:
    manifest = json.loads((directory / SPILL_MANIFEST).read_text())
    if manifest.get("format") != "repro-spill":
        raise ValueError(f"{directory} is not a repro spill directory")
    if manifest.get("version") != SPILL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported spill version {manifest.get('version')!r} "
            f"(expected {SPILL_FORMAT_VERSION})"
        )
    return manifest


def _spill_chunks(
    directory: Path, chunk_entries: list[dict], mmap: bool
) -> Iterator[EventBlock]:
    mode = "r" if mmap else None
    for i, entry in enumerate(chunk_entries):
        columns = {
            column: np.load(directory / f"c{i}_{column}.npy", mmap_mode=mode)
            for column in EventBlock._COLUMN_DTYPES
        }
        yield EventBlock(
            **columns,
            dtype_names=tuple(entry["dtype_names"]),
            comm_names=tuple(entry["comm_names"]),
            func_names=tuple(entry["func_names"]),
        )


def open_spill(directory: str | os.PathLike, mmap: bool = True) -> BlockStream:
    """Open a spill directory as a lazy :class:`BlockStream`.

    With ``mmap=True`` (the default) each chunk's columns are memory-mapped:
    iterating the stream touches pages on demand and the OS may drop them
    under pressure, so reading an arbitrarily large spill needs only one
    chunk's worth of resident memory.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    m = manifest["meta"]
    meta = TraceMetadata(
        app=m["app"],
        num_ranks=int(m["num_ranks"]),
        execution_time=float(m["execution_time"]),
        variant=m["variant"],
        uses_derived_types=bool(m["uses_derived_types"]),
    )
    datatypes = DatatypeRegistry()
    if manifest["resolve_dtypes"]:
        for entry in manifest["chunks"]:
            for name in entry["dtype_names"]:
                datatypes.resolve(name)
    chunks = manifest["chunks"]
    return BlockStream(
        meta,
        lambda: _spill_chunks(directory, chunks, mmap),
        datatypes=datatypes,
    )


def load_spill_trace(directory: str | os.PathLike, mmap: bool = True) -> Trace:
    """A block-native :class:`Trace` over a spill's (possibly mapped) chunks.

    The trace holds every chunk's column arrays, but with ``mmap=True``
    those are memory-mapped views — constructing the trace reads only the
    manifest and array headers, and column data is paged in (and reclaimable)
    as consumers touch it.
    """
    stream = open_spill(directory, mmap=mmap)
    return stream.to_trace(validate=False)
