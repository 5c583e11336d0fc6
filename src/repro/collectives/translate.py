"""Trace-level collective translation.

Walks a trace and expands every collective record into point-to-point
messages through a pluggable :class:`~repro.collectives.base.CollectiveAlgorithm`
engine (default ``flat``, the paper's §4.4 expansion).
:func:`iter_send_batches` is the iterator every consumer uses: whole
:class:`~repro.core.blocks.EventBlock` runs expand into a handful of fused
:class:`SendBatch` arrays (one per block and traffic class / collective
group), which the traffic-matrix builder consumes without per-message
allocation.  It reads any block source — a
:class:`~repro.core.trace.Trace` or a
:class:`~repro.core.stream.BlockStream`.  The per-event reference it is
pinned against lives in ``tests/oracles/collectives.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.blocks import KIND_COLLECTIVE, KIND_P2P_SEND, OPS, EventBlock
from ..core.stream import BlockStream
from ..core.trace import Trace
from .base import CollectiveAlgorithm
from .registry import get_algorithm

__all__ = [
    "TrafficClass",
    "SendBatch",
    "iter_send_batches",
    "collective_volume",
]


class TrafficClass(enum.Enum):
    """Origin of a translated message stream."""

    P2P = "p2p"
    COLLECTIVE = "collective"


@dataclass(frozen=True)
class SendBatch:
    """Many translated messages as parallel arrays.

    Row ``i`` says: rank ``src[i]`` sends ``calls[i]`` messages of
    ``bytes_per_msg[i]`` bytes to rank ``dst[i]``.  All ranks are global.
    """

    src: np.ndarray  # int64[m]
    dst: np.ndarray  # int64[m]
    bytes_per_msg: np.ndarray  # int64[m]
    calls: np.ndarray  # int64[m]
    traffic_class: TrafficClass

    def __post_init__(self) -> None:
        if not (
            self.src.shape == self.dst.shape == self.bytes_per_msg.shape == self.calls.shape
        ):
            raise ValueError("SendBatch columns must be parallel arrays")

    @property
    def total_bytes(self) -> int:
        """Bytes injected across all rows and calls."""
        return int((self.bytes_per_msg * self.calls).sum())

    @property
    def num_messages(self) -> int:
        return int(self.calls.sum())


def _block_batches(
    datatypes,
    communicators,
    block: EventBlock,
    include_p2p: bool,
    include_collectives: bool,
    engine: CollectiveAlgorithm,
) -> Iterator[SendBatch]:
    """Expand one block's rows against the source's datatype/communicator tables.

    Each block is self-contained (its name tables intern everything its
    rows reference), so expansion is block-local and the translated
    message multiset is independent of where block boundaries fall.
    """
    # Batches carry int64 columns: the block's narrow rank and repeat
    # columns are widened here, before any expansion arithmetic.
    row_bytes = block.row_bytes(datatypes)
    if include_p2p:
        mask = block.kind == KIND_P2P_SEND
        if mask.any():
            yield SendBatch(
                src=block.caller[mask].astype(np.int64),
                dst=block.peer[mask].astype(np.int64),
                bytes_per_msg=row_bytes[mask],
                calls=block.repeat[mask].astype(np.int64),
                traffic_class=TrafficClass.P2P,
            )
    if include_collectives:
        mask = block.kind == KIND_COLLECTIVE
        if not mask.any():
            return
        callers = block.caller[mask].astype(np.int64)
        nbytes = row_bytes[mask]
        roots = block.root[mask].astype(np.int64)
        calls = block.repeat[mask].astype(np.int64)
        ops = block.op[mask].astype(np.int64)
        comm_ids = block.comm_id[mask].astype(np.int64)
        assert communicators is not None
        # one expansion per distinct (op, communicator) pair in the block
        group_key = ops * len(block.comm_names) + comm_ids
        for key in np.unique(group_key):
            sel = group_key == key
            op = OPS[int(key) // len(block.comm_names)]
            comm = communicators.get(
                block.comm_names[int(key) % len(block.comm_names)]
            )
            for src, dst, bpm, cls in engine.expand_batch(
                op, comm, callers[sel], nbytes[sel], roots[sel], calls[sel]
            ):
                yield SendBatch(src, dst, bpm, cls, TrafficClass.COLLECTIVE)


def iter_send_batches(
    source: Trace | BlockStream,
    include_p2p: bool = True,
    include_collectives: bool = True,
    collective: str | CollectiveAlgorithm = "flat",
) -> Iterator[SendBatch]:
    """Expand a trace's or stream's blocks into fused message batches.

    One block is expanded at a time, so over a
    :class:`~repro.core.stream.BlockStream` peak memory is bounded by the
    chunk size plus its fan-out, never the whole trace.  Collective
    expansion is per-caller-row independent, so a phase spanning a block
    boundary expands identically.
    """
    engine = get_algorithm(collective)
    for block in source.blocks():
        yield from _block_batches(
            source.datatypes,
            source.communicators,
            block,
            include_p2p,
            include_collectives,
            engine,
        )


def collective_volume(
    trace: Trace, collective: str | CollectiveAlgorithm = "flat"
) -> int:
    """Total bytes the trace's collectives put on the network once expanded."""
    return sum(
        batch.total_bytes
        for batch in iter_send_batches(
            trace, include_p2p=False, collective=collective
        )
    )
