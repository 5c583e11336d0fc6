"""Rank-pair traffic matrices.

A :class:`CommMatrix` holds, for every (source, destination) rank pair with
traffic, the transferred **bytes**, the number of **messages**, and the
number of **packets** (4 kB max payload, paper §4.2.1).  It is the single
input of every static analysis in this library: MPI-level metrics consume it
directly; topology models consume it after rank→node mapping.

Matrices are built incrementally from :class:`SendBatch` message arrays and
then *finalized* into sorted columnar NumPy arrays (``src``, ``dst``,
``nbytes``, ``messages``, ``packets``).  Accumulation is vectorized per
batch; the finalize step merges duplicate pairs with ``np.add.at`` so no
Python-level loop ever touches individual messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import timings
from ..collectives.translate import SendBatch, iter_send_batches
from ..core.blocks import narrow, stored_dtype
from ..core.packets import MAX_PAYLOAD_BYTES, packets_for_bytes, packets_for_bytes_array
from ..core.stream import BlockStream
from ..core.trace import Trace

__all__ = [
    "CommMatrix",
    "CommMatrixBuilder",
    "matrix_from_trace",
    "matrix_from_stream",
    "DEFAULT_COMPACT_ROWS",
]

#: Pending-row threshold at which the streaming builder folds duplicates
#: (~2M rows of five int64 columns ≈ 80 MB of working set).
DEFAULT_COMPACT_ROWS = 1 << 21


@dataclass(frozen=True)
class CommMatrix:
    """Finalized sparse rank-pair traffic matrix.

    All five arrays are parallel and sorted by ``(src, dst)``.  Pairs with no
    traffic are absent; self-pairs (``src == dst``) may be present (they
    represent rank-local MPI messages and are skipped by network analyses).

    Columns are stored in the dtypes :data:`repro.core.blocks.CACHED_COLUMNS`
    declares: ranks in the smallest unsigned dtype for ``num_ranks``,
    message and packet counts in ``uint32`` when they fit, bytes in
    ``int64``.  Widen ranks and counts to ``int64`` before arithmetic.
    """

    num_ranks: int
    src: np.ndarray  # uint[k]
    dst: np.ndarray  # uint[k]
    nbytes: np.ndarray  # int64[k]
    messages: np.ndarray  # uint32[k] (int64 past uint32)
    packets: np.ndarray  # uint32[k] (int64 past uint32)

    def __post_init__(self) -> None:
        k = len(self.src)
        for name in ("dst", "nbytes", "messages", "packets"):
            if len(getattr(self, name)) != k:
                raise ValueError("CommMatrix columns must be parallel arrays")
        if k and (self.src.max() >= self.num_ranks or self.dst.max() >= self.num_ranks):
            raise ValueError("rank IDs exceed num_ranks")
        for name in ("src", "dst", "nbytes", "messages", "packets"):
            values = np.asarray(getattr(self, name))
            if name in ("src", "dst"):
                bound = self.num_ranks
            else:
                bound = int(values.max()) if k else 0
            dtype = stored_dtype("matrix", name, bound)
            object.__setattr__(self, name, narrow(values, dtype, name))

    # -- totals -------------------------------------------------------------

    @property
    def num_pairs(self) -> int:
        return len(self.src)

    @property
    def total_bytes(self) -> int:
        return int(self.nbytes.sum())

    @property
    def total_messages(self) -> int:
        return int(self.messages.sum())

    @property
    def total_packets(self) -> int:
        return int(self.packets.sum())

    # -- views --------------------------------------------------------------

    def dense(self, column: str = "nbytes") -> np.ndarray:
        """Dense ``(num_ranks, num_ranks)`` matrix of the given column.

        Intended for small rank counts (heat-map style inspection); memory is
        quadratic in ``num_ranks``.
        """
        values = getattr(self, column)
        out = np.zeros((self.num_ranks, self.num_ranks), dtype=np.int64)
        out[self.src, self.dst] = values
        return out

    def row(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Destinations and byte volumes sent by ``source``."""
        if not 0 <= source < self.num_ranks:
            raise ValueError(
                f"rank {source} out of range: the matrix has {self.num_ranks} ranks"
            )
        mask = self.src == source
        return self.dst[mask], self.nbytes[mask]

    def out_bytes_per_rank(self) -> np.ndarray:
        """Total bytes sent by each rank, shape ``(num_ranks,)``."""
        out = np.zeros(self.num_ranks, dtype=np.int64)
        np.add.at(out, self.src, self.nbytes)
        return out

    def in_bytes_per_rank(self) -> np.ndarray:
        """Total bytes received by each rank, shape ``(num_ranks,)``."""
        out = np.zeros(self.num_ranks, dtype=np.int64)
        np.add.at(out, self.dst, self.nbytes)
        return out

    def partners_per_rank(self) -> np.ndarray:
        """Number of distinct destinations each rank sends to (self excluded)."""
        out = np.zeros(self.num_ranks, dtype=np.int64)
        off = self.src != self.dst
        np.add.at(out, self.src[off], 1)
        return out

    # -- transforms -----------------------------------------------------------

    def remapped(self, permutation: np.ndarray) -> "CommMatrix":
        """Apply a rank permutation: new rank of old rank ``r`` is ``permutation[r]``.

        Used by the dimensionality study (re-linearizing rank IDs on a 2D/3D
        grid) and by mapping experiments.  The permutation must be a
        bijection on ``range(num_ranks)``.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.num_ranks,):
            raise ValueError(
                f"permutation must have shape ({self.num_ranks},), got {perm.shape}"
            )
        if not np.array_equal(np.sort(perm), np.arange(self.num_ranks)):
            raise ValueError("permutation must be a bijection on rank IDs")
        builder = CommMatrixBuilder(self.num_ranks)
        builder.add_arrays(
            perm[self.src], perm[self.dst], self.nbytes, self.messages, self.packets
        )
        return builder.finalize()

    @staticmethod
    def empty(num_ranks: int) -> "CommMatrix":
        z = np.zeros(0, dtype=np.int64)
        return CommMatrix(num_ranks, z, z.copy(), z.copy(), z.copy(), z.copy())


class CommMatrixBuilder:
    """Accumulates message batches into a :class:`CommMatrix`.

    Chunks of (src, dst, bytes, messages, packets) are appended as arrays and
    merged once at :meth:`finalize`; duplicate pairs are summed.
    """

    def __init__(self, num_ranks: int, payload: int = MAX_PAYLOAD_BYTES) -> None:
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.num_ranks = num_ranks
        self.payload = payload
        self._src: list[np.ndarray] = []
        self._dst: list[np.ndarray] = []
        self._nbytes: list[np.ndarray] = []
        self._messages: list[np.ndarray] = []
        self._packets: list[np.ndarray] = []
        self._rows = 0

    @property
    def pending_rows(self) -> int:
        """Unmerged accumulated rows (bounds the builder's working set)."""
        return self._rows

    def add_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        messages: np.ndarray,
        packets: np.ndarray,
    ) -> None:
        """Add pre-aggregated pair data (packets already computed).

        Every column is widened to ``int64`` here, so the pair keys and
        sums of :meth:`_merged_columns` never wrap around in a narrow
        dtype (a finalized matrix's columns are narrow).
        """
        self._src.append(np.asarray(src, dtype=np.int64))
        self._dst.append(np.asarray(dst, dtype=np.int64))
        self._nbytes.append(np.asarray(nbytes, dtype=np.int64))
        self._messages.append(np.asarray(messages, dtype=np.int64))
        self._packets.append(np.asarray(packets, dtype=np.int64))
        self._rows += len(self._src[-1])

    def add_batch(self, batch: SendBatch) -> None:
        """Add a columnar message batch (one row = one message shape)."""
        if len(batch.src) == 0:
            return
        pkts_per_msg = packets_for_bytes_array(batch.bytes_per_msg, self.payload)
        self.add_arrays(
            batch.src,
            batch.dst,
            batch.bytes_per_msg * batch.calls,
            batch.calls,
            pkts_per_msg * batch.calls,
        )

    def add_message(self, src: int, dst: int, nbytes: int, calls: int = 1) -> None:
        """Convenience scalar form: ``calls`` messages of ``nbytes`` from src to dst."""
        if calls < 1:
            raise ValueError("calls must be >= 1")
        pkts_per_msg = packets_for_bytes(nbytes, self.payload)
        self.add_arrays([src], [dst], [nbytes * calls], [calls], [pkts_per_msg * calls])

    def compact(self) -> None:
        """Fold pending rows in place, summing duplicate pairs.

        Per-pair int64 sums are associative, so compacting mid-build can
        never change the finalized matrix — it only bounds the pending
        working set near the distinct-pair count.  The streaming matrix
        build calls this whenever :attr:`pending_rows` crosses its
        threshold.
        """
        if not self._src:
            return
        unique_keys, out_bytes, out_msgs, out_pkts = self._merged_columns()
        self._src = [unique_keys // self.num_ranks]
        self._dst = [unique_keys % self.num_ranks]
        self._nbytes = [out_bytes]
        self._messages = [out_msgs]
        self._packets = [out_pkts]
        self._rows = len(unique_keys)

    def _merged_columns(self):
        """Merge pending chunks into sorted-unique keyed columns."""
        src = np.concatenate(self._src)
        dst = np.concatenate(self._dst)
        if len(src) and (src.max() >= self.num_ranks or dst.max() >= self.num_ranks):
            raise ValueError("rank IDs exceed num_ranks")
        if len(src) and (src.min() < 0 or dst.min() < 0):
            raise ValueError("rank IDs must be non-negative")
        nbytes = np.concatenate(self._nbytes)
        messages = np.concatenate(self._messages)
        packets = np.concatenate(self._packets)

        key = src * self.num_ranks + dst
        nsq = self.num_ranks * self.num_ranks
        if nsq <= (1 << 22) and nsq <= 32 * len(key):
            # Dense merge: O(rows) scatter-adds into flat rank-pair tables,
            # no sort.  Ascending flatnonzero == sorted (src, dst) keys, so
            # the result is identical to the sparse path below.
            present = np.zeros(nsq, dtype=bool)
            present[key] = True
            dense_bytes = np.zeros(nsq, dtype=np.int64)
            dense_msgs = np.zeros(nsq, dtype=np.int64)
            dense_pkts = np.zeros(nsq, dtype=np.int64)
            np.add.at(dense_bytes, key, nbytes)
            np.add.at(dense_msgs, key, messages)
            np.add.at(dense_pkts, key, packets)
            unique_keys = np.flatnonzero(present)
            out_bytes = dense_bytes[unique_keys]
            out_msgs = dense_msgs[unique_keys]
            out_pkts = dense_pkts[unique_keys]
        else:
            unique_keys, inverse = np.unique(key, return_inverse=True)
            k = len(unique_keys)
            out_bytes = np.zeros(k, dtype=np.int64)
            out_msgs = np.zeros(k, dtype=np.int64)
            out_pkts = np.zeros(k, dtype=np.int64)
            np.add.at(out_bytes, inverse, nbytes)
            np.add.at(out_msgs, inverse, messages)
            np.add.at(out_pkts, inverse, packets)

        return unique_keys, out_bytes, out_msgs, out_pkts

    def finalize(self) -> CommMatrix:
        """Merge all accumulated chunks, summing duplicate pairs."""
        if not self._src:
            return CommMatrix.empty(self.num_ranks)
        unique_keys, out_bytes, out_msgs, out_pkts = self._merged_columns()
        return CommMatrix(
            self.num_ranks,
            unique_keys // self.num_ranks,
            unique_keys % self.num_ranks,
            out_bytes,
            out_msgs,
            out_pkts,
        )


def matrix_from_trace(
    trace: Trace,
    include_p2p: bool = True,
    include_collectives: bool = True,
    payload: int = MAX_PAYLOAD_BYTES,
    collective: str = "flat",
) -> CommMatrix:
    """Build a traffic matrix from a trace.

    MPI-level metric analyses (§5) use ``include_collectives=False`` — the
    paper considers only point-to-point messages there, treating collectives
    on global communicators as a uniform bias.  Topology analyses (§6) use
    both, with collectives expanded through the ``collective`` engine
    (default the paper's flat §4.4 patterns).
    """
    with timings.stage("matrix"):
        builder = CommMatrixBuilder(trace.meta.num_ranks, payload=payload)
        for batch in iter_send_batches(
            trace, include_p2p, include_collectives, collective=collective
        ):
            builder.add_batch(batch)
        return builder.finalize()


def matrix_from_stream(
    stream: BlockStream,
    include_p2p: bool = True,
    include_collectives: bool = True,
    payload: int = MAX_PAYLOAD_BYTES,
    compact_rows: int = DEFAULT_COMPACT_ROWS,
    collective: str = "flat",
) -> CommMatrix:
    """Build a traffic matrix incrementally from a :class:`BlockStream`.

    Chunks are expanded and accumulated one at a time; whenever the pending
    row count crosses ``compact_rows`` the builder folds duplicates in
    place, so peak memory is bounded by ``O(chunk + distinct pairs)``
    rather than the total translated message count.  Compaction is an
    exact int64 fold, so the result is bit-identical to
    :func:`matrix_from_trace` over the materialized trace.
    """
    with timings.stage("matrix"):
        builder = CommMatrixBuilder(stream.meta.num_ranks, payload=payload)
        # Re-arm above the post-compact row count so a matrix whose
        # distinct-pair count exceeds the threshold still amortizes
        # (never recompacts until the pending set doubles).
        next_compact = compact_rows
        for batch in iter_send_batches(
            stream, include_p2p, include_collectives, collective=collective
        ):
            builder.add_batch(batch)
            if builder.pending_rows >= next_compact:
                builder.compact()
                next_compact = max(compact_rows, 2 * builder.pending_rows)
        return builder.finalize()
