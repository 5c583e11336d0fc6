"""Vectorized FIFO send/recv matching over columnar EventBlocks.

MPI's non-overtaking rule makes point-to-point matching purely positional:
on one (src, dst, comm, tag) channel the k-th send matches the k-th
receive, in each side's program order.  Over the repeat-expanded event
stream that is a sort, not a search — both sides are lexsorted by channel
(stably, so FIFO position within a channel is preserved), after which the
k-th sorted send pairs with the k-th sorted recv.  The per-event oracle
in ``tests/oracles/critpath.py`` replays the same rule with per-channel
queues one event at a time; ``tests/test_critpath.py`` pins the two
bit-identical, up to a 1728-rank AMG trace.

Collectives are aligned by *call sequence*: MPI orders collectives on a
communicator by position alone, so the i-th collective call on a
communicator forms one logical instance across all members.  Each
instance's fan-in/fan-out message set comes from the existing
collective→p2p translation (:func:`repro.collectives.patterns.
expand_collective_batch`), so the DAG's collective edges carry exactly
the bytes the traffic matrices account.

Traces that record only the send side (the synthetic generators' default)
are totalized by :func:`ensure_receives`, which synthesizes the matching
``MPI_Irecv`` row directly after every send row — the same interleaved
layout ``emit_receives=True`` produces natively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.blocks import (
    KIND_COLLECTIVE,
    KIND_P2P_RECV,
    KIND_P2P_SEND,
    OPS,
    EventBlock,
)
from ..core.trace import Trace

__all__ = [
    "MatchError",
    "EventTable",
    "MatchResult",
    "ChannelAudit",
    "ensure_receives",
    "expand_events",
    "channel_audit",
    "match_events",
    "iter_collective_edges",
    "expand_collective_batch_phased",
]


class MatchError(ValueError):
    """A trace's traffic cannot be matched into a happens-before structure.

    Raised with a diagnostic naming the offending channel (or communicator)
    and the unbalanced counts, so truncated or corrupted traces fail loudly
    instead of producing a silently wrong DAG.
    """


# --------------------------------------------------------------- event table


@dataclass
class EventTable:
    """Repeat-expanded flat view of a trace's records.

    Event IDs are positions in (block, row, repeat-instance) order.  Block
    emission preserves per-rank ordering, so restricting the ID sequence to
    one rank's events yields that rank's program order — the property both
    the FIFO matcher and the DAG's program-order edges rely on.

    ``comm`` holds table-global communicator IDs (per-block interned names
    are re-interned across blocks); ``nbytes`` is the payload of a *single*
    call (count x element size).
    """

    num_ranks: int
    rank: np.ndarray  # int64[n] caller
    kind: np.ndarray  # uint8[n]
    peer: np.ndarray  # int64[n] (-1 on collective rows)
    nbytes: np.ndarray  # int64[n]
    comm: np.ndarray  # int64[n] -> comm_names
    tag: np.ndarray  # int64[n]
    op: np.ndarray  # int16[n] (-1 on p2p rows)
    root: np.ndarray  # int64[n] comm-local root
    comm_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.rank)


def expand_events(trace: Trace, max_repeat: int | None = None) -> EventTable:
    """Flatten a trace's blocks into one repeat-expanded :class:`EventTable`.

    ``max_repeat`` clamps each row's repeat count before expansion — a
    deterministic iteration-truncation knob for apps whose fully unrolled
    call count is in the tens of millions (the per-row clamp keeps matched
    send/recv rows aligned because generators emit them with equal repeat
    counts).  ``None`` expands exactly.
    """
    if max_repeat is not None and max_repeat < 1:
        raise ValueError("max_repeat must be >= 1")
    comm_gids: dict[str, int] = {}
    parts: dict[str, list[np.ndarray]] = {
        name: []
        for name in ("rank", "kind", "peer", "nbytes", "comm", "tag", "op", "root")
    }
    for block in trace.blocks():
        gids = np.array(
            [comm_gids.setdefault(name, len(comm_gids)) for name in block.comm_names],
            dtype=np.int64,
        )
        rep = block.repeat
        if max_repeat is not None:
            rep = np.minimum(rep, max_repeat)
        idx = np.repeat(np.arange(len(block), dtype=np.int64), rep)
        parts["rank"].append(block.caller[idx])
        parts["kind"].append(block.kind[idx])
        parts["peer"].append(block.peer[idx])
        parts["nbytes"].append(block.row_bytes(trace.datatypes)[idx])
        parts["comm"].append(gids[block.comm_id.astype(np.int64)][idx])
        parts["tag"].append(block.tag[idx])
        parts["op"].append(block.op[idx])
        parts["root"].append(block.root[idx])

    def cat(name: str, dtype) -> np.ndarray:
        arrays = parts[name]
        if not arrays:
            return np.empty(0, dtype=dtype)
        # Widens the blocks' narrow columns into the table's dtypes.
        return np.concatenate(arrays, dtype=dtype)

    names = [""] * len(comm_gids)
    for name, gid in comm_gids.items():
        names[gid] = name
    return EventTable(
        num_ranks=trace.meta.num_ranks,
        rank=cat("rank", np.int64),
        kind=cat("kind", np.uint8),
        peer=cat("peer", np.int64),
        nbytes=cat("nbytes", np.int64),
        comm=cat("comm", np.int64),
        tag=cat("tag", np.int64),
        op=cat("op", np.int16),
        root=cat("root", np.int64),
        comm_names=tuple(names),
    )


# ---------------------------------------------------------- receive synthesis


def ensure_receives(trace: Trace) -> Trace:
    """Totalize a send-only trace by synthesizing its receive side.

    The synthetic generators record only sends by default (traffic is
    accounted on the send side).  A happens-before DAG needs both ends of
    every message, so for traces with no ``KIND_P2P_RECV`` rows at all this
    inserts the mirrored ``MPI_Irecv`` row directly after each send row —
    the same interleaved layout ``emit_receives=True`` emits natively,
    which trivially satisfies channel FIFO balance.  Traces that already
    carry receive rows (native ``emit_receives`` traces, dumpi recordings)
    are returned unchanged.
    """
    blocks = trace.blocks()
    if any((b.kind == KIND_P2P_RECV).any() for b in blocks):
        return trace
    if not any((b.kind == KIND_P2P_SEND).any() for b in blocks):
        return trace
    out: list[EventBlock] = []
    for block in blocks:
        send = block.kind == KIND_P2P_SEND
        num_sends = int(send.sum())
        if num_sends == 0:
            out.append(block)
            continue
        k = len(block)
        # New position of original row i: shifted down by one slot per
        # send row strictly before it; each send's mirror lands right after.
        before = np.concatenate(([0], np.cumsum(send)[:-1]))
        pos = np.arange(k, dtype=np.int64) + before
        rpos = pos[send] + 1
        func_names = list(block.func_names)
        if "MPI_Irecv" not in func_names:
            func_names.append("MPI_Irecv")
        recv_fid = func_names.index("MPI_Irecv")
        cols: dict[str, np.ndarray] = {}
        for name, dtype in EventBlock._COLUMN_DTYPES.items():
            src_col = getattr(block, name)
            col = np.empty(k + num_sends, dtype=dtype)
            col[pos] = src_col
            col[rpos] = src_col[send]
            cols[name] = col
        cols["kind"][rpos] = KIND_P2P_RECV
        cols["caller"][rpos] = block.peer[send]
        cols["peer"][rpos] = block.caller[send]
        cols["func_id"][rpos] = recv_fid
        out.append(
            EventBlock(
                dtype_names=block.dtype_names,
                comm_names=block.comm_names,
                func_names=tuple(func_names),
                **cols,
            )
        )
    return Trace.from_blocks(
        trace.meta, out, trace.datatypes, trace.communicators
    )


# ------------------------------------------------------------- channel audit


@dataclass
class ChannelAudit:
    """Per-channel send/recv call and byte totals (row-level, no expansion).

    One entry per (src, dst, comm, tag) channel, in lexicographic channel
    order.  Totals count the *repeat-expanded* calls, computed from the
    compressed rows directly, so the audit is O(rows) even for traces whose
    expansion would be tens of millions of events — this is what the
    ``critpath-matching`` invariant runs on every tier-1 scenario.
    """

    src: np.ndarray  # int64[channels]
    dst: np.ndarray
    comm: np.ndarray
    tag: np.ndarray
    send_calls: np.ndarray  # int64[channels]
    recv_calls: np.ndarray
    send_bytes: np.ndarray
    recv_bytes: np.ndarray
    comm_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.src)

    @property
    def balanced(self) -> bool:
        return bool(
            np.array_equal(self.send_calls, self.recv_calls)
            and np.array_equal(self.send_bytes, self.recv_bytes)
        )

    def channel_label(self, i: int) -> str:
        return (
            f"(src={int(self.src[i])}, dst={int(self.dst[i])}, "
            f"comm={self.comm_names[int(self.comm[i])]!r}, tag={int(self.tag[i])})"
        )


def channel_audit(trace: Trace) -> ChannelAudit:
    """Aggregate a trace's p2p rows into per-channel send/recv totals."""
    comm_gids: dict[str, int] = {}
    srcs, dsts, comms, tags, sides, calls, nbytes = ([] for _ in range(7))
    for block in trace.blocks():
        row_bytes = block.row_bytes(trace.datatypes)
        gids = np.array(
            [comm_gids.setdefault(name, len(comm_gids)) for name in block.comm_names],
            dtype=np.int64,
        )
        for kind, is_send in ((KIND_P2P_SEND, True), (KIND_P2P_RECV, False)):
            mask = block.kind == kind
            if not mask.any():
                continue
            caller = block.caller[mask]
            peer = block.peer[mask]
            srcs.append(caller if is_send else peer)
            dsts.append(peer if is_send else caller)
            comms.append(gids[block.comm_id.astype(np.int64)[mask]])
            tags.append(block.tag[mask])
            rep = block.repeat[mask]
            sides.append(np.full(len(rep), is_send, dtype=bool))
            calls.append(rep)
            nbytes.append(np.multiply(rep, row_bytes[mask], dtype=np.int64))
    names = [""] * len(comm_gids)
    for name, gid in comm_gids.items():
        names[gid] = name
    if not srcs:
        empty = np.empty(0, dtype=np.int64)
        return ChannelAudit(
            empty, empty, empty, empty, empty, empty, empty, empty, tuple(names)
        )
    # The audit's columns are int64: the blocks' narrow ones widen here.
    src = np.concatenate(srcs, dtype=np.int64)
    dst = np.concatenate(dsts, dtype=np.int64)
    comm = np.concatenate(comms)
    tag = np.concatenate(tags, dtype=np.int64)
    side = np.concatenate(sides)
    call = np.concatenate(calls, dtype=np.int64)
    byte = np.concatenate(nbytes)
    order = np.lexsort((tag, comm, dst, src))
    src, dst, comm, tag = src[order], dst[order], comm[order], tag[order]
    side, call, byte = side[order], call[order], byte[order]
    new = np.empty(len(src), dtype=bool)
    new[0] = True
    new[1:] = (
        (src[1:] != src[:-1])
        | (dst[1:] != dst[:-1])
        | (comm[1:] != comm[:-1])
        | (tag[1:] != tag[:-1])
    )
    group = np.cumsum(new) - 1
    ngroups = int(group[-1]) + 1
    totals = []
    for mask in (side, ~side):
        for weight in (call, byte):
            acc = np.zeros(ngroups, dtype=np.int64)
            np.add.at(acc, group[mask], weight[mask])
            totals.append(acc)
    return ChannelAudit(
        src=src[new],
        dst=dst[new],
        comm=comm[new],
        tag=tag[new],
        send_calls=totals[0],
        send_bytes=totals[1],
        recv_calls=totals[2],
        recv_bytes=totals[3],
        comm_names=tuple(names),
    )


# ----------------------------------------------------------------- matching


@dataclass
class MatchResult:
    """Matched point-to-point pairs over a repeat-expanded event table.

    Parallel arrays: matched pair ``i`` is the message from expanded event
    ``send_event[i]`` to ``recv_event[i]`` carrying ``nbytes[i]`` bytes.
    Pairs are ordered by channel (lexicographic (src, dst, comm, tag)),
    FIFO position within a channel — the canonical order both the
    vectorized matcher and the per-event oracle produce, which is what
    makes bit-identity a meaningful gate.
    """

    send_event: np.ndarray  # int64[m]
    recv_event: np.ndarray  # int64[m]
    nbytes: np.ndarray  # int64[m]

    def __len__(self) -> int:
        return len(self.send_event)


def _unbalanced_message(
    s_keys: tuple[np.ndarray, ...],
    r_keys: tuple[np.ndarray, ...],
    comm_names: tuple[str, ...],
) -> str:
    """Diagnose which channels have unequal send/recv counts."""

    def counts(keys: tuple[np.ndarray, ...]) -> dict[tuple, int]:
        if keys[0].size == 0:
            return {}
        stacked = np.stack(keys, axis=1)
        uniq, cnt = np.unique(stacked, axis=0, return_counts=True)
        return {tuple(int(v) for v in row): int(c) for row, c in zip(uniq, cnt)}

    sc = counts(s_keys)
    rc = counts(r_keys)
    bad = sorted(k for k in set(sc) | set(rc) if sc.get(k, 0) != rc.get(k, 0))
    parts = []
    for src, dst, comm, tag in bad[:3]:
        parts.append(
            f"(src={src}, dst={dst}, comm={comm_names[comm]!r}, tag={tag}): "
            f"{sc.get((src, dst, comm, tag), 0)} send(s) vs "
            f"{rc.get((src, dst, comm, tag), 0)} recv(s)"
        )
    suffix = ", ..." if len(bad) > 3 else ""
    return (
        f"unmatched point-to-point traffic on {len(bad)} channel(s): "
        + "; ".join(parts)
        + suffix
    )


def match_events(table: EventTable) -> MatchResult:
    """Vectorized FIFO matcher: one stable sort per side, then zip.

    Expanded event IDs ascend in program order per rank, so a stable
    channel sort preserves each channel's FIFO order on both sides; after
    verifying the two sorted channel-key sequences are identical, the k-th
    sorted send *is* the match of the k-th sorted recv.  Imbalanced
    channels (truncated traces) raise :class:`MatchError` naming the
    channels and counts.
    """
    sid = np.flatnonzero(table.kind == KIND_P2P_SEND)
    rid = np.flatnonzero(table.kind == KIND_P2P_RECV)
    s_keys = (table.rank[sid], table.peer[sid], table.comm[sid], table.tag[sid])
    r_keys = (table.peer[rid], table.rank[rid], table.comm[rid], table.tag[rid])
    s_order = _channel_sort(*s_keys)
    r_order = _channel_sort(*r_keys)
    s_sorted = tuple(k[s_order] for k in s_keys)
    r_sorted = tuple(k[r_order] for k in r_keys)
    if len(sid) != len(rid) or not all(
        np.array_equal(a, b) for a, b in zip(s_sorted, r_sorted)
    ):
        raise MatchError(
            _unbalanced_message(s_keys, r_keys, table.comm_names)
        )
    send_event = sid[s_order]
    recv_event = rid[r_order]
    send_bytes = table.nbytes[send_event]
    recv_bytes = table.nbytes[recv_event]
    if not np.array_equal(send_bytes, recv_bytes):
        i = int(np.flatnonzero(send_bytes != recv_bytes)[0])
        raise MatchError(
            f"matched send/recv payload mismatch on channel "
            f"(src={int(s_sorted[0][i])}, dst={int(s_sorted[1][i])}, "
            f"comm={table.comm_names[int(s_sorted[2][i])]!r}, "
            f"tag={int(s_sorted[3][i])}): "
            f"send {int(send_bytes[i])} B vs recv {int(recv_bytes[i])} B"
        )
    return MatchResult(send_event, recv_event, send_bytes)


def _channel_sort(
    src: np.ndarray, dst: np.ndarray, comm: np.ndarray, tag: np.ndarray
) -> np.ndarray:
    """Stable sort by (src, dst, comm, tag).

    When the key ranges are small enough, the four keys are packed into a
    single int64 and sorted in one pass — 3-4x faster than a four-key
    lexsort on multi-million-event tables, with an identical (stable)
    permutation.  Arbitrary (e.g. negative or huge) tag values fall back
    to the general lexsort.
    """
    n = len(src)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    maxes = [int(k.max()) + 1 if n else 1 for k in (src, dst, comm, tag)]
    mins = [int(k.min()) for k in (src, dst, comm, tag)]
    if min(mins) >= 0:
        span = 1
        for m in maxes:
            span *= m
        if span < 2**62:
            # Widened first: narrow keys times a Python int keep their dtype.
            src = np.asarray(src, dtype=np.int64)
            code = ((src * maxes[1] + dst) * maxes[2] + comm) * maxes[3] + tag
            return np.argsort(code, kind="stable")
    return np.lexsort((tag, comm, dst, src))


# ------------------------------------------------------- collective instances


#: Edges per chunk wherever an edge-sized pass works a chunk at a time to
#: keep its temporaries small: the collective edges
#: :func:`iter_collective_edges` yields, the cost vectors, and the
#: longest-path DP's weight windows.  Large enough that per-chunk overhead
#: vanishes, small enough that a chunk's temporaries stay tens of MB.
EDGE_CHUNK = 1 << 20


def iter_collective_edges(
    table: EventTable, communicators, collective="flat"
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Fan-in/fan-out message edges between aligned collective instances.

    MPI orders collectives on a communicator purely by call position, so
    the i-th collective call by each member forms one logical instance.
    Each instance's message set is produced by the ``collective`` engine's
    phased batch expansion, and every message becomes an edge between the
    sender's and receiver's event for that instance.  Self-messages (the
    translation's paper convention includes them for volume accounting)
    are dropped — a rank's dependence on itself is already program order.

    Yields ``(src_event, dst_event, nbytes, after)`` parallel arrays in
    chunks of about :data:`EDGE_CHUNK` edges, in edge order, so a caller
    can convert and store the edges without ever holding all of them
    twice.  ``after[i]`` marks messages that semantically depart only
    after the sender finished *receiving* within the same collective (the
    broadcast half of ALLREDUCE, every SCAN/EXSCAN chain link, the
    non-root rounds of tree schedules), which the DAG routes from the
    sender's completion node to keep the phases sequential.

    Raises :class:`MatchError` on misaligned sequences: a member calling a
    different number of collectives than its peers, or instance k
    recording different ops/roots across participants.
    """
    from ..collectives.registry import get_algorithm

    engine = get_algorithm(collective)
    cid = np.flatnonzero(table.kind == KIND_COLLECTIVE)
    if cid.size == 0:
        return
    comm_c = table.comm[cid]
    rank_c = table.rank[cid]
    order = np.lexsort((rank_c, comm_c))  # stable: event order within groups
    sid = cid[order]
    sc = comm_c[order]
    sr = rank_c[order]
    new = np.empty(len(sid), dtype=bool)
    new[0] = True
    new[1:] = (sc[1:] != sc[:-1]) | (sr[1:] != sr[:-1])
    pos = np.arange(len(sid), dtype=np.int64)
    group = np.cumsum(new) - 1
    inst = pos - pos[new][group]

    out_src: list[np.ndarray] = []
    out_dst: list[np.ndarray] = []
    out_bytes: list[np.ndarray] = []
    out_after: list[np.ndarray] = []
    pending = 0
    for gid in np.unique(sc):
        name = table.comm_names[int(gid)]
        comm = communicators.get(name)
        members = np.asarray(comm.members, dtype=np.int64)
        n = len(members)
        sel = sc == gid
        ranks_g = sr[sel]
        events_g = sid[sel]
        inst_g = inst[sel]
        mmax = int(members.max())
        to_local = np.full(mmax + 1, -1, dtype=np.int64)
        to_local[members] = np.arange(n, dtype=np.int64)
        in_range = (ranks_g >= 0) & (ranks_g <= mmax)
        local_g = np.where(in_range, to_local[np.clip(ranks_g, 0, mmax)], -1)
        if local_g.min() < 0:
            bad = int(ranks_g[local_g < 0][0])
            raise MatchError(
                f"rank {bad} records collectives on communicator {name!r} "
                f"but is not a member"
            )
        counts = np.bincount(local_g, minlength=n)
        if counts.min() != counts.max():
            lo = int(np.argmin(counts))
            hi = int(np.argmax(counts))
            raise MatchError(
                f"collective participation mismatch on communicator "
                f"{name!r}: rank {int(members[hi])} called "
                f"{int(counts[hi])} collective(s) but rank "
                f"{int(members[lo])} called {int(counts[lo])}"
            )
        k = int(counts[0])
        if k == 0 or n == 1:
            continue
        lookup = np.empty((n, k), dtype=np.int64)
        lookup[local_g, inst_g] = events_g
        op_mat = table.op[lookup]
        root_mat = table.root[lookup]
        bytes_mat = table.nbytes[lookup]
        for mat, what in ((op_mat, "op"), (root_mat, "root")):
            diff = mat != mat[0]
            if diff.any():
                r, i = np.argwhere(diff)[0]
                raise MatchError(
                    f"misaligned collective sequence on communicator "
                    f"{name!r}: instance {int(i)} records {what} "
                    f"{int(mat[r, i])} at rank {int(members[r])} but "
                    f"{what} {int(mat[0, i])} at rank {int(members[0])}"
                )
        ones = np.ones(n, dtype=np.int64)
        for i in range(k):
            op = OPS[int(op_mat[0, i])]
            batches = expand_collective_batch_phased(
                engine, op, comm, members, bytes_mat[:, i], root_mat[:, i], ones
            )
            for bsrc, bdst, bpm, _calls, after in batches:
                keep = bsrc != bdst
                if not keep.any():
                    continue
                bsrc, bdst, bpm = bsrc[keep], bdst[keep], bpm[keep]
                out_src.append(lookup[to_local[bsrc], i])
                out_dst.append(lookup[to_local[bdst], i])
                out_bytes.append(bpm.astype(np.int64, copy=False))
                out_after.append(np.full(len(bsrc), after, dtype=bool))
                pending += len(bsrc)
                if pending >= EDGE_CHUNK:
                    yield _flush(out_src, out_dst, out_bytes, out_after)
                    pending = 0
    if pending:
        yield _flush(out_src, out_dst, out_bytes, out_after)


def _flush(*columns: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Concatenate and empty each pending column list."""
    out = tuple(np.concatenate(parts) for parts in columns)
    for parts in columns:
        parts.clear()
    return out


def expand_collective_batch_phased(engine, op, comm, callers, nbytes, roots, calls):
    """Thin indirection over the engine's phased batch expansion.

    Exists so tests can spy on the reuse point; semantics are exactly
    :meth:`repro.collectives.base.CollectiveAlgorithm.expand_batch_phased`.
    """
    return engine.expand_batch_phased(op, comm, callers, nbytes, roots, calls)
