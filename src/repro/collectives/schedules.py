"""Cached message schedules for the non-flat collective engines.

A :class:`Schedule` is the complete send plan of one collective operation on
one communicator size and root, laid out as flat arrays CSR-indexed by the
**caller's** communicator-local rank: row ``i`` says rank ``src[i]`` sends
``dst[i]`` a message of ``mult[i] * nbytes`` bytes plus the sum of the
even-split shares named by the row's ``share_idx`` slice, where ``nbytes``
is the caller record's own payload.  Expanding a batch of records is then a
vectorized CSR gather — no per-record Python, whatever the algorithm.

Attribution follows the per-record-independence convention of
:mod:`repro.collectives.patterns`: each record contributes exactly the rows
of its caller, so the union over all callers reproduces the full schedule
regardless of how records are split across blocks or chunks.  ``src`` may
differ from the caller (store-and-forward path segments, used by the
GATHERV schedules, attribute every hop of a contribution's path to the
contributor's record — the only per-record scheme that conserves exactly
under heterogeneous contributions).

Every row carries an ``after`` flag for the happens-before DAG: ``True``
means the sender forwards data it first had to receive, so the critpath
edge leaves the sender's *completion* node.  Tree fan-outs, fan-ins,
chains, and unfold steps set it; pairwise exchanges and circular ring
flows must not (a completion→completion edge between exchange partners
would form a cycle).

Schedules are built in *virtual* rank space (the root has vrank 0) and
rotated to local ranks at construction, so any root works; builders are
``lru_cache``d per ``(op, size, root)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..core.events import CollectiveOp
from .patterns import even_split_rows

__all__ = [
    "Schedule",
    "expand_batch_from_schedule",
    "binomial_fanout",
    "binomial_fanin",
    "binomial_gatherv_paths",
    "rd_allreduce",
    "rd_allgather",
    "ring_fanout",
    "ring_fanin",
    "ring_gatherv_paths",
    "ring_allreduce",
    "ring_allgather_paths",
    "bine_fanout",
    "bine_fanin",
    "bine_gatherv_paths",
    "bine_allreduce",
    "bine_allgather",
]

_FANOUT_OPS = (CollectiveOp.BCAST, CollectiveOp.SCATTER, CollectiveOp.SCATTERV)
_FANIN_OPS = (CollectiveOp.REDUCE, CollectiveOp.GATHER)


@dataclass(frozen=True)
class Schedule:
    """One collective's send plan, CSR-indexed by caller-local rank."""

    n: int
    starts: np.ndarray  # int64[n+1]: rows of caller-local l are [starts[l], starts[l+1])
    src: np.ndarray  # int64[rows], local ranks
    dst: np.ndarray  # int64[rows], local ranks
    mult: np.ndarray  # int64[rows]: linear part, bytes = mult * caller nbytes
    share_starts: np.ndarray  # int64[rows+1]: CSR into share_idx
    share_idx: np.ndarray  # int64[*]: local ranks whose even_split share the row adds
    after: np.ndarray  # bool[rows]: sender forwards received data


def _make(n: int, root: int, rows: list[tuple]) -> Schedule:
    """Assemble row specs ``(caller_v, src_v, dst_v, mult, share_vranks, after)``.

    All vranks (including the share indices) are rotated through ``root``
    into local rank space.
    """
    if not rows:
        z = np.zeros(0, dtype=np.int64)
        return Schedule(
            n, np.zeros(n + 1, dtype=np.int64), z, z, z,
            np.zeros(1, dtype=np.int64), z, np.zeros(0, dtype=bool),
        )
    caller = np.array([(r[0] + root) % n for r in rows], dtype=np.int64)
    order = np.argsort(caller, kind="stable")
    caller = caller[order]
    src = np.array([(rows[i][1] + root) % n for i in order], dtype=np.int64)
    dst = np.array([(rows[i][2] + root) % n for i in order], dtype=np.int64)
    mult = np.array([rows[i][3] for i in order], dtype=np.int64)
    after = np.array([rows[i][5] for i in order], dtype=bool)
    share_counts = np.array([len(rows[i][4]) for i in order], dtype=np.int64)
    share_starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(share_counts, out=share_starts[1:])
    share_idx = np.array(
        [(u + root) % n for i in order for u in rows[i][4]], dtype=np.int64
    )
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(caller, minlength=n), out=starts[1:])
    return Schedule(n, starts, src, dst, mult, share_starts, share_idx, after)


def _span_gather(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(first[i], first[i] + counts[i])`` vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(first - shift, counts)


def expand_batch_from_schedule(
    sched: Schedule,
    members: np.ndarray,
    local: np.ndarray,
    nbytes: np.ndarray,
    calls: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]]:
    """Expand records columnarly; returns ``(src, dst, bytes, calls, after)``.

    ``local`` is each record's caller-local rank; ranks in the output are
    global (mapped through ``members``).  At most two batches come back —
    the rows with ``after=False`` and the rows with ``after=True``.
    """
    counts = sched.starts[local + 1] - sched.starts[local]
    rows = _span_gather(sched.starts[local], counts)
    if not len(rows):
        return []
    rec = np.repeat(np.arange(len(local), dtype=np.int64), counts)
    bpm = nbytes[rec] * sched.mult[rows]
    if sched.share_idx.size:
        scounts = sched.share_starts[rows + 1] - sched.share_starts[rows]
        if scounts.any():
            shares = even_split_rows(nbytes, sched.n)
            sidx = _span_gather(sched.share_starts[rows], scounts)
            vals = shares[np.repeat(rec, scounts), sched.share_idx[sidx]]
            extra = np.zeros(len(rows), dtype=np.int64)
            np.add.at(extra, np.repeat(np.arange(len(rows)), scounts), vals)
            bpm = bpm + extra
    src = members[sched.src[rows]]
    dst = members[sched.dst[rows]]
    out_calls = calls[rec]
    batches = []
    for flag in (False, True):
        sel = sched.after[rows] == flag
        if sel.any():
            batches.append((src[sel], dst[sel], bpm[sel], out_calls[sel], flag))
    return batches


# ---------------------------------------------------------------------------
# binomial-tree schedules


def _binomial_children(vrank: int, n: int) -> list[int]:
    """Children of a node in the binomial broadcast tree over n vranks.

    The MPICH orientation: node v owns the contiguous vrank span
    ``[v, v + lowbit(v))`` and forwards to ``v + 2**j`` for every
    ``2**j < lowbit(v)`` (the root owns everything).  This is the
    orientation :func:`_subtree_size` counts, so subtree-proportional
    scatter/gather sizes conserve exactly.
    """
    children = []
    k = 1
    limit = vrank & (-vrank) if vrank else n
    while k < limit and vrank + k < n:
        children.append(vrank + k)
        k <<= 1
    return children


def _binomial_parent(vrank: int) -> int:
    """Parent in the binomial tree: clear the lowest set bit."""
    if vrank == 0:
        raise ValueError("the root has no parent")
    return vrank & (vrank - 1)


def _subtree_size(vrank: int, n: int) -> int:
    """Size of the binomial subtree rooted at ``vrank`` (unclipped)."""
    if vrank == 0:
        return n
    return vrank & (-vrank)  # lowest set bit = subtree span


@functools.lru_cache(maxsize=256)
def _rd_holdings(n: int) -> tuple[np.ndarray, ...]:
    """Per-round contribution counts of recursive-doubling allgather.

    ``_rd_holdings(n)[r][v]`` is how many rank contributions vrank
    ``v < pow2`` holds entering exchange round ``r`` (after any remainder
    fold-in).  Every rank ends holding all ``n`` contributions, which is
    what makes the exchange sizes conserve the gathered total.
    """
    pow2 = 1 << (n.bit_length() - 1)
    h = np.ones(pow2, dtype=np.int64)
    h[: n - pow2] += 1
    rounds = []
    k = 1
    while k < pow2:
        rounds.append(h.copy())
        h = h + h[np.arange(pow2) ^ k]
        k <<= 1
    return tuple(rounds)


@functools.lru_cache(maxsize=512)
def binomial_fanout(op: CollectiveOp, n: int, root: int) -> Schedule:
    """BCAST/SCATTER/SCATTERV down the binomial tree (root forwards first)."""
    assert op in _FANOUT_OPS
    rows = []
    for v in range(n):
        for c in _binomial_children(v, n):
            after = v != 0
            span = range(c, min(c + _subtree_size(c, n), n))
            if op is CollectiveOp.BCAST:
                rows.append((v, v, c, 1, (), after))
            elif op is CollectiveOp.SCATTER:
                rows.append((v, v, c, len(span), (), after))
            else:
                rows.append((v, v, c, 0, tuple(span), after))
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def binomial_fanin(op: CollectiveOp, n: int, root: int) -> Schedule:
    """REDUCE/GATHER up the binomial tree (each node one send to its parent)."""
    assert op in _FANIN_OPS
    rows = []
    for v in range(1, n):
        mult = 1 if op is CollectiveOp.REDUCE else min(_subtree_size(v, n), n - v)
        rows.append((v, v, _binomial_parent(v), mult, (), True))
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def binomial_gatherv_paths(n: int, root: int) -> Schedule:
    """GATHERV: each contribution rides every edge of its root path."""
    rows = []
    for v in range(1, n):
        u = v
        while u != 0:
            parent = _binomial_parent(u)
            rows.append((v, u, parent, 1, (), u != v))
            u = parent
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def rd_allreduce(n: int) -> Schedule:
    """Recursive-doubling allreduce: fold, log2 pairwise exchanges, unfold."""
    pow2 = 1 << (n.bit_length() - 1)
    rows = []
    for v in range(pow2, n):
        rows.append((v, v, v - pow2, 1, (), False))
    k = 1
    while k < pow2:
        for v in range(pow2):
            rows.append((v, v, v ^ k, 1, (), False))
        k <<= 1
    for v in range(n - pow2):
        rows.append((v, v, v + pow2, 1, (), True))
    return _make(n, 0, rows)


@functools.lru_cache(maxsize=512)
def rd_allgather(n: int) -> Schedule:
    """Recursive doubling with holdings-tracked payload doubling."""
    pow2 = 1 << (n.bit_length() - 1)
    rows = []
    for v in range(pow2, n):
        rows.append((v, v, v - pow2, 1, (), False))
    holdings = _rd_holdings(n)
    k = 1
    rnd = 0
    while k < pow2:
        for v in range(pow2):
            rows.append((v, v, v ^ k, int(holdings[rnd][v]), (), False))
        k <<= 1
        rnd += 1
    for v in range(n - pow2):
        rows.append((v, v, v + pow2, n, (), True))
    return _make(n, 0, rows)


# ---------------------------------------------------------------------------
# ring / pipeline-chain schedules


@functools.lru_cache(maxsize=512)
def ring_fanout(op: CollectiveOp, n: int, root: int) -> Schedule:
    """BCAST/SCATTER/SCATTERV down the vrank chain root → root+1 → ..."""
    assert op in _FANOUT_OPS
    rows = []
    for v in range(n - 1):
        after = v != 0
        if op is CollectiveOp.BCAST:
            rows.append((v, v, v + 1, 1, (), after))
        elif op is CollectiveOp.SCATTER:
            rows.append((v, v, v + 1, n - 1 - v, (), after))
        else:
            rows.append((v, v, v + 1, 0, tuple(range(v + 1, n)), after))
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def ring_fanin(op: CollectiveOp, n: int, root: int) -> Schedule:
    """REDUCE/GATHER up the chain; the far end initiates."""
    assert op in _FANIN_OPS
    rows = []
    for v in range(1, n):
        mult = 1 if op is CollectiveOp.REDUCE else n - v
        rows.append((v, v, v - 1, mult, (), v != n - 1))
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def ring_gatherv_paths(n: int, root: int) -> Schedule:
    """GATHERV: each contribution hops the chain down to the root."""
    rows = []
    for v in range(1, n):
        for u in range(v, 0, -1):
            rows.append((v, u, u - 1, 1, (), u != v))
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def ring_allreduce(n: int) -> Schedule:
    """Ring allreduce: reduce-scatter then allgather, 2(n-1) chunk steps.

    Chunk ``c`` is rank ``c``'s even-split share; every step each rank
    forwards exactly one chunk to its successor, so per-rank traffic is
    balanced and no link ever carries the full vector.
    """
    rows = []
    for v in range(n):
        for s in range(n - 1):  # reduce-scatter phase
            rows.append((v, v, (v + 1) % n, 0, ((v - s) % n,), False))
        for s in range(n - 1):  # allgather phase
            rows.append((v, v, (v + 1) % n, 0, ((v + 1 - s) % n,), False))
    return _make(n, 0, rows)


@functools.lru_cache(maxsize=512)
def ring_allgather_paths(n: int) -> Schedule:
    """ALLGATHER(V): each contribution circulates n-1 hops around the ring."""
    rows = []
    for v in range(n):
        for s in range(n - 1):
            u = (v + s) % n
            rows.append((v, u, (u + 1) % n, 1, (), False))
    return _make(n, 0, rows)


# ---------------------------------------------------------------------------
# Bine-tree schedules (De Sensi et al., PAPERS.md)
#
# The Bine ("binomial negabinary") tree pairs rank v at step s with
# ``v + (-1)^v * d_s  (mod 2^h)`` where ``d_s = (1 - (-2)^(s+1)) / 3`` —
# the distances 1, -1, 3, -5, 11, -21, ... alternate direction by rank
# parity, which on torus networks halves the worst-case link distance of
# the binomial tree.  Each step is a perfect matching (d_s is odd, so the
# partner map is an involution); running steps s = h-1 .. 0 from the root
# doubles the informed set every step and spans all 2^h ranks (asserted at
# construction).  Non-power-of-two sizes use the standard fold/extension
# pre/post step of recursive doubling.


def _bine_delta(s: int) -> int:
    return (1 - (-2) ** (s + 1)) // 3


def _bine_partner(v: int, s: int, size: int) -> int:
    sign = 1 if v % 2 == 0 else -1
    return (v + sign * _bine_delta(s)) % size


@functools.lru_cache(maxsize=256)
def _bine_tree(pow2: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Children lists and parents of the Bine broadcast tree rooted at 0."""
    children: list[list[int]] = [[] for _ in range(pow2)]
    parent = [0] * pow2
    informed = [0]
    h = pow2.bit_length() - 1
    for s in range(h - 1, -1, -1):
        new = []
        for u in informed:
            p = _bine_partner(u, s, pow2)
            children[u].append(p)
            parent[p] = u
            new.append(p)
        informed += new
    assert len(set(informed)) == pow2, "bine tree failed to span"
    return tuple(tuple(c) for c in children), tuple(parent)


@functools.lru_cache(maxsize=256)
def _bine_subtree(pow2: int) -> tuple[tuple[int, ...], ...]:
    """Each vrank's Bine subtree members (itself included)."""
    children, _ = _bine_tree(pow2)
    sub: list[tuple[int, ...] | None] = [None] * pow2

    def build(v: int) -> tuple[int, ...]:
        if sub[v] is None:
            acc = [v]
            for c in children[v]:
                acc.extend(build(c))
            sub[v] = tuple(acc)
        return sub[v]

    build(0)
    return tuple(sub)


def _bine_delivery(v: int, n: int, pow2: int) -> tuple[int, ...]:
    """Ranks ultimately served through vrank v's subtree, extension included."""
    out = []
    for w in _bine_subtree(pow2)[v]:
        out.append(w)
        if w + pow2 < n:
            out.append(w + pow2)
    return tuple(out)


@functools.lru_cache(maxsize=256)
def _bine_holdings(n: int) -> tuple[np.ndarray, ...]:
    """Per-round holdings of the Bine allgather (mirrors ``_rd_holdings``)."""
    pow2 = 1 << (n.bit_length() - 1)
    h = np.ones(pow2, dtype=np.int64)
    h[: n - pow2] += 1
    rounds = []
    hh = pow2.bit_length() - 1
    for s in range(hh - 1, -1, -1):
        rounds.append(h.copy())
        perm = np.array(
            [_bine_partner(v, s, pow2) for v in range(pow2)], dtype=np.int64
        )
        h = h + h[perm]
    rounds.append(h.copy())  # final holdings, for the extension return
    return tuple(rounds)


@functools.lru_cache(maxsize=512)
def bine_fanout(op: CollectiveOp, n: int, root: int) -> Schedule:
    """BCAST/SCATTER/SCATTERV down the Bine tree plus extension step."""
    assert op in _FANOUT_OPS
    pow2 = 1 << (n.bit_length() - 1)
    children, _ = _bine_tree(pow2)
    rows = []
    for v in range(pow2):
        for c in children[v]:
            after = v != 0
            delivery = _bine_delivery(c, n, pow2)
            if op is CollectiveOp.BCAST:
                rows.append((v, v, c, 1, (), after))
            elif op is CollectiveOp.SCATTER:
                rows.append((v, v, c, len(delivery), (), after))
            else:
                rows.append((v, v, c, 0, delivery, after))
    for v in range(n - pow2):
        if op is CollectiveOp.SCATTERV:
            rows.append((v, v, v + pow2, 0, (v + pow2,), v != 0))
        else:
            rows.append((v, v, v + pow2, 1, (), v != 0))
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def bine_fanin(op: CollectiveOp, n: int, root: int) -> Schedule:
    """REDUCE/GATHER: remainder folds in, then the Bine tree reversed."""
    assert op in _FANIN_OPS
    pow2 = 1 << (n.bit_length() - 1)
    children, _ = _bine_tree(pow2)
    rows = []
    for v in range(pow2, n):
        rows.append((v, v, v - pow2, 1, (), False))
    for v in range(pow2):
        for c in children[v]:
            mult = 1 if op is CollectiveOp.REDUCE else len(_bine_delivery(c, n, pow2))
            rows.append((c, c, v, mult, (), True))
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def bine_gatherv_paths(n: int, root: int) -> Schedule:
    """GATHERV: fold the remainder, then ride the Bine root path."""
    pow2 = 1 << (n.bit_length() - 1)
    _, parent = _bine_tree(pow2)
    rows = []
    for v in range(1, n):
        if v >= pow2:
            rows.append((v, v, v - pow2, 1, (), False))
            u = v - pow2
        else:
            u = v
        while u != 0:
            p = parent[u]
            rows.append((v, u, p, 1, (), u != v))
            u = p
    return _make(n, root, rows)


@functools.lru_cache(maxsize=512)
def bine_allreduce(n: int) -> Schedule:
    """Allreduce over Bine pairwise exchanges (fold/exchange/unfold)."""
    pow2 = 1 << (n.bit_length() - 1)
    rows = []
    for v in range(pow2, n):
        rows.append((v, v, v - pow2, 1, (), False))
    h = pow2.bit_length() - 1
    for s in range(h - 1, -1, -1):
        for v in range(pow2):
            rows.append((v, v, _bine_partner(v, s, pow2), 1, (), False))
    for v in range(n - pow2):
        rows.append((v, v, v + pow2, 1, (), True))
    return _make(n, 0, rows)


@functools.lru_cache(maxsize=512)
def bine_allgather(n: int) -> Schedule:
    """Allgather over Bine exchanges with holdings-tracked payloads."""
    pow2 = 1 << (n.bit_length() - 1)
    rows = []
    for v in range(pow2, n):
        rows.append((v, v, v - pow2, 1, (), False))
    holdings = _bine_holdings(n)
    h = pow2.bit_length() - 1
    for rnd, s in enumerate(range(h - 1, -1, -1)):
        for v in range(pow2):
            rows.append(
                (v, v, _bine_partner(v, s, pow2), int(holdings[rnd][v]), (), False)
            )
    final = holdings[-1]
    for v in range(n - pow2):
        rows.append((v, v, v + pow2, int(final[v]), (), True))
    return _make(n, 0, rows)
