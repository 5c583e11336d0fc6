"""Flat point-to-point expansion patterns for MPI collectives.

The paper's network model (§4.4) deliberately avoids vendor-specific
collective algorithms: every collective is translated to plain point-to-point
messages "sent in the pattern of the particular operation", with **no tree
structure**, and data in vector collectives split evenly across ranks.  This
maximally utilizes the network and gives a stable, technology-independent
estimate.

The expansion answers one question per record: *which messages does a
single caller's collective record inject?*  Every participating rank logs the
collective, so translating only the caller's own sends — never the messages
other ranks will send — keeps the union over all callers free of double
counting.

Conventions for ``count`` (elements contributed by the caller; see
:class:`~repro.core.events.CollectiveEvent`):

========================  ====================================================
operation                 meaning of ``count``
========================  ====================================================
Bcast                     elements broadcast (same at every rank)
Reduce / Allreduce        elements of the reduced vector
Gather / Allgather        elements this caller contributes
Scatter                   elements sent *per destination* (MPI signature)
Alltoall                  elements sent *per destination* (MPI signature)
Gatherv / Allgatherv      this caller's (even-split) contribution
Scatterv                  total elements at root, split evenly
Alltoallv                 total elements sent by caller, split evenly
Reduce_scatter            elements of the full input vector
Scan / Exscan             elements of the partial-result vector
Barrier                   0 (no payload, no messages)
========================  ====================================================
"""

from __future__ import annotations

import numpy as np

from ..core.communicator import Communicator
from ..core.events import CollectiveOp

__all__ = [
    "check_root",
    "expand_collective_batch",
    "even_split",
    "even_split_rows",
]

#: Collectives whose expansion consults ``root`` (mirrors ROOTED_OPS, kept
#: local so the hot batch path needs no set lookup import).
_ROOTED = (
    CollectiveOp.BCAST,
    CollectiveOp.REDUCE,
    CollectiveOp.GATHER,
    CollectiveOp.GATHERV,
    CollectiveOp.SCATTER,
    CollectiveOp.SCATTERV,
)


def check_root(op: CollectiveOp, comm: Communicator, root: int) -> None:
    """Reject a communicator-local ``root`` outside ``[0, comm.size)``.

    A global rank ID passed where the local-rank convention is expected used
    to make BCAST/SCATTER silently expand to zero messages (every caller
    tested ``local != root`` and dropped out); failing loudly at expansion
    time names the record that carried the bad root.
    """
    if op in _ROOTED and not 0 <= root < comm.size:
        raise ValueError(
            f"collective root {root} out of range for {op.value} on "
            f"communicator {comm.name!r} of size {comm.size} "
            "(roots are communicator-local ranks)"
        )


def even_split(total: int, parts: int) -> np.ndarray:
    """Split ``total`` into ``parts`` integers that sum exactly to ``total``.

    The first ``total % parts`` shares get one extra unit, so the split is as
    even as integer arithmetic allows and conserves the total exactly — an
    invariant the property tests rely on.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < 0:
        raise ValueError("total must be >= 0")
    base, rem = divmod(total, parts)
    shares = np.full(parts, base, dtype=np.int64)
    shares[:rem] += 1
    return shares


def even_split_rows(totals: np.ndarray, parts: int) -> np.ndarray:
    """Row-wise :func:`even_split`: one split per entry of ``totals``.

    Returns an ``int64[len(totals), parts]`` matrix whose row ``i`` is
    ``even_split(totals[i], parts)``.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    totals = np.asarray(totals, dtype=np.int64)
    if len(totals) and totals.min() < 0:
        raise ValueError("total must be >= 0")
    base = totals // parts
    rem = totals % parts
    return base[:, None] + (np.arange(parts, dtype=np.int64)[None, :] < rem[:, None])


def _fanout(
    callers: np.ndarray,
    members: np.ndarray,
    bytes_per_dst: np.ndarray,
    calls: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fan every caller out to all members.

    ``bytes_per_dst`` is either 1-D (uniform bytes per caller, replicated to
    every destination) or 2-D ``[len(callers), len(members)]`` (per-row
    even splits).
    """
    n = len(members)
    src = np.repeat(callers, n)
    dst = np.tile(members, len(callers))
    if bytes_per_dst.ndim == 1:
        nbytes = np.repeat(bytes_per_dst, n)
    else:
        nbytes = bytes_per_dst.reshape(-1)
    return src, dst, nbytes, np.repeat(calls, n)


def expand_collective_batch(
    op: CollectiveOp,
    comm: Communicator,
    callers: np.ndarray,
    nbytes: np.ndarray,
    roots: np.ndarray,
    calls: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The flat expansion of many records of one op on one communicator.

    The arrays are parallel, one entry per caller record: ``callers`` are
    global ranks, ``roots`` are communicator-local root ranks, ``nbytes``
    is each record's ``count * element_size``, and ``calls`` its repeat
    count.

    Returns a list of ``(src, dst, bytes_per_msg, calls)`` message-array
    quadruples.  The multiset of messages equals the union of the
    per-record expansions in ``tests/oracles/collectives.py`` exactly (the
    equivalence suite pins this); only the grouping differs.
    """
    n = comm.size
    if len(callers) and op in _ROOTED:
        rmin, rmax = int(roots.min()), int(roots.max())
        if rmin < 0 or rmax >= n:
            check_root(op, comm, rmin if rmin < 0 else rmax)
    if n == 1 or op is CollectiveOp.BARRIER or len(callers) == 0:
        return []
    members = np.asarray(comm.members, dtype=np.int64)
    # comm-local rank per caller (vectorized comm.to_local)
    mmax = int(members.max())
    lookup = np.full(mmax + 1, -1, dtype=np.int64)
    lookup[members] = np.arange(n, dtype=np.int64)
    in_range = (callers >= 0) & (callers <= mmax)
    local = np.where(in_range, lookup[np.clip(callers, 0, mmax)], -1)
    if local.min() < 0:
        bad = int(callers[local < 0][0])
        raise ValueError(f"rank {bad} is not a member of this communicator")

    if op is CollectiveOp.BCAST:
        sel = local == roots
        if not sel.any():
            return []
        return [_fanout(callers[sel], members, nbytes[sel], calls[sel])]

    if op in (CollectiveOp.REDUCE, CollectiveOp.GATHER, CollectiveOp.GATHERV):
        # ALL ranks send to the root, the root included.
        return [(callers, members[roots], nbytes, calls)]

    if op is CollectiveOp.ALLREDUCE:
        # Flat reduce-to-root plus broadcast-from-root, rooted at local 0.
        out = [
            (
                callers,
                np.full(len(callers), members[0], dtype=np.int64),
                nbytes,
                calls,
            )
        ]
        sel = local == 0
        if sel.any():
            out.append(_fanout(callers[sel], members, nbytes[sel], calls[sel]))
        return out

    if op in (CollectiveOp.SCATTER, CollectiveOp.SCATTERV):
        sel = local == roots
        if not sel.any():
            return []
        if op is CollectiveOp.SCATTER:
            return [_fanout(callers[sel], members, nbytes[sel], calls[sel])]
        shares = even_split_rows(nbytes[sel], n)
        return [_fanout(callers[sel], members, shares, calls[sel])]

    if op in (CollectiveOp.ALLGATHER, CollectiveOp.ALLGATHERV, CollectiveOp.ALLTOALL):
        return [_fanout(callers, members, nbytes, calls)]

    if op in (CollectiveOp.ALLTOALLV, CollectiveOp.REDUCE_SCATTER):
        shares = even_split_rows(nbytes, n)
        return [_fanout(callers, members, shares, calls)]

    if op in (CollectiveOp.SCAN, CollectiveOp.EXSCAN):
        sel = local != n - 1
        if not sel.any():
            return []
        return [(callers[sel], members[local[sel] + 1], nbytes[sel], calls[sel])]

    raise NotImplementedError(f"no p2p expansion defined for {op}")
