"""Table-3 metric oracles: per-rank selectivity loops and the always-sort
node-pair aggregate.

These are :mod:`repro.metrics.selectivity` and
``repro.model.engine._node_pair_aggregate`` as they were written before the
segmented NumPy pass and the sorted-key shortcut: one sort, cumsum and
``searchsorted`` per sending rank, a curve accumulated one rank at a time,
and an argsort-and-``reduceat`` over every matrix.
"""

from __future__ import annotations

import numpy as np

from repro.comm.matrix import CommMatrix
from repro.mapping.base import Mapping


def _sorted_partner_bytes(matrix: CommMatrix) -> dict[int, np.ndarray]:
    """Per source rank: partner byte volumes sorted descending (self excluded)."""
    mask = matrix.src != matrix.dst
    src = matrix.src[mask]
    nbytes = matrix.nbytes[mask]
    out: dict[int, np.ndarray] = {}
    if src.size == 0:
        return out
    order = np.argsort(src, kind="stable")
    src = src[order]
    nbytes = nbytes[order]
    boundaries = np.flatnonzero(np.diff(src)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(src)]))
    for s, e in zip(starts, ends):
        vols = np.sort(nbytes[s:e])[::-1]
        out[int(src[s])] = vols
    return out


def _partners_to_cover(volumes_desc: np.ndarray, share: float) -> int:
    """Smallest k such that the top-k volumes reach ``share`` of the total."""
    total = volumes_desc.sum()
    if total == 0:
        return 0
    cum = np.cumsum(volumes_desc)
    return int(np.searchsorted(cum, share * total - 1e-9) + 1)


def per_rank_selectivity_reference(matrix: CommMatrix, share: float = 0.9) -> dict[int, int]:
    if not 0 < share <= 1:
        raise ValueError(f"share must be in (0, 1], got {share}")
    return {
        rank: _partners_to_cover(vols, share)
        for rank, vols in _sorted_partner_bytes(matrix).items()
        if vols.sum() > 0
    }


def selectivity_reference(matrix: CommMatrix, share: float = 0.9) -> float:
    per_rank = per_rank_selectivity_reference(matrix, share)
    if not per_rank:
        return float("nan")
    return float(np.mean(list(per_rank.values())))


def mean_selectivity_curve_reference(
    matrix: CommMatrix, max_partners: int | None = None
) -> np.ndarray:
    per_rank = _sorted_partner_bytes(matrix)
    curves = []
    longest = 0
    for vols in per_rank.values():
        total = vols.sum()
        if total == 0:
            continue
        curves.append(np.cumsum(vols) / total)
        longest = max(longest, len(vols))
    if not curves:
        return np.zeros(0, dtype=np.float64)
    if max_partners is not None:
        longest = min(longest, max_partners)
    acc = np.zeros(longest, dtype=np.float64)
    for curve in curves:
        if len(curve) >= longest:
            acc += curve[:longest]
        else:
            acc[: len(curve)] += curve
            acc[len(curve) :] += 1.0
    return acc / len(curves)


def node_pair_aggregate_reference(
    matrix: CommMatrix, mapping: Mapping
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    src_nodes = mapping.node_of(matrix.src)
    dst_nodes = mapping.node_of(matrix.dst)
    key = src_nodes * np.int64(mapping.num_nodes) + dst_nodes
    if not len(key):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    run_start = np.empty(len(sorted_key), dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    unique_keys = sorted_key[starts]
    nbytes = np.add.reduceat(matrix.nbytes[order], starts, dtype=np.int64)
    packets = np.add.reduceat(matrix.packets[order], starts, dtype=np.int64)
    return (
        unique_keys // mapping.num_nodes,
        unique_keys % mapping.num_nodes,
        nbytes,
        packets,
    )
