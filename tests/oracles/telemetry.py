"""Congestion-region oracle: a union-find over dicts of hot cells.

This is :mod:`repro.telemetry.congestion` as it was written before the
NumPy labelling kernel: hot ``(link, window)`` cells keyed in a dict, one
Python ``union`` per spatial (shared endpoint, same window) and temporal
(same link, consecutive windows) edge, regions grouped in first-member
order and then stably sorted by ``(onset, -link_windows)``.  The summary
is aggregated from the region objects.
"""

from __future__ import annotations

import numpy as np

from repro.routing.validate import link_endpoints
from repro.telemetry.congestion import CongestionRegion, CongestionSummary


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def find_congestion_regions_reference(
    report, topology, threshold: float = 0.7
) -> list[CongestionRegion]:
    """Hot cells grouped into regions, one union at a time."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    hot = report.hot_links(threshold)
    hot_link, hot_win = np.nonzero(hot)
    if not len(hot_link):
        return []

    u, v = link_endpoints(topology, report.link_ids)
    cells = {
        (int(l), int(w)): i for i, (l, w) in enumerate(zip(hot_link, hot_win))
    }
    uf = _UnionFind(len(hot_link))

    by_vertex: dict[tuple[int, int], int] = {}
    for i, (l, w) in enumerate(zip(hot_link, hot_win)):
        for vertex in (int(u[l]), int(v[l])):
            key = (int(w), vertex)
            first = by_vertex.setdefault(key, i)
            if first != i:
                uf.union(first, i)

    for i, (l, w) in enumerate(zip(hot_link, hot_win)):
        j = cells.get((int(l), int(w) - 1))
        if j is not None:
            uf.union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(len(hot_link)):
        groups.setdefault(uf.find(i), []).append(i)

    regions = []
    for members in groups.values():
        ls = hot_link[members]
        ws = hot_win[members]
        per_window = np.bincount(ws - ws.min())
        regions.append(
            CongestionRegion(
                onset_window=int(ws.min()),
                end_window=int(ws.max()),
                peak_links=int(per_window.max()),
                link_windows=len(members),
                links=np.unique(ls),
                window_dt=report.window_dt,
                cell_links=ls,
                cell_windows=ws,
            )
        )
    regions.sort(key=lambda r: (r.onset_window, -r.link_windows))
    return regions


def congestion_summary_reference(
    report, topology, threshold: float = 0.7
) -> CongestionSummary:
    """The summary aggregated from the reference regions."""
    regions = find_congestion_regions_reference(report, topology, threshold)
    hot = report.hot_links(threshold)
    hot_cells = int(hot.sum())
    hot_windows = int(hot.any(axis=0).sum())
    return CongestionSummary(
        threshold=threshold,
        num_regions=len(regions),
        peak_region_links=max((r.peak_links for r in regions), default=0),
        max_region_spread=max((r.spread for r in regions), default=0),
        longest_region_s=max((r.duration_s for r in regions), default=0.0),
        total_hot_seconds=hot_cells * report.window_dt,
        hot_windows=hot_windows,
        first_onset_window=(
            min((r.onset_window for r in regions), default=-1)
        ),
    )
