"""Congestion regions: hot-link grouping over topology adjacency.

Jha et al.'s supercomputer congestion study characterizes interconnect
congestion not link by link but as **congestion regions** — connected sets
of highly-utilized links that appear, grow, persist, and dissolve over
time.  This module reproduces that analysis on top of a
:class:`~repro.telemetry.collector.TelemetryReport`:

1. **Hot-link thresholding** — a (link, window) cell is *hot* when the
   link's busy fraction in that window reaches ``threshold``.
2. **Spatial grouping** — hot links of one window are grouped into regions
   by topology adjacency: two links are adjacent when they share an
   endpoint vertex (node, switch, or router), decoded from the opaque link
   IDs by :func:`repro.routing.validate.link_endpoints`.
3. **Temporal linking** — a region in window ``w`` continues a region of
   window ``w-1`` when they share a link; regions that merge are one
   region.  Each resulting :class:`CongestionRegion` carries its onset,
   duration, and spread (peak concurrent links).

Both public functions share one NumPy labelling pass over the hot cells.
Spatial edges (shared endpoint, same window) star the cells keyed under
one ``window * V + vertex`` onto one of them; temporal edges (same link,
consecutive windows) join neighbours in the link-major cell order.
Min-hooking plus pointer jumping then labels every cell with the smallest
cell index in its region, in O(log cells) rounds.  Numbering regions by
that label is the first-member order a sequential union-find groups by,
so region order and cell order are fixed by the cells alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..routing.validate import link_endpoints
from ..topology.base import Topology
from .collector import TelemetryReport

__all__ = [
    "CongestionRegion",
    "CongestionSummary",
    "find_congestion_regions",
    "congestion_summary",
]


@dataclass(frozen=True, eq=False)
class CongestionRegion:
    """One spatio-temporal congestion region.

    ``links`` holds the *compact* link indices (rows of the report's
    series) the region ever covered; map through ``report.link_ids`` for
    topology link IDs.
    """

    onset_window: int  # first window the region was hot
    end_window: int  # last window (inclusive)
    peak_links: int  # largest concurrent hot-link count
    link_windows: int  # total hot (link, window) cells
    links: np.ndarray  # int64: union of compact link indices
    window_dt: float
    #: The exact hot cells of this region, as parallel (compact link,
    #: window) arrays of length ``link_windows`` — the attribution layer
    #: (:mod:`repro.tenancy.attribution`) charges each cell's services to
    #: jobs by link-occupancy share.  ``None`` on regions built by hand.
    cell_links: np.ndarray | None = None
    cell_windows: np.ndarray | None = None

    @property
    def duration_windows(self) -> int:
        return self.end_window - self.onset_window + 1

    @property
    def duration_s(self) -> float:
        return self.duration_windows * self.window_dt

    @property
    def spread(self) -> int:
        """Distinct links the region ever covered."""
        return len(self.links)


@dataclass(frozen=True)
class CongestionSummary:
    """Aggregate congestion statistics of one run at one threshold."""

    threshold: float
    num_regions: int
    peak_region_links: int  # largest concurrent hot-link count of any region
    max_region_spread: int  # most distinct links any region covered
    longest_region_s: float  # longest region duration in seconds
    total_hot_seconds: float  # sum of hot (link, window) cells x window_dt
    hot_windows: int  # windows with at least one hot link
    first_onset_window: int  # -1 when nothing was hot

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "num_regions": self.num_regions,
            "peak_region_links": self.peak_region_links,
            "max_region_spread": self.max_region_spread,
            "longest_region_s": self.longest_region_s,
            "total_hot_seconds": self.total_hot_seconds,
            "hot_windows": self.hot_windows,
            "first_onset_window": self.first_onset_window,
        }


def _min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label each of ``n`` vertices with the smallest vertex of its component.

    Each round hooks every root onto the smallest root across its cross
    edges (``parent[x] <= x`` throughout, so no cycle forms), then jumps
    pointers until every vertex points at a root.  A root that neither
    hooks nor is hooked onto in one round sees a smaller neighbouring root
    in the next, so every tree merges within two rounds and the root count
    at least halves every two rounds: O(log n) rounds.
    """
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            return parent
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


class _Regions(NamedTuple):
    """Hot cells grouped into regions numbered by their smallest cell."""

    hot_link: np.ndarray  # compact link of every hot cell, link-major
    hot_win: np.ndarray  # window of every hot cell
    region: np.ndarray  # region of every hot cell
    onset: np.ndarray  # per region: first hot window
    end: np.ndarray  # per region: last hot window
    link_windows: np.ndarray  # per region: hot (link, window) cells
    peak: np.ndarray  # per region: largest concurrent hot-link count
    spread: np.ndarray  # per region: distinct links covered
    link_keys: np.ndarray  # sorted region * L + link, one per covered link


def _label_regions(
    report: TelemetryReport, topology: Topology, threshold: float
) -> _Regions:
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    hot_link, hot_win = np.nonzero(report.hot_links(threshold))
    n = len(hot_link)
    cell = labels = np.arange(n)
    if n:
        u, v = link_endpoints(topology, report.link_ids)
        # Spatial edges: each cell is keyed under (window, vertex) for both
        # of its endpoints, and each run of equal keys is starred onto one
        # of its cells (which one does not change the components).
        stride = int(max(u.max(), v.max())) + 1
        keys = np.concatenate(
            [hot_win * stride + u[hot_link], hot_win * stride + v[hot_link]]
        )
        order = np.argsort(keys)
        keys, members = keys[order], np.concatenate([cell, cell])[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        hub = np.repeat(members[starts], np.diff(np.r_[starts, 2 * n]))
        # Temporal edges: link-major order puts (l, w - 1) right before (l, w).
        step = np.flatnonzero(
            (hot_link[1:] == hot_link[:-1]) & (hot_win[1:] == hot_win[:-1] + 1)
        )
        labels = _min_labels(
            n, np.concatenate([members, step + 1]), np.concatenate([hub, step])
        )
    roots = np.flatnonzero(labels == cell)
    region = np.searchsorted(roots, labels)
    num, windows = len(roots), report.num_windows
    onset = np.full(num, windows, dtype=np.int64)
    np.minimum.at(onset, region, hot_win)
    end = np.zeros(num, dtype=np.int64)
    np.maximum.at(end, region, hot_win)
    window_keys, per_window = np.unique(
        region * windows + hot_win, return_counts=True
    )
    peak = np.zeros(num, dtype=np.int64)
    np.maximum.at(peak, window_keys // windows, per_window)
    link_keys = np.unique(region * report.num_links + hot_link)
    return _Regions(
        hot_link=hot_link,
        hot_win=hot_win,
        region=region,
        onset=onset,
        end=end,
        link_windows=np.bincount(region, minlength=num),
        peak=peak,
        spread=np.bincount(link_keys // report.num_links, minlength=num),
        link_keys=link_keys,
    )


def find_congestion_regions(
    report: TelemetryReport,
    topology: Topology,
    threshold: float = 0.7,
) -> list[CongestionRegion]:
    """Group hot (link, window) cells into spatio-temporal regions.

    Returned regions are sorted by onset window (ties: larger first, then
    the one whose first cell comes first in link-major order).
    ``topology`` must be the instance the simulation ran on — its link IDs
    decode the report's rows into endpoint vertices.
    """
    r = _label_regions(report, topology, threshold)
    if not len(r.onset):
        return []
    # Each region's cells, in ascending (link-major) order.
    by_region = np.argsort(r.region, kind="stable")
    bounds = np.cumsum(r.link_windows)[:-1]
    cell_links = np.split(r.hot_link[by_region], bounds)
    cell_windows = np.split(r.hot_win[by_region], bounds)
    links = np.split(r.link_keys % report.num_links, np.cumsum(r.spread)[:-1])
    return [
        CongestionRegion(
            onset_window=int(r.onset[i]),
            end_window=int(r.end[i]),
            peak_links=int(r.peak[i]),
            link_windows=int(r.link_windows[i]),
            links=links[i],
            window_dt=report.window_dt,
            cell_links=cell_links[i],
            cell_windows=cell_windows[i],
        )
        for i in np.lexsort((-r.link_windows, r.onset))
    ]


def congestion_summary(
    report: TelemetryReport,
    topology: Topology,
    threshold: float = 0.7,
) -> CongestionSummary:
    """Aggregate statistics of the regions, without building region objects."""
    r = _label_regions(report, topology, threshold)
    num = len(r.onset)
    return CongestionSummary(
        threshold=threshold,
        num_regions=num,
        peak_region_links=int(r.peak.max(initial=0)),
        max_region_spread=int(r.spread.max(initial=0)),
        longest_region_s=(
            int((r.end - r.onset + 1).max()) * report.window_dt if num else 0.0
        ),
        total_hot_seconds=len(r.hot_win) * report.window_dt,
        hot_windows=len(np.unique(r.hot_win)),
        first_onset_window=int(r.onset.min()) if num else -1,
    )
