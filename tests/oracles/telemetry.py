"""Telemetry oracles.

Congestion regions: :mod:`repro.telemetry.congestion` as it was written
before the NumPy labelling kernel — hot ``(link, window)`` cells keyed in
a dict, one Python ``union`` per spatial (shared endpoint, same window)
and temporal (same link, consecutive windows) edge, regions grouped in
first-member order and then stably sorted by ``(onset, -link_windows)``.
The summary is aggregated from the region objects.

Collector: :class:`BufferedCollector` is the windowed collector as it was
before it binned queue depths while recording — every service buffered
as an ``int64`` link, a ``float64`` begin and a ``float64`` wait, all
reduced at :meth:`~BufferedCollector.finalize`.  The shipped
:class:`repro.telemetry.WindowedCollector` must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.routing.validate import link_endpoints
from repro.telemetry.collector import TelemetryCollector, TelemetryConfig, TelemetryReport
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


class BufferedCollector(TelemetryCollector):
    """Buffers every raw ``(link, begin, wait)`` service as ``int64`` /
    ``float64`` and reduces them all at :meth:`finalize`."""

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self._links = np.empty(0, dtype=np.int64)
        self._begins = np.empty(0, dtype=np.float64)
        self._waits = np.empty(0, dtype=np.float64)
        self._len = 0

    def start(self, setup) -> None:
        self._grow(self._len + setup.total_hops)

    def _grow(self, capacity: int) -> None:
        if capacity <= len(self._links):
            return
        capacity = max(capacity, 2 * len(self._links))
        for name in ("_links", "_begins", "_waits"):
            old = getattr(self, name)
            buf = np.empty(capacity, dtype=old.dtype)
            buf[: self._len] = old[: self._len]
            setattr(self, name, buf)

    def record_services(
        self, links: np.ndarray, begins: np.ndarray, waits: np.ndarray
    ) -> None:
        end = self._len + len(links)
        self._grow(end)
        self._links[self._len : end] = links
        self._begins[self._len : end] = begins
        self._waits[self._len : end] = waits
        self._len = end

    def _gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The recorded services, in emission order.

        Both engines emit each link's services in strictly increasing begin
        order, so restricting the buffer to one link already yields the
        canonical (link, begin) order — a stable sort by link alone
        recovers it wherever a float reduction needs it.
        """
        n = self._len
        return self._links[:n], self._begins[:n], self._waits[:n]

    def finalize(self, setup, result, delivered_at) -> TelemetryReport:
        cfg = self.config
        span = float(result.makespan)
        num_windows = cfg.windows
        dt = span / num_windows if span > 0 else 0.0
        links, begins, waits = self._gather()
        num_links = setup.num_links
        service = float(setup.service)

        inv_dt = 1.0 / dt if dt > 0 else 0.0

        def window_of(times: np.ndarray) -> np.ndarray:
            if dt <= 0:
                return np.zeros(len(times), dtype=np.int64)
            return np.minimum((times * inv_dt).astype(np.int64), num_windows - 1)

        # Serve counts: integer bincount over (link, window) cells.
        win = window_of(begins)
        cells = links * num_windows
        cells += win
        serve_flat = np.bincount(cells, minlength=num_links * num_windows)
        serve_series = serve_flat.reshape(num_links, num_windows)

        # Occupancy: each service holds its link for exactly ``service``
        # seconds.  Attribute all of it to the begin window (an exact
        # count x service product), then move the post-boundary share of
        # the few boundary-straddling services into the windows it falls
        # in.  Only those corrections are float sums; they run over the
        # canonical (link, begin) order — recovered by a stable sort on
        # link alone, per :meth:`_gather` — so the result is
        # engine-independent.
        occupancy = serve_flat * service
        if dt > 0 and len(links):
            # Spill candidates in one subtraction against a scalar: a
            # service ends past its begin window's upper edge iff
            # begins - win*dt > dt - service.  The few matches are then
            # re-filtered with the exact boundary predicate, so ULP
            # disagreement between the two forms can only drop
            # corrections of rounding-error magnitude.
            frac = win * dt
            np.subtract(begins, frac, out=frac)
            spill = np.nonzero(frac >= dt - service)[0]
            spill = spill[win[spill] < num_windows - 1]
            boundary = (win[spill] + 1) * dt
            d_sp = begins[spill] + service
            keep = d_sp > boundary
            spill, boundary, d_sp = spill[keep], boundary[keep], d_sp[keep]
            if spill.size:
                order = np.argsort(links[spill], kind="stable")
                spill = spill[order]
                boundary = boundary[order]
                d_sp = d_sp[order]
                l_sp = links[spill]
                occupancy -= np.bincount(
                    l_sp * num_windows + win[spill],
                    weights=d_sp - boundary,
                    minlength=num_links * num_windows,
                )
                w = win[spill] + 1
                active = np.arange(len(spill))
                while active.size:
                    wa = w[active]
                    hi = np.minimum(d_sp[active], (wa + 1) * dt)
                    # The last window absorbs any rounding tail past W*dt.
                    last = wa == num_windows - 1
                    hi[last] = d_sp[active][last]
                    occupancy += np.bincount(
                        l_sp[active] * num_windows + wa,
                        weights=hi - wa * dt,
                        minlength=num_links * num_windows,
                    )
                    w[active] += 1
                    active = active[
                        (w[active] < num_windows)
                        & (d_sp[active] > w[active] * dt)
                    ]
        occupancy = occupancy.reshape(num_links, num_windows)

        # Per-node counters and per-window packet flow.  Injection data come
        # from the shared SimSetup and delivery times are bit-identical
        # between engines, so integer binning needs no canonicalization.
        num_nodes = (
            int(max(setup.pair_src.max(), setup.pair_dst.max())) + 1
            if len(setup.pair_src)
            else 0
        )
        injections = np.bincount(
            setup.pair_src[setup.inject_pair], minlength=num_nodes
        )
        ejections = np.bincount(
            setup.pair_dst[setup.inject_pair], minlength=num_nodes
        )
        injected_series = np.bincount(
            window_of(setup.inject_time), minlength=num_windows
        )
        delivered_series = np.bincount(
            window_of(np.asarray(delivered_at, dtype=np.float64)),
            minlength=num_windows,
        )

        # Queue-depth and stall-time histograms share one integer
        # reduction: a hop that waited ``wait`` had q = ceil(wait /
        # service) packets ahead of it, and its stall octave is the k
        # with q in (2^(k-2), 2^(k-1)] — so a single capped bincount of
        # q yields both, instead of a per-hop float searchsorted.
        stall_edges = service * np.exp2(np.arange(cfg.stall_octaves))
        num_depth = cfg.queue_depth_bins
        num_oct = cfg.stall_octaves
        if service > 0 and len(waits):
            # Most hops never queue; run the quanta arithmetic over the
            # nonzero waits only and credit the rest to q = 0 directly.
            nz = np.nonzero(waits)[0]
            q = waits[nz] * (1.0 / service)
            np.ceil(q, out=q)
            q = q.astype(np.int64)
            cap = max(1 << (num_oct - 1), num_depth - 1) + 1
            np.minimum(q, cap, out=q)
            cnt = np.bincount(q, minlength=cap + 1)
            cnt[0] += len(waits) - len(nz)
            queue_depth_hist = np.concatenate(
                [cnt[: num_depth - 1], [cnt[num_depth - 1 :].sum()]]
            )
            # Octave bin starts over q: 0 | 1 | 2 | 2^(k-2)+1 ... | cap.
            starts = np.concatenate(
                [[0, 1, 2], (1 << np.arange(1, num_oct, dtype=np.int64)) + 1]
            )
            stall_hist = np.add.reduceat(cnt, starts)
        else:
            queue_depth_hist = np.zeros(num_depth, dtype=np.int64)
            queue_depth_hist[0] = len(waits)
            stall_bin = np.searchsorted(
                np.concatenate([[0.0], stall_edges]), waits, side="left"
            )
            stall_hist = np.bincount(stall_bin, minlength=num_oct + 2)

        i64 = np.int64
        return TelemetryReport(
            span=span,
            window_dt=dt,
            service=service,
            link_ids=np.asarray(setup.link_ids, dtype=i64),
            serve_series=serve_series.astype(i64, copy=False),
            occupancy=occupancy,
            injections=injections.astype(i64, copy=False),
            ejections=ejections.astype(i64, copy=False),
            injected_series=injected_series.astype(i64, copy=False),
            delivered_series=delivered_series.astype(i64, copy=False),
            queue_depth_hist=queue_depth_hist.astype(i64, copy=False),
            stall_hist=stall_hist.astype(i64, copy=False),
            stall_edges=stall_edges,
        )
