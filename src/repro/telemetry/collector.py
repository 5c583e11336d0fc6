"""Telemetry collectors: windowed time series of one simulation run.

The dynamic simulators report end-of-run aggregates; the phenomena that
distinguish topologies and routing policies — transient hotspots, queue
buildup, congestion onset — are *temporal*.  A collector turns either sim
engine into an observable system without changing its semantics:

- the engine hands the collector every **service** it performs, as
  ``(link, begin, wait)`` triples (compact link index, service start time,
  queueing delay of that hop);
- :class:`WindowedCollector` keeps each service's link and begin and
  bins its wait by queue depth as it arrives;
  :meth:`~WindowedCollector.finalize` reduces them into a
  :class:`TelemetryReport`: per-link occupancy/serve-count series over
  ``windows`` equal time windows spanning the makespan, per-node
  injection/ejection counters, and queue-depth / stall-time histograms.

**Bit-identity between engines.**  The two engines emit services in
different global orders (the reference loop in event-pop order, the batched
kernel link-grouped per window), so the collector never float-reduces in
arrival order.  Integer reductions (serve counts, histograms, flow series)
are order-independent bincounts; the one float reduction — the occupancy
correction for services straddling a window boundary — runs over the
canonical ``(link, begin)`` order.  That order is a *total* order (per-link
begin times strictly increase: each service starts after the previous one
finished) and both engines emit each link's services already begin-sorted,
so a stable sort by link alone recovers it.  The report is therefore a pure
function of the run's service multiset, which both engines produce
identically, making telemetry bit-identical seed for seed
(``tests/test_telemetry.py``).

**Zero overhead when disabled.**  The engines guard every recording call
with ``collector is None or not collector.enabled``; the default is no
collector at all, and :class:`NullCollector` (``enabled = False``) costs
the same single attribute check (ratio gated by ``repro bench
telemetry``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = [
    "TelemetryConfig",
    "TelemetryCollector",
    "NullCollector",
    "WindowedCollector",
    "TelemetryReport",
    "reports_equal",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the windowed collector (all content-free for caching:
    telemetry config never enters a :mod:`repro.cache` key, because it does
    not influence routes, traces, or matrices — see ``tests/test_telemetry``).
    """

    windows: int = 48  # time windows spanning [0, makespan]
    queue_depth_bins: int = 32  # histogram bins for per-hop queue depth
    stall_octaves: int = 20  # stall-time histogram: powers of 2 x service

    def __post_init__(self) -> None:
        if self.windows <= 0:
            raise ValueError("windows must be positive")
        if self.queue_depth_bins <= 1:
            raise ValueError("queue_depth_bins must be at least 2")
        if self.stall_octaves <= 0:
            raise ValueError("stall_octaves must be positive")


@dataclass(frozen=True, eq=False)
class TelemetryReport:
    """Windowed observables of one instrumented run.

    Array shapes: ``L`` compact links (``link_ids`` maps to topology link
    IDs), ``W`` time windows of ``window_dt`` seconds covering
    ``[0, span)``, ``N`` topology nodes.  All counters are exact integers;
    ``occupancy`` holds busy *seconds* per (link, window).
    """

    span: float  # makespan the windows cover
    window_dt: float
    service: float  # seconds one service occupies a link
    link_ids: np.ndarray  # int64[L]: compact index -> topology link ID
    serve_series: np.ndarray  # int64[L, W]: services begun per window
    occupancy: np.ndarray  # float64[L, W]: busy seconds per window
    injections: np.ndarray  # int64[N]: packets injected per source node
    ejections: np.ndarray  # int64[N]: packets delivered per destination node
    injected_series: np.ndarray  # int64[W]: packets injected per window
    delivered_series: np.ndarray  # int64[W]: packets delivered per window
    queue_depth_hist: np.ndarray  # int64[D]: hops that saw depth d ahead
    stall_hist: np.ndarray  # int64[S]: per-hop waits per stall bin
    stall_edges: np.ndarray  # float64[S-1]: upper edges (x service) of bins

    @property
    def num_links(self) -> int:
        return len(self.link_ids)

    @property
    def num_windows(self) -> int:
        return self.serve_series.shape[1]

    def occupancy_fraction(self) -> np.ndarray:
        """Busy fraction per (link, window) in [0, 1]."""
        if self.window_dt <= 0:
            return np.zeros_like(self.occupancy)
        return self.occupancy / self.window_dt

    @property
    def peak_occupancy(self) -> float:
        """Largest per-window busy fraction over all links."""
        frac = self.occupancy_fraction()
        return float(frac.max()) if frac.size else 0.0

    def hot_links(self, threshold: float) -> np.ndarray:
        """Boolean[L, W]: link occupancy fraction at or above ``threshold``."""
        return self.occupancy_fraction() >= threshold


def reports_equal(a: TelemetryReport | None, b: TelemetryReport | None) -> bool:
    """Exact (bitwise) equality of two reports — the engine-equivalence test."""
    if a is None or b is None:
        return a is b
    if (a.span, a.window_dt, a.service) != (b.span, b.window_dt, b.service):
        return False
    arrays = (
        "link_ids",
        "serve_series",
        "occupancy",
        "injections",
        "ejections",
        "injected_series",
        "delivered_series",
        "queue_depth_hist",
        "stall_hist",
        "stall_edges",
    )
    return all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in arrays
    )


class TelemetryCollector:
    """Interface both sim engines feed (see module docstring).

    ``enabled`` is checked once per recording site; disabled collectors are
    never called further.  Engines call ``start`` once with the run's
    :class:`~repro.sim.SimSetup` before recording anything — its
    ``total_hops`` lets buffering collectors preallocate (retaining
    thousands of small per-step arrays instead would defeat the
    allocator's buffer reuse inside the engine loop), its ``num_links``
    and ``service`` size and quantize what they keep.  ``record_services``
    then receives parallel arrays of the services one engine step
    performed.
    """

    enabled: bool = True

    def start(self, setup) -> None:
        """Sent once before any recording, with the run's setup."""

    def record_services(
        self, links: np.ndarray, begins: np.ndarray, waits: np.ndarray
    ) -> None:
        raise NotImplementedError

    def finalize(self, setup, result, delivered_at) -> TelemetryReport | None:
        raise NotImplementedError


class NullCollector(TelemetryCollector):
    """The do-nothing default: disabled, records nothing, reports nothing."""

    enabled = False

    def record_services(self, links, begins, waits) -> None:  # pragma: no cover
        pass

    def finalize(self, setup, result, delivered_at) -> None:
        return None


#: Waits :class:`WindowedCollector` stages before binning them.
WAIT_CHUNK = 1 << 13

#: The setup :meth:`WindowedCollector.finalize` restarts on, which frees
#: what the finished run recorded.
_NO_RUN = SimpleNamespace(total_hops=0, num_links=0, service=0.0)


class WindowedCollector(TelemetryCollector):
    """Records services compactly and reduces them into a :class:`TelemetryReport`.

    Per service it keeps the compact link index, in the smallest unsigned
    dtype that holds the run's link count, and the ``float64`` begin: 10
    bytes or less where buffering the raw triple took 24.  The wait is
    consumed as it arrives: it only feeds the queue-depth and stall
    histograms, through ``q = ceil(wait / service)`` (the packets the hop
    found ahead of it), so the collector keeps a count per ``q`` and
    :meth:`finalize` derives both histograms from those counts.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        # Waits per queue depth q, grown to the deepest q seen so far; q
        # is capped where neither histogram tells depths apart any more.
        cfg = self.config
        self._cap = max(1 << (cfg.stall_octaves - 1), cfg.queue_depth_bins - 1) + 1
        self.start(_NO_RUN)

    def start(self, setup) -> None:
        hops = setup.total_hops
        self._links = np.empty(
            hops, dtype=np.min_scalar_type(max(setup.num_links - 1, 0))
        )
        self._begins = np.empty(hops, dtype=np.float64)
        self._len = 0
        self._service = float(setup.service)
        self._depths = np.zeros(1, dtype=np.int64)
        self._waits = np.empty(min(hops, WAIT_CHUNK), dtype=np.float64)
        self._staged = 0

    def _grow(self, capacity: int) -> None:
        capacity = max(capacity, 2 * len(self._links))
        for name in ("_links", "_begins"):
            old = getattr(self, name)
            buf = np.empty(capacity, dtype=old.dtype)
            buf[: self._len] = old[: self._len]
            setattr(self, name, buf)

    def record_services(
        self, links: np.ndarray, begins: np.ndarray, waits: np.ndarray
    ) -> None:
        end = self._len + len(links)
        if end > len(self._links):
            self._grow(end)
        self._links[self._len : end] = links
        self._begins[self._len : end] = begins
        self._len = end
        # Waits are binned a chunk at a time: engines record a few hundred
        # services per call, and binning costs about as much per call as
        # per chunk.
        staged = self._staged + len(waits)
        if staged > len(self._waits):
            self._bin_waits(self._waits[: self._staged])
            self._bin_waits(waits)
            self._staged = 0
        else:
            self._waits[self._staged : staged] = waits
            self._staged = staged

    def _bin_waits(self, waits: np.ndarray) -> None:
        """Count ``waits`` by queue depth ``q``."""
        # Most hops never queue: quantize only the nonzero waits and
        # credit the rest to q = 0.  A zero service time never queues
        # (every begin is its arrival), so it has only q = 0 too.
        nz = np.flatnonzero(waits) if self._service > 0 else ()
        self._depths[0] += len(waits) - len(nz)
        if len(nz):
            q = waits[nz] * (1.0 / self._service)
            np.ceil(q, out=q)
            q = q.astype(np.int64)
            np.minimum(q, self._cap, out=q)
            counts = np.bincount(q)
            if len(counts) > len(self._depths):
                counts[: len(self._depths)] += self._depths
                self._depths = counts
            else:
                self._depths[: len(counts)] += counts

    def finalize(self, setup, result, delivered_at) -> TelemetryReport:
        cfg = self.config
        span = float(result.makespan)
        num_windows = cfg.windows
        dt = span / num_windows if span > 0 else 0.0
        self._bin_waits(self._waits[: self._staged])
        self._staged = 0
        n = self._len
        links = self._links[:n]
        begins = self._begins[:n]
        num_links = setup.num_links
        service = float(setup.service)

        inv_dt = 1.0 / dt if dt > 0 else 0.0

        def window_of(times: np.ndarray) -> np.ndarray:
            if dt <= 0:
                return np.zeros(len(times), dtype=np.int64)
            return np.minimum((times * inv_dt).astype(np.int64), num_windows - 1)

        # Serve counts: integer bincount over (link, window) cells.
        win = window_of(begins)
        cells = links.astype(np.int64)
        cells *= num_windows
        cells += win
        serve_flat = np.bincount(cells, minlength=num_links * num_windows)
        del cells
        serve_series = serve_flat.reshape(num_links, num_windows)

        # Occupancy: each service holds its link for exactly ``service``
        # seconds.  Attribute all of it to the begin window (an exact
        # count x service product), then move the post-boundary share of
        # the few boundary-straddling services into the windows it falls
        # in.  Only those corrections are float sums; they run over the
        # canonical (link, begin) order — recovered by a stable sort on
        # link alone, since every engine records each link's services in
        # begin order — so the result is engine-independent.
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
                l_sp = links[spill].astype(np.int64)
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

        # Queue-depth and stall-time histograms share the per-q counts: a
        # hop with q packets ahead of it has stall octave k where q lies in
        # (2^(k-2), 2^(k-1)], so both are sums over runs of q.
        stall_edges = service * np.exp2(np.arange(cfg.stall_octaves))
        num_depth = cfg.queue_depth_bins
        depths = np.zeros(max(len(self._depths), num_depth), dtype=np.int64)
        depths[: len(self._depths)] = self._depths
        queue_depth_hist = np.concatenate(
            [depths[: num_depth - 1], [depths[num_depth - 1 :].sum()]]
        )
        # Octave bin starts over q: 0 | 1 | 2 | 2^(k-2)+1 ... | cap.
        starts = np.concatenate(
            [[0, 1, 2], (1 << np.arange(1, cfg.stall_octaves, dtype=np.int64)) + 1]
        )
        stall_hist = np.zeros(len(starts), dtype=np.int64)
        np.add.at(
            stall_hist,
            np.searchsorted(starts, np.arange(len(depths)), side="right") - 1,
            depths,
        )
        self.start(_NO_RUN)

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
