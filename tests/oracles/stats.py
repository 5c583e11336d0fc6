"""Per-event Table-1 statistics: the reference for ``trace_stats``.

Walks ``trace.events`` and expands every record through the per-event
:func:`oracles.collectives.iter_send_groups`, so it shares no code with the
block-based :func:`repro.comm.stats.trace_stats` beyond the collective
schedules both expansions read.
"""

from __future__ import annotations

from repro.collectives.translate import TrafficClass
from repro.comm.stats import TraceStats
from repro.core.events import CollectiveEvent

from .collectives import iter_send_groups


def trace_stats_per_event(trace) -> TraceStats:
    """The Table-1 row of ``trace``, computed one event object at a time."""
    p2p = 0
    wire = 0
    for classified in iter_send_groups(trace):
        if classified.traffic_class is TrafficClass.P2P:
            p2p += classified.group.total_bytes
        else:
            wire += classified.group.total_bytes
    logical = 0
    for ev in trace.events:
        if isinstance(ev, CollectiveEvent):
            logical += ev.count * trace.datatypes.size_of(ev.dtype) * ev.repeat
    return TraceStats(
        app=trace.meta.app,
        variant=trace.meta.variant,
        num_ranks=trace.meta.num_ranks,
        execution_time=trace.meta.execution_time,
        p2p_bytes=p2p,
        collective_logical_bytes=logical,
        collective_wire_bytes=wire,
    )
