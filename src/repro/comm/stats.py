"""Trace-level traffic statistics (Table 1 columns).

For each trace the paper reports: rank count, execution time, total volume,
the point-to-point and collective shares of that volume, and throughput
(volume / time).

Collective volume comes in two flavours:

- **logical** — what a trace-side extraction sees: the sum over callers of
  the recorded ``count * element_size``.  This is the Table-1 figure.
- **wire** — what the flattened point-to-point expansion (paper §4.4) puts
  on the network.  For fan-out collectives this is much larger (factor ~N
  for an alltoall), which is why all-collective apps like BigFFT show
  network utilizations far above what their Table-1 volume alone suggests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.translate import TrafficClass, iter_send_batches
from ..core.trace import Trace

__all__ = ["TraceStats", "trace_stats"]

MB = 1024 * 1024


@dataclass(frozen=True)
class TraceStats:
    """One Table-1 row."""

    app: str
    variant: str
    num_ranks: int
    execution_time: float
    p2p_bytes: int
    collective_logical_bytes: int
    collective_wire_bytes: int

    @property
    def total_bytes(self) -> int:
        """Table-1 total: p2p plus trace-level (logical) collective volume."""
        return self.p2p_bytes + self.collective_logical_bytes

    @property
    def wire_total_bytes(self) -> int:
        """Network-level total: p2p plus flattened collective volume."""
        return self.p2p_bytes + self.collective_wire_bytes

    @property
    def total_mb(self) -> float:
        return self.total_bytes / MB

    @property
    def p2p_share(self) -> float:
        """Point-to-point fraction of the Table-1 volume, in [0, 1]."""
        total = self.total_bytes
        return self.p2p_bytes / total if total else 0.0

    @property
    def collective_share(self) -> float:
        """Collective fraction of the Table-1 volume, in [0, 1]."""
        total = self.total_bytes
        return self.collective_logical_bytes / total if total else 0.0

    @property
    def throughput_mb_per_s(self) -> float:
        """Aggregate volume over traced execution time (MB/s, Table 1)."""
        return self.total_mb / self.execution_time

    @property
    def label(self) -> str:
        base = f"{self.app}@{self.num_ranks}"
        return f"{base}/{self.variant}" if self.variant else base

    def format_row(self) -> str:
        """One aligned text row matching Table 1's columns."""
        return (
            f"{self.label:<28} {self.num_ranks:>6d} {self.execution_time:>10.2f} "
            f"{self.total_mb:>12.1f} {100 * self.p2p_share:>7.2f} "
            f"{100 * self.collective_share:>7.2f} {self.throughput_mb_per_s:>10.2f}"
        )


def trace_stats(trace: Trace) -> TraceStats:
    """Compute the Table-1 row of one trace."""
    p2p = 0
    wire = 0
    for batch in iter_send_batches(trace):
        if batch.traffic_class is TrafficClass.P2P:
            p2p += batch.total_bytes
        else:
            wire += batch.total_bytes
    logical = 0
    for block in trace.blocks():
        mask = block.collective_mask()
        nbytes = np.multiply(
            block.row_bytes(trace.datatypes)[mask], block.repeat[mask], dtype=np.int64
        )
        logical += int(nbytes.sum())

    return TraceStats(
        app=trace.meta.app,
        variant=trace.meta.variant,
        num_ranks=trace.meta.num_ranks,
        execution_time=trace.meta.execution_time,
        p2p_bytes=p2p,
        collective_logical_bytes=logical,
        collective_wire_bytes=wire,
    )
