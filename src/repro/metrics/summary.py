"""Per-trace MPI-level metric summary (the left half of Table 3)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..comm.matrix import CommMatrix, matrix_from_trace
from ..core.trace import Trace
from ..util import fmt_float
from .locality import locality_from_distance, rank_distance
from .peers import peers
from .selectivity import selectivity

__all__ = ["MPILevelMetrics", "mpi_level_metrics"]


@dataclass(frozen=True)
class MPILevelMetrics:
    """Hardware-agnostic metrics of one trace (paper §5).

    All three metrics consider point-to-point traffic only; apps without any
    p2p traffic get ``peers = 0`` and NaN distances (N/A in the paper).
    """

    app: str
    variant: str
    num_ranks: int
    peers: int
    rank_distance_90: float
    rank_locality_90: float
    selectivity_90: float

    @property
    def has_p2p(self) -> bool:
        return self.peers > 0

    @property
    def label(self) -> str:
        base = f"{self.app}@{self.num_ranks}"
        return f"{base}/{self.variant}" if self.variant else base

    def format_row(self) -> str:
        """One aligned text row (N/A for all-collective workloads).

        Individual metrics can be NaN even with ``peers > 0`` (e.g. p2p
        pairs that carry zero bytes); each cell renders independently so no
        "nan" ever reaches the table.
        """
        if not self.has_p2p:
            return f"{self.label:<28} {'N/A':>6} {'N/A':>10} {'N/A':>10}"
        return (
            f"{self.label:<28} {self.peers:>6d} "
            f"{fmt_float(self.rank_distance_90, '.1f'):>10} "
            f"{fmt_float(self.selectivity_90, '.1f'):>10}"
        )


def mpi_level_metrics(
    trace: Trace, matrix: CommMatrix | None = None
) -> MPILevelMetrics:
    """Compute peers, rank distance and selectivity for one trace.

    ``matrix`` may be passed to reuse an already-built *p2p-only* traffic
    matrix; otherwise one is built here (collectives excluded, per §5).
    """
    if matrix is None:
        matrix = matrix_from_trace(trace, include_collectives=False)
    n_peers = peers(matrix)
    if n_peers == 0:
        return MPILevelMetrics(
            app=trace.meta.app,
            variant=trace.meta.variant,
            num_ranks=trace.meta.num_ranks,
            peers=0,
            rank_distance_90=math.nan,
            rank_locality_90=math.nan,
            selectivity_90=math.nan,
        )
    distance = rank_distance(matrix)
    return MPILevelMetrics(
        app=trace.meta.app,
        variant=trace.meta.variant,
        num_ranks=trace.meta.num_ranks,
        peers=n_peers,
        rank_distance_90=distance,
        rank_locality_90=locality_from_distance(distance),
        selectivity_90=selectivity(matrix),
    )
