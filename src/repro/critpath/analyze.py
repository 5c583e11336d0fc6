"""Critical paths, latency sensitivity, and the latency-tolerance table.

The longest path through the happens-before DAG under the LogGP cost
model is the modelled runtime; the number of L terms on that path is the
*algebraic* network-latency sensitivity dT/dL (each message edge carries
exactly one L, and the path is piecewise linear in L).  The DP tie-breaks
equal-cost paths toward the larger L count, which makes the algebraic
count equal the forward finite difference exactly for a small enough
step — ``repro bench critpath`` cross-checks the two on every registry
app and requires agreement within 1%.

The *latency tolerance* of an app is the latency increase that inflates
its critical path by 1%: ``0.01 * T / (dT/dL)``.  Ranking the mini-apps
by it is the results family neither the source paper nor the volume-based
layers produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cost import DEFAULT_PARAMS, LogGPParams, edge_costs, message_edge_hops
from .dag import HappensBeforeDag
from .match import EDGE_CHUNK

__all__ = [
    "DEFAULT_MAX_REPEAT",
    "CriticalPath",
    "CritPathAnalysis",
    "critical_path",
    "latency_sensitivity",
    "analyze_trace",
    "latency_table",
]

#: Default iteration-truncation clamp for whole-app analyses.  Expansion
#: cost is bounded by rows x clamp while every phase keeps up to 64
#: iterations of unrolled structure; the Nekbone/PARTISN/SNAP configs whose
#: exact expansion is 16-34M calls analyze in seconds instead of minutes.
DEFAULT_MAX_REPEAT = 64

#: Finite-difference step as a fraction of L.  1/512 keeps a dyadic L
#: dyadic, so the default-parameter cross-check is exact arithmetic.
FD_REL_STEP = 1.0 / 512.0


@dataclass(frozen=True)
class CriticalPath:
    """Longest-path result: modelled makespan and its L-term count."""

    makespan_s: float
    l_terms: int


def critical_path(
    dag: HappensBeforeDag, cost: np.ndarray, lterm: np.ndarray
) -> CriticalPath:
    """Longest path via Kahn-order DP over the level schedule.

    ``dist[v] = max over incoming edges (dist[src] + cost)``, computed one
    Kahn level at a time with ``np.maximum.reduceat`` over the pre-gathered
    predecessor spans.  Each node carries ``dist + 1j * lcnt`` as one
    ``complex128``: NumPy orders complex values lexicographically, so the
    single reduction picks the longest distance and, among bit-equal
    distances, the largest L-term count.  Ties thus resolve toward the
    latency-sensitive path and the algebraic dT/dL matches the forward
    finite difference.  The real part is the same single float add as a
    real-valued DP, so the makespan equals that DP's to the bit.

    The complex weights and edge sources are gathered for one window of
    whole levels at a time, about :data:`~repro.critpath.match.EDGE_CHUNK`
    edges (or one larger level), so beside ``cost`` and ``lterm`` the DP
    holds one window's 20 bytes per edge, not every edge's.
    """
    schedule = dag.level_schedule()
    if dag.num_nodes == 0:
        return CriticalPath(0.0, 0)
    z = np.zeros(dag.num_nodes, dtype=np.complex128)
    eidx = schedule.pred_eidx
    # The per-level calls index with intp: NumPy would cast the stored
    # int32 indexes on every call, which costs more than the call on the
    # narrow levels of deep DAGs.
    order = schedule.order.astype(np.intp)
    starts = schedule.starts.astype(np.intp)
    level_ptr = schedule.level_ptr.tolist()
    edge_ptr = schedule.edge_ptr.tolist()
    w0 = w1 = 0
    for lvl in range(1, schedule.num_levels):
        a, b = level_ptr[lvl], level_ptr[lvl + 1]
        e0, e1 = edge_ptr[lvl], edge_ptr[lvl + 1]
        if e1 > w1:  # next window: whole levels from this one on
            last = np.searchsorted(
                schedule.edge_ptr, e0 + EDGE_CHUNK, side="right"
            )
            w0, w1 = e0, max(edge_ptr[int(last) - 1], e1)
            ids = eidx[w0:w1]
            weight = np.empty(len(ids), dtype=np.complex128)
            weight.real = cost[ids]
            weight.imag = lterm[ids]
            src = dag.edge_src[ids].astype(np.intp)
        z[order[a:b]] = np.maximum.reduceat(
            z[src[e0 - w0 : e1 - w0]] + weight[e0 - w0 : e1 - w0], starts[a:b]
        )
    top = z.max()
    return CriticalPath(float(top.real), int(top.imag))


@dataclass(frozen=True)
class SensitivityResult:
    """Algebraic vs finite-difference dT/dL of one DAG."""

    makespan_s: float
    l_terms: int
    algebraic: float
    finite_difference: float

    @property
    def rel_err(self) -> float:
        return abs(self.finite_difference - self.algebraic) / max(
            self.algebraic, 1.0
        )


def latency_sensitivity(
    dag: HappensBeforeDag,
    params: LogGPParams = DEFAULT_PARAMS,
    hops: np.ndarray | None = None,
    rel_step: float = FD_REL_STEP,
) -> SensitivityResult:
    """dT/dL both ways: L-term count and a forward finite difference.

    The cost model is piecewise linear in L and the DP tie-breaks toward
    the maximum L count, so for a step small enough that the critical path
    does not change, the forward difference equals the L-term count — with
    the dyadic default parameters, bit-exactly.
    """
    base_cost, lterm = edge_costs(dag, params, hops)
    base = critical_path(dag, base_cost, lterm)
    del base_cost  # never two cost vectors at once
    eps = params.latency_s * rel_step
    up_cost, _ = edge_costs(dag, params.with_latency(params.latency_s + eps), hops)
    up = critical_path(dag, up_cost, lterm)
    fd = (up.makespan_s - base.makespan_s) / eps
    return SensitivityResult(
        makespan_s=base.makespan_s,
        l_terms=base.l_terms,
        algebraic=float(base.l_terms),
        finite_difference=fd,
    )


@dataclass(frozen=True)
class CritPathAnalysis:
    """One app's critical-path profile under a placement and routing."""

    app: str
    ranks: int
    topology: str
    routing: str
    nodes: int
    edges: int
    msg_edges: int
    makespan_s: float
    l_terms: int
    sensitivity: float  # algebraic dT/dL (= l_terms)
    fd_sensitivity: float  # NaN when the cross-check was skipped
    tolerance_s: float  # latency increase inflating T by 1%; NaN if no L terms
    collective: str = "flat"  # collective-algorithm engine of the DAG

    @property
    def fd_rel_err(self) -> float:
        if math.isnan(self.fd_sensitivity):
            return float("nan")
        return abs(self.fd_sensitivity - self.sensitivity) / max(
            self.sensitivity, 1.0
        )


def analyze_trace(
    trace,
    topology=None,
    mapping=None,
    routing="minimal",
    routing_seed: int = 0,
    params: LogGPParams = DEFAULT_PARAMS,
    max_repeat: int | None = DEFAULT_MAX_REPEAT,
    fd_check: bool = True,
    collective: str = "flat",
) -> CritPathAnalysis:
    """Full critical-path analysis of one trace.

    ``topology=None`` models a zero-diameter network (no per-hop term);
    otherwise hops come from the routing policy's walks under ``mapping``
    (consecutive by default).  ``collective`` picks the engine whose
    schedule shapes the DAG's collective edges.

    Two memo layers sit in front of the work.  The small frozen result is
    looked up first, under every input that decides it
    (:func:`repro.cache.cached_critpath_result`), so a repeated analysis
    touches no DAG at all.  On a miss the DAG comes from
    :func:`repro.cache.cached_critpath_dag`, keyed per trace, repeat clamp
    and engine, so analyses of one trace across topologies and routings
    rebuild nothing.
    """
    from ..cache import cached_critpath_result
    from ..collectives.registry import get_algorithm

    engine = get_algorithm(collective)
    routing_name = routing if isinstance(routing, str) else routing.name
    policy = None
    if topology is not None:
        from ..mapping.base import Mapping
        from ..routing import get_policy

        policy = get_policy(routing, seed=routing_seed)
        if mapping is None:
            # Built here, so the result is keyed by its provenance and an
            # explicit consecutive mapping shares the entry.
            mapping = Mapping.consecutive(trace.meta.num_ranks, topology.num_nodes)
    return cached_critpath_result(
        partial(
            _analyze, trace, topology, mapping, policy, routing_name,
            params, max_repeat, fd_check, engine,
        ),
        trace,
        max_repeat=max_repeat,
        engine=engine,
        params=params,
        fd_check=fd_check,
        routing=routing_name,
        topology=topology,
        mapping=mapping,
        policy=policy,
    )


def _analyze(
    trace, topology, mapping, policy, routing_name, params, max_repeat,
    fd_check, engine,
) -> CritPathAnalysis:
    """The uncached body of :func:`analyze_trace`."""
    from ..cache import cached_critpath_dag

    dag = cached_critpath_dag(trace, max_repeat=max_repeat, collective=engine)
    hops = None
    topo_name = "none"
    if topology is not None:
        hops = message_edge_hops(dag, topology, mapping, routing=policy)
        topo_name = type(topology).__name__
    if fd_check:
        sens = latency_sensitivity(dag, params, hops)
        makespan, l_terms = sens.makespan_s, sens.l_terms
        fd = sens.finite_difference
    else:
        cost, lterm = edge_costs(dag, params, hops)
        cp = critical_path(dag, cost, lterm)
        makespan, l_terms = cp.makespan_s, cp.l_terms
        fd = float("nan")
    tolerance = (0.01 * makespan / l_terms) if l_terms > 0 else float("nan")
    return CritPathAnalysis(
        app=trace.meta.app,
        ranks=trace.meta.num_ranks,
        topology=topo_name,
        routing=routing_name,
        nodes=dag.num_nodes,
        edges=dag.num_edges,
        msg_edges=dag.num_message_edges,
        makespan_s=makespan,
        l_terms=l_terms,
        sensitivity=float(l_terms),
        fd_sensitivity=fd,
        tolerance_s=tolerance,
        collective=engine.name,
    )


def latency_table(
    topology: str = "torus3d",
    routing: str = "minimal",
    max_ranks: int | None = None,
    params: LogGPParams = DEFAULT_PARAMS,
    max_repeat: int | None = DEFAULT_MAX_REPEAT,
    fd_check: bool = True,
    apps=None,
    collective: str = "flat",
) -> list[CritPathAnalysis]:
    """Latency-tolerance profile of every registry app (smallest config).

    One row per mini-app at its smallest configuration not exceeding
    ``max_ranks``, analyzed on ``topology`` under ``routing`` with
    consecutive mapping.  Rows come back in registry order, ready for
    :func:`repro.analysis.tables.render_latency_table`.
    """
    from ..apps.registry import iter_configurations
    from ..cache import cached_trace
    from ..topology.configs import build_topology

    smallest: dict[str, int] = {}
    for app, point in iter_configurations(max_ranks):
        if apps is not None and app.name not in apps:
            continue
        if app.name not in smallest or point.ranks < smallest[app.name]:
            smallest[app.name] = point.ranks
    rows: list[CritPathAnalysis] = []
    for name, ranks in smallest.items():
        trace = cached_trace(name, ranks)
        topo = build_topology(topology, ranks)
        analysis = analyze_trace(
            trace,
            topology=topo,
            routing=routing,
            params=params,
            max_repeat=max_repeat,
            fd_check=fd_check,
            collective=collective,
        )
        # Report under the sweep-facing topology name, not the class name.
        rows.append(
            CritPathAnalysis(
                **{
                    **analysis.__dict__,
                    "topology": topology,
                }
            )
        )
    return rows
