"""repro — reproduction of *On Network Locality in MPI-Based HPC Applications*
(Zahn & Fröning, ICPP 2020).

The library has four layers:

1. **Traces** (:mod:`repro.core`, :mod:`repro.dumpi`, :mod:`repro.apps`) —
   an MPI call-record model, a dumpi-like ASCII serialization, and
   deterministic synthetic generators for the paper's 16 proxy-app
   configurations (calibrated to Table 1).
2. **Traffic** (:mod:`repro.collectives`, :mod:`repro.comm`) — flat
   collective→p2p translation (§4.4) and sparse rank-pair traffic matrices.
3. **Metrics** (:mod:`repro.metrics`) — the paper's hardware-agnostic
   contributions: rank locality, selectivity, peers, and the 1D/2D/3D
   dimensionality analysis.
4. **Network model** (:mod:`repro.topology`, :mod:`repro.mapping`,
   :mod:`repro.routing`, :mod:`repro.model`) — static 3D-torus / fat-tree /
   dragonfly models, pluggable routing policies (minimal, ECMP, Valiant,
   d-mod-k, UGAL), rank→node mappings (consecutive, multi-core, optimized),
   and the packet-hops / average-hops / utilization analyses of §6.

Quick start::

    import repro

    trace = repro.generate_trace("LULESH", 64)
    m_p2p = repro.matrix_from_trace(trace, include_collectives=False)
    print(repro.peers(m_p2p), repro.rank_distance(m_p2p), repro.selectivity(m_p2p))

    m_all = repro.matrix_from_trace(trace)
    topo = repro.config_for(64).build_torus()
    result = repro.analyze_network(m_all, topo, execution_time=trace.meta.execution_time)
    print(result.avg_hops, result.utilization_percent)
"""

from time import perf_counter as _perf_counter

#: When ``import repro`` began; ``--timings`` reports start-up from here.
_IMPORT_STARTED = _perf_counter()

from ._exports import lazy_exports  # noqa: E402

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".apps": ("APPS", "app_names", "generate_trace", "get_app", "iter_configurations"),
    ".comm": ("CommMatrix", "CommMatrixBuilder", "TraceStats", "matrix_from_trace", "trace_stats"),
    ".core": (
        "CollectiveEvent", "CollectiveOp", "Communicator", "DatatypeRegistry", "MAX_PAYLOAD_BYTES",
        "MPIDatatype", "P2PEvent", "Trace", "TraceMetadata",
    ),
    ".dumpi": ("TraceKey", "TraceRepository", "dump_trace", "load_trace"),
    ".mapping": ("Mapping", "multicore_sweep", "optimize_mapping", "weighted_hop_cost"),
    ".metrics": (
        "MPILevelMetrics", "grid_shape", "locality_by_dimension", "mean_selectivity_curve",
        "mpi_level_metrics", "partner_volumes", "peers", "rank_distance", "rank_locality",
        "selectivity", "selectivity_curve",
    ),
    ".model": (
        "BANDWIDTH_BYTES_PER_S", "EnergyModel", "LatencyModel", "NetworkAnalysis",
        "analyze_network", "bandwidth_slack", "link_load_stats",
    ),
    ".paper": ("compare_table3", "deviation_summary", "table1_row", "table3_row"),
    ".routing": ("ROUTINGS", "RoutingPolicy", "get_policy"),
    ".sim": ("SimulationResult", "simulate_network"),
    ".telemetry": ("TelemetryConfig", "TelemetryReport", "congestion_summary"),
    ".topology": (
        "Dragonfly", "FatTree", "Mesh3D", "TABLE2", "TopologyConfig", "Torus3D", "build_all",
        "config_for",
    ),
})
__all__.append("__version__")
