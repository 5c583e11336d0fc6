"""Network telemetry & congestion analysis for the packet simulators.

A pluggable instrumentation layer both sim engines feed identically (see
:mod:`repro.telemetry.collector` for the bit-identity argument), plus the
congestion-region analysis (:mod:`repro.telemetry.congestion`), per-policy
comparisons (:mod:`repro.telemetry.compare`), ASCII timeline rendering
(:mod:`repro.telemetry.render`), and npz/json persistence
(:mod:`repro.telemetry.export`).

Quick start::

    from repro.sim import simulate_network
    from repro.telemetry import TelemetryConfig, congestion_summary

    result = simulate_network(matrix, topo, telemetry=TelemetryConfig(windows=48))
    print(result.telemetry.peak_occupancy)
    print(congestion_summary(result.telemetry, topo, threshold=0.7))
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".collector": (
        "NullCollector", "TelemetryCollector", "TelemetryConfig", "TelemetryReport",
        "WindowedCollector", "reports_equal",
    ),
    ".compare": ("adversarial_hot_group_matrix", "congestion_by_routing"),
    ".congestion": (
        "CongestionRegion", "CongestionSummary", "congestion_summary", "find_congestion_regions",
    ),
    ".export": ("load_report_npz", "report_to_json_dict", "save_report_json", "save_report_npz"),
    ".render": ("render_congestion_timeline", "render_summary"),
})
