"""Experiment drivers: builders and text renderers for every table/figure."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".claims": ("ClaimReport", "build_claim_report", "evaluate_claims", "render_claims"),
    ".export": (
        "curve_records", "figure1_records", "figure5_records", "rows_to_csv", "rows_to_json",
        "table1_records", "table2_records", "table3_records", "table4_records",
    ),
    ".report": (
        "CollectiveDeltaRow", "WorkloadReport", "build_collective_deltas", "build_report",
        "render_collective_deltas", "render_report",
    ),
    ".sweep": ("SweepSpec", "run_sweep"),
    ".figures": (
        "FIGURE5_MIN_RANKS", "Figure1Series", "MulticoreSeries", "SelectivityCurve",
        "build_figure1", "build_figure3", "build_figure4", "build_figure5", "render_curves",
    ),
    ".tables": (
        "TABLE4_WORKLOADS", "Table1Row", "Table3Row", "Table4Row", "build_table1", "build_table2",
        "build_table3", "build_table3_row", "build_table4", "render_latency_table", "render_table1",
        "render_table2", "render_table3", "render_table4",
    ),
})
