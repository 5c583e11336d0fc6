"""The paper's published values and paper-vs-measured comparison tooling."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".compare": ("CellComparison", "DeviationSummary", "compare_table3", "deviation_summary"),
    ".values": (
        "TABLE1", "TABLE3", "TABLE4", "PaperTable1Row", "PaperTable3Row", "table1_row",
        "table3_row",
    ),
})
