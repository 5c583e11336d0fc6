"""Traffic-matrix extraction and trace statistics."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".matrix": ("CommMatrix", "CommMatrixBuilder", "matrix_from_stream", "matrix_from_trace"),
    ".stats": ("TraceStats", "trace_stats"),
})
