"""Synthetic trace generators for the paper's 16 proxy-app configurations."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("AppPattern", "CalibrationPoint", "Channels", "CollectivePhase", "SyntheticApp"),
    ".registry": (
        "APPS", "SCALE_APPS", "app_names", "generate_trace", "get_app", "iter_configurations",
        "stream_trace",
    ),
    ".validation": ("ValidationIssue", "ValidationResult", "validate_all", "validate_app"),
})
