"""Static network model: hops, utilization, link loads, latency, energy."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".energy": ("SERDES_POWER_SHARE", "EnergyModel", "EnergyReport"),
    ".engine": ("BANDWIDTH_BYTES_PER_S", "NetworkAnalysis", "analyze_network"),
    ".latency": ("LatencyModel", "LatencyReport"),
    ".linkload": ("LinkLoadStats", "link_load_stats", "link_loads"),
    ".slack": ("SlackReport", "bandwidth_slack"),
})
