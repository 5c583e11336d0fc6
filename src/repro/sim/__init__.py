"""Dynamic packet-level network simulation (the paper's stated future work).

Two bit-identical engines behind :func:`simulate_network`: the batched
NumPy kernel (:func:`run_group` runs several simulations through it at
once) and the per-event heap loop :func:`run_reference`, the semantic
ground truth, which ``engine="auto"`` picks for sparse traffic.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".common": ("SimSetup", "prepare_simulation"),
    ".engine": (
        "SimulationResult", "run_batched", "run_group", "simulate_network", "simulate_stream",
    ),
    ".reference": ("run_reference",),
})
