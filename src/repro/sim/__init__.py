"""Dynamic packet-level network simulation (the paper's stated future work).

Two bit-identical engines behind :func:`simulate_network`: the batched
NumPy kernel (:func:`run_group` runs several simulations through it at
once) and the per-event heap loop :func:`run_reference`, the semantic
ground truth, which ``engine="auto"`` picks for sparse traffic.
"""

from .common import SimSetup, prepare_simulation
from .engine import (
    SimulationResult,
    run_batched,
    run_group,
    simulate_network,
    simulate_stream,
)
from .reference import run_reference

__all__ = [
    "SimulationResult",
    "SimSetup",
    "prepare_simulation",
    "run_batched",
    "run_group",
    "run_reference",
    "simulate_network",
    "simulate_stream",
]
