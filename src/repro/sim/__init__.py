"""Dynamic packet-level network simulation (the paper's stated future work).

Two bit-identical engines: the batched NumPy kernel behind
:func:`simulate_network` (auto-dispatching; :func:`run_group` runs several
simulations through it at once) and the per-event heap loop
:func:`simulate_network_reference` kept as semantic ground truth.
"""

from .common import SimSetup, prepare_simulation
from .engine import (
    SimulationResult,
    run_batched,
    run_group,
    simulate_network,
    simulate_stream,
)
from .reference import run_reference, simulate_network_reference

__all__ = [
    "SimulationResult",
    "SimSetup",
    "prepare_simulation",
    "run_batched",
    "run_group",
    "run_reference",
    "simulate_network",
    "simulate_stream",
    "simulate_network_reference",
]
