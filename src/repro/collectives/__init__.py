"""Collective-to-point-to-point translation with pluggable algorithms.

The paper's §4.4 convention flattens every collective into direct p2p
messages; real MPI libraries use log-depth schedules whose choice shifts
communication locality substantially (Bine Trees, PAPERS.md).  The engine
registry mirrors :mod:`repro.routing`: resolve a name with
:func:`get_algorithm`, expand records through the engine, and key every
derived artifact by its ``cache_token()``::

    from repro.collectives import get_algorithm, iter_send_batches
    engine = get_algorithm("binomial")
    batches = iter_send_batches(trace, collective=engine)

``COLLECTIVES`` lists every engine name in the canonical order used by CLI
choices, sweep axes, and the collectives benchmark.  ``flat`` is the
bit-identical default everywhere.
"""

from .base import CollectiveAlgorithm, FlatCollective
from .bine import BineCollective
from .binomial import BinomialCollective
from .patterns import (
    check_root,
    even_split,
    even_split_rows,
    expand_collective_batch,
)
from .recursive_doubling import RecursiveDoublingCollective
from .registry import COLLECTIVES, get_algorithm
from .ring import RingCollective
from .translate import (
    SendBatch,
    TrafficClass,
    collective_volume,
    iter_send_batches,
)

__all__ = [
    "COLLECTIVES",
    "CollectiveAlgorithm",
    "FlatCollective",
    "BinomialCollective",
    "RingCollective",
    "RecursiveDoublingCollective",
    "BineCollective",
    "get_algorithm",
    "check_root",
    "even_split",
    "even_split_rows",
    "expand_collective_batch",
    "SendBatch",
    "TrafficClass",
    "collective_volume",
    "iter_send_batches",
]
