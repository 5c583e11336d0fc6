"""The vectorized mapping kernels against their oracles (``pytest -m perf``).

Greedy ordering and swap refinement on the densest traffic graph of the
study, the all-collective BigFFT@1024, placed consecutively on a two-stage
radix-64 fat tree.  Each kernel must equal its heap/dict-of-lists form in
``tests/oracles/mapping.py`` bit for bit and run at least
:data:`MIN_SPEEDUP` times faster in the same process.  Run with
``PYTHONPATH=src python -m pytest -m perf benchmarks/test_mapping_speedup.py``.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps import get_app
from repro.comm.matrix import matrix_from_trace
from repro.mapping.base import Mapping
from repro.mapping.optimized import greedy_ordering, refine_mapping
from repro.topology.fattree import FatTree

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles.mapping import (  # noqa: E402
    greedy_ordering_reference,
    refine_mapping_reference,
)

pytestmark = pytest.mark.perf

MIN_SPEEDUP = 3.0


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def test_mapping_kernels_match_oracles_and_beat_them():
    matrix = matrix_from_trace(get_app("BigFFT").generate(1024))
    topology = FatTree(radix=64, stages=2)
    base = Mapping.consecutive(1024, topology.num_nodes, 1)

    order, greedy_s = _timed(greedy_ordering, matrix)
    order_ref, greedy_ref_s = _timed(greedy_ordering_reference, matrix)
    refined, refine_s = _timed(refine_mapping, matrix, topology, base)
    refined_ref, refine_ref_s = _timed(refine_mapping_reference, matrix, topology, base)

    assert np.array_equal(order, order_ref)
    assert np.array_equal(refined.nodes, refined_ref.nodes)
    speedups = {
        "greedy": greedy_ref_s / greedy_s,
        "refine": refine_ref_s / refine_s,
    }
    assert min(speedups.values()) >= MIN_SPEEDUP, speedups
