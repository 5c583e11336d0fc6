"""Quick performance smoke tests (``pytest -m perf`` selects them).

These assert speed *ratios*, never wall times, so they hold on slow CI
machines.  The heavyweight calibrated benchmark (with the 10x target and
the BENCH_sim.json artifact) is ``repro bench sim``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from helpers import make_matrix

from repro import cache
from repro.sim.common import prepare_simulation
from repro.sim.engine import run_batched
from repro.sim.reference import run_reference
from repro.topology.dragonfly import Dragonfly

pytestmark = pytest.mark.perf


def _dense_matrix(num_ranks: int, packets_per_pair: int = 60, seed: int = 0):
    rng = np.random.default_rng(seed)
    pairs = []
    for src in range(num_ranks):
        for dst in rng.choice(num_ranks, size=4, replace=False):
            if int(dst) != src:
                pairs.append((src, int(dst), packets_per_pair * 4096))
    return make_matrix(num_ranks, pairs)


class TestPerfSmoke:
    def test_batched_beats_reference_on_dense_load(self):
        matrix = _dense_matrix(64)
        setup = prepare_simulation(
            matrix, Dragonfly(4, 2, 2), execution_time=2e-4, seed=1
        )
        assert setup.total_packets > 10_000

        t0 = time.perf_counter()
        batched = run_batched(setup)
        t_batched = time.perf_counter() - t0

        t0 = time.perf_counter()
        reference = run_reference(setup)
        t_reference = time.perf_counter() - t0

        assert batched == reference
        assert t_reference / t_batched > 1.0, (
            f"batched kernel slower than reference "
            f"({t_batched:.3f}s vs {t_reference:.3f}s)"
        )

    def test_cache_warm_pass_faster_than_cold(self):
        from repro.cache import cached_matrix, cached_trace

        cache.configure(disable_disk=True)
        cache.clear(memory=True)
        t0 = time.perf_counter()
        trace = cached_trace("LULESH", 64)
        cached_matrix(trace)
        cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        trace = cached_trace("LULESH", 64)
        cached_matrix(trace)
        warm = time.perf_counter() - t0

        assert cold / warm > 1.0, f"warm pass not faster ({cold:.4f}s vs {warm:.4f}s)"
        cache.clear(memory=True)
