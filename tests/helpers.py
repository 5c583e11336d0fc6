"""Test helper constructors (imported by test modules)."""

from __future__ import annotations

import numpy as np

from repro.comm.matrix import CommMatrix, CommMatrixBuilder
from repro.core.trace import Trace, TraceMetadata


def make_trace(num_ranks: int = 4, app: str = "test", time_s: float = 1.0) -> Trace:
    """An empty trace over a world communicator."""
    return Trace(TraceMetadata(app=app, num_ranks=num_ranks, execution_time=time_s))


def make_matrix(num_ranks: int, pairs: list[tuple[int, int, int]]) -> CommMatrix:
    """A matrix from (src, dst, nbytes) triples, one message per pair."""
    builder = CommMatrixBuilder(num_ranks)
    for src, dst, nbytes in pairs:
        builder.add_message(src, dst, nbytes)
    return builder.finalize()


def spread_matrix(num_ranks: int, seed: int = 0) -> CommMatrix:
    """Many crossing pairs with mixed volumes, deterministic."""
    rng = np.random.default_rng(seed)
    pairs = []
    for src in range(num_ranks):
        for dst in rng.choice(num_ranks, size=4, replace=False):
            if int(dst) != src:
                pairs.append((src, int(dst), int(rng.integers(1, 30)) * 4096))
    return make_matrix(num_ranks, pairs)
