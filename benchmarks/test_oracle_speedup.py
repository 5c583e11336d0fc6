"""The columnar front-end and the vectorized matcher against their per-event
oracles (``pytest -m perf``).

- **Front end**: every study configuration with at least
  :data:`FRONT_END_MIN_RANKS` ranks is generated cold on both paths —
  ``generate`` (EventBlock columns) and ``tests/oracles/apps.py``'s
  per-event emitter — followed by the two matrix builds a Table-3 row
  consumes (p2p-only for the §5 metrics, full for the topology analyses).
  Both paths must yield the same full matrix, at least
  :data:`MIN_FRONT_END_CONFIGS` configurations must be timed, and the
  geometric mean of the per-config speedups must reach
  :data:`MIN_SPEEDUP`.  The mean, not the minimum, is gated: the
  all-collective apps (BigFFT, MOCFE) are bound by the matrix finalize
  both paths share.
- **Matcher**: the exactly expanded AMG@1728 trace with emitted receives
  (~5M p2p events) is matched by :func:`repro.critpath.match.match_events`
  and by ``tests/oracles/critpath.py``'s per-channel queues; the pair
  arrays must be bit-identical and the vectorized matcher at least
  :data:`MIN_SPEEDUP` times faster.

Run with
``PYTHONPATH=src python -m pytest -m perf benchmarks/test_oracle_speedup.py -s``
to see the measured ratios.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps import app_names, get_app
from repro.apps.registry import generate_trace
from repro.comm.matrix import matrix_from_trace
from repro.critpath.match import ensure_receives, expand_events, match_events
from repro.validation.invariants import matrices_identical

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles.apps import emit_events  # noqa: E402
from oracles.critpath import match_events_oracle  # noqa: E402

pytestmark = pytest.mark.perf

MIN_SPEEDUP = 5.0
FRONT_END_MIN_RANKS = 1000
MIN_FRONT_END_CONFIGS = 10
MATCH_WORKLOAD = ("AMG", 1728)


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _front_end(emit, ranks):
    """Cold trace generation plus the p2p-only and full matrix builds."""
    t0 = time.perf_counter()
    trace = emit(ranks)
    matrix_from_trace(trace, include_collectives=False)
    matrix = matrix_from_trace(trace)
    return matrix, time.perf_counter() - t0


def test_front_end_beats_per_event_generation():
    speedups = {}
    for name in app_names():
        app = get_app(name)
        for ranks in app.scales():
            if ranks < FRONT_END_MIN_RANKS:
                continue
            legacy, legacy_s = _front_end(lambda r: emit_events(app, r), ranks)
            columnar, columnar_s = _front_end(app.generate, ranks)
            assert matrices_identical(legacy, columnar), f"{name}@{ranks}"
            speedups[f"{name}@{ranks}"] = legacy_s / columnar_s
    geomean = float(np.exp(np.mean(np.log(list(speedups.values())))))
    print(f"\nfront-end geomean speedup {geomean:.2f} over {len(speedups)} configs")
    for label, speedup in speedups.items():
        print(f"  {label:<24} {speedup:>6.2f}x")
    assert len(speedups) >= MIN_FRONT_END_CONFIGS, sorted(speedups)
    assert geomean >= MIN_SPEEDUP, speedups


def test_matcher_matches_oracle_and_beats_it():
    app, ranks = MATCH_WORKLOAD
    trace = ensure_receives(generate_trace(app, ranks, emit_receives=True))
    table = expand_events(trace, None)
    vectorized, vectorized_s = _timed(match_events, table)
    oracle, oracle_s = _timed(match_events_oracle, table)
    assert np.array_equal(vectorized.send_event, oracle.send_event)
    assert np.array_equal(vectorized.recv_event, oracle.recv_event)
    assert np.array_equal(vectorized.nbytes, oracle.nbytes)
    speedup = oracle_s / vectorized_s
    print(f"\nmatcher speedup vs oracle {speedup:.2f} on {len(table)} events")
    assert speedup >= MIN_SPEEDUP
