"""Test helper constructors (imported by test modules)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.comm.matrix import CommMatrix, CommMatrixBuilder
from repro.core.trace import Trace, TraceMetadata
from repro.service.client import ServiceError, SweepClient


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


def spawn_server(state: Path, socket_path: Path) -> subprocess.Popen:
    """Start ``repro serve`` (two workers, fsync per cell) in a child process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state", str(state),
            "--socket", str(socket_path),
            "--workers", "2",
            "--journal-batch", "1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def shutdown_server(client: SweepClient, proc: subprocess.Popen) -> None:
    """Ask the service to stop, killing it if it does not within 15 s."""
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
