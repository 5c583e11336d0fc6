"""Application oracles: per-event trace emission and the scalar scatter.

:func:`emit_events` is the trace emitter as first written: one
:class:`~repro.core.events.P2PEvent` or
:class:`~repro.core.events.CollectiveEvent` object per record, added to the
trace one at a time.  :meth:`repro.apps.base.SyntheticApp.generate` emits
the same calibration plan as ``EventBlock`` columns, and
``tests/test_columnar_equivalence.py`` pins the two bit-identical.

:func:`repro.apps.patterns.biased_scattered_channels` draws candidate
offsets in chunks and rewinds its bit generator to the draws
:func:`biased_scattered_reference` consumes; the same test module pins it
to that loop on channels and on the generator state after the call.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import _TIME_SLOTS, Channels, SyntheticApp
from repro.core.events import CollectiveEvent, Direction, P2PEvent
from repro.core.trace import Trace


class _TimeCursor:
    """Hands out the next timestamp slot: ``(t_enter, t_leave)``."""

    def __init__(self, duration: float, slots: int = _TIME_SLOTS) -> None:
        self._step = duration / slots
        self._i = 0

    def next(self) -> tuple[float, float]:
        t0 = self._i * self._step
        self._i += 1
        return t0, t0 + 0.5 * self._step


def emit_events(
    app: SyntheticApp,
    ranks: int,
    variant: str = "",
    seed: int = 0,
    emit_receives: bool = False,
) -> Trace:
    """``app.generate(ranks, variant, seed, emit_receives)``, one event at a time."""
    meta, p2p_plan, phases = app._plan(ranks, variant, seed)
    dtype = app.dtype_name
    trace = Trace(meta)
    time_cursor = _TimeCursor(meta.execution_time)

    if p2p_plan is not None:
        src, dst, bytes_per_msg, calls = p2p_plan
        for idx in range(len(src)):
            t0, t1 = time_cursor.next()
            trace.add(
                P2PEvent(
                    caller=int(src[idx]),
                    peer=int(dst[idx]),
                    count=int(bytes_per_msg[idx]),
                    dtype=dtype,
                    func="MPI_Isend",
                    t_enter=t0,
                    t_leave=t1,
                    repeat=int(calls[idx]),
                )
            )
            if emit_receives:
                trace.add(
                    P2PEvent(
                        caller=int(dst[idx]),
                        peer=int(src[idx]),
                        count=int(bytes_per_msg[idx]),
                        dtype=dtype,
                        direction=Direction.RECV,
                        func="MPI_Irecv",
                        t_enter=t0,
                        t_leave=t1,
                        repeat=int(calls[idx]),
                    )
                )

    for op, root, count, phase_calls in phases:
        for caller in range(ranks):
            t0, t1 = time_cursor.next()
            trace.add(
                CollectiveEvent(
                    caller=caller,
                    op=op,
                    count=count,
                    dtype=dtype,
                    root=root,
                    t_enter=t0,
                    t_leave=t1,
                    repeat=phase_calls,
                )
            )
    return trace


def biased_scattered_reference(
    num_ranks: int,
    partners_per_rank: int,
    rng: np.random.Generator,
    distance: str,
    partner_w: np.ndarray,
    total_weight: float,
    max_off: int,
) -> Channels:
    """Draw-by-draw form of the biased scatter: two ``rng.random()`` per try."""
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[float] = []
    for r in range(num_ranks):
        chosen: set[int] = set()
        guard = 0
        while len(chosen) < partners_per_rank and guard < 40 * partners_per_rank:
            guard += 1
            u = rng.random()
            if distance == "uniform":
                d = int(u * max_off) + 1
            elif distance == "loguniform":
                d = int(np.exp(u * np.log(max_off))) or 1
            else:  # quadratic
                d = int(u * u * max_off) + 1
            d = min(d, max_off)
            sign = 1 if rng.random() < 0.5 else -1
            dst = r + sign * d
            if not 0 <= dst < num_ranks:
                dst = r - sign * d
            if dst == r or not 0 <= dst < num_ranks:
                continue
            chosen.add(dst)
        for j, dst in enumerate(sorted(chosen)):
            srcs.append(r)
            dsts.append(dst)
            wts.append(partner_w[j % partners_per_rank])
    w = np.array(wts, dtype=np.float64)
    w *= total_weight / w.sum()
    return Channels(np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64), w)
