"""Synthetic application framework.

The paper analyzes dumpi traces of 16 DOE exascale proxy mini-apps from the
Sandia repository.  Those traces are not redistributable here, so each
application is modeled by a **deterministic synthetic generator** that
reproduces its documented communication structure: the domain decomposition,
the point-to-point pattern (halo stencils, sweeps, hypercube exchanges,
scattered AMR neighbours), and the collective mix.

Generators are calibrated against the paper's Table 1: for every
(application, rank-count) configuration we pin the traced execution time,
the total communication volume, and the point-to-point / collective split.
The generator then scales its per-channel message sizes so the emitted trace
hits those aggregates while the *pattern* — which determines every locality
metric — comes from the communication structure itself.

Volume accounting matches the trace level: the collective volume target is
the **logical** volume (sum over callers of their recorded ``count *
element_size``), which is what a trace-side volume extraction sees; the
flattened wire volume used by the network model is larger for fan-out
collectives (factor ~N for alltoall), exactly as in the paper's utilization
results.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..core.blocks import (
    KIND_COLLECTIVE,
    KIND_P2P_RECV,
    KIND_P2P_SEND,
    OP_CODE,
    EventBlock,
    narrow,
)
from ..core.events import CollectiveOp
from ..core.stream import DEFAULT_CHUNK_BYTES, BlockStream, rows_per_chunk
from ..core.trace import Trace, TraceMetadata

__all__ = [
    "MB",
    "CalibrationPoint",
    "Channels",
    "CollectivePhase",
    "AppPattern",
    "SyntheticApp",
]

MB = 1024 * 1024


@dataclass(frozen=True)
class CalibrationPoint:
    """One Table-1 row: the aggregate targets for one configuration.

    ``iterations`` controls how the calibrated volume is spread over
    repeated communication rounds (it fixes message sizes and hence packet
    counts); it is chosen per app so message sizes land in a realistic
    range for that application class.
    """

    ranks: int
    time_s: float
    volume_mb: float
    p2p_share: float
    variant: str = ""
    iterations: int = 100

    def __post_init__(self) -> None:
        if self.ranks <= 0:
            raise ValueError("ranks must be positive")
        if self.time_s <= 0:
            raise ValueError("time_s must be positive")
        if self.volume_mb < 0:
            raise ValueError("volume_mb must be >= 0")
        if not 0.0 <= self.p2p_share <= 1.0:
            raise ValueError("p2p_share must be in [0, 1]")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def p2p_bytes(self) -> int:
        return int(self.volume_mb * MB * self.p2p_share)

    @property
    def collective_logical_bytes(self) -> int:
        return int(self.volume_mb * MB * (1.0 - self.p2p_share))


@dataclass
class Channels:
    """Weighted point-to-point channels: rank pairs with relative volumes.

    ``weight`` is relative; the generator scales weights so the channel
    volumes sum to the calibrated p2p byte target.

    ``calls_factor`` (optional, default 1.0 per channel) scales how *often*
    a channel fires relative to the app's iteration count: halo channels
    exchange every iteration (1.0), while regrid/metadata channels fire
    rarely (≪ 1), which matters because every message costs at least one
    packet no matter how small.
    """

    src: np.ndarray  # int64[k]
    dst: np.ndarray  # int64[k]
    weight: np.ndarray  # float64[k]
    calls_factor: np.ndarray | None = None  # float64[k], relative call rate

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.calls_factor is not None:
            self.calls_factor = np.asarray(self.calls_factor, dtype=np.float64)
            if len(self.calls_factor) != len(self.src):
                raise ValueError("calls_factor must parallel the channel arrays")
            if np.any(self.calls_factor <= 0):
                raise ValueError("calls_factor must be positive")
        if not (len(self.src) == len(self.dst) == len(self.weight)):
            raise ValueError("channel columns must be parallel arrays")
        if np.any(self.weight < 0):
            raise ValueError("channel weights must be >= 0")
        if np.any(self.src == self.dst):
            raise ValueError("channels must connect distinct ranks")

    def factors(self) -> np.ndarray:
        """Per-channel call-rate factors (1.0 when unset)."""
        if self.calls_factor is None:
            return np.ones(len(self.src), dtype=np.float64)
        return self.calls_factor

    def with_calls_factor(self, factor: float) -> "Channels":
        """Copy with a uniform call-rate factor."""
        return Channels(
            self.src, self.dst, self.weight,
            np.full(len(self.src), factor, dtype=np.float64),
        )

    @staticmethod
    def concatenate(parts: list["Channels"]) -> "Channels":
        parts = [p for p in parts if len(p.src)]
        if not parts:
            empty = np.zeros(0)
            return Channels(empty, empty.copy(), empty.copy())
        return Channels(
            np.concatenate([p.src for p in parts]),
            np.concatenate([p.dst for p in parts]),
            np.concatenate([p.weight for p in parts]),
            np.concatenate([p.factors() for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.src)


@dataclass(frozen=True)
class CollectivePhase:
    """One collective operation in the app's per-iteration schedule.

    ``weight`` is the relative share of the app's collective logical volume
    carried by this phase; ``root`` is the root rank for rooted operations.
    """

    op: CollectiveOp
    weight: float
    root: int = 0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("collective weight must be >= 0")


@dataclass
class AppPattern:
    """The communication structure of one configuration of one app."""

    channels: Channels
    collectives: list[CollectivePhase] = field(default_factory=list)


class SyntheticApp(abc.ABC):
    """Base class for all synthetic mini-app trace generators."""

    #: Application name as it appears in the paper's tables.
    name: str = "app"
    #: True for apps the paper marks with (*): MPI Derived Data Types whose
    #: element size is unrecoverable; modeled as an opaque 1-byte type.
    uses_derived_types: bool = False
    #: Table-1 calibration rows, one per configuration.
    calibration: tuple[CalibrationPoint, ...] = ()

    # -- configuration lookup ------------------------------------------------

    def scales(self) -> list[int]:
        """Distinct rank counts this app is calibrated for, ascending."""
        return sorted({c.ranks for c in self.calibration})

    def configurations(self) -> list[CalibrationPoint]:
        """All calibrated configurations (including duplicate-scale variants)."""
        return list(self.calibration)

    def calibration_for(self, ranks: int, variant: str = "") -> CalibrationPoint:
        for point in self.calibration:
            if point.ranks == ranks and point.variant == variant:
                return point
        have = [(c.ranks, c.variant) for c in self.calibration]
        raise KeyError(
            f"{self.name} has no configuration ranks={ranks} variant={variant!r}; "
            f"available: {have}"
        )

    # -- pattern construction ------------------------------------------------

    @abc.abstractmethod
    def pattern(self, ranks: int, rng: np.random.Generator) -> AppPattern:
        """Build the communication structure for a rank count.

        Must be deterministic given ``rng``; all randomness goes through it.
        """

    @property
    def dtype_name(self) -> str:
        """Datatype of generated events (opaque derived type for (*) apps)."""
        return f"{self.name.upper()}_DERIVED_T" if self.uses_derived_types else "MPI_BYTE"

    # -- trace generation ------------------------------------------------------

    def generate(
        self,
        ranks: int,
        variant: str = "",
        seed: int = 0,
        emit_receives: bool = False,
    ) -> Trace:
        """Generate a calibrated synthetic trace for one configuration.

        ``emit_receives`` adds the matching ``MPI_Irecv`` record for every
        point-to-point send, as a real dumpi trace contains.  Receives never
        inject traffic, so every analysis is invariant; the option exists
        for serialization-fidelity tests and for consumers that expect
        two-sided records.

        The trace is emitted as native
        :class:`~repro.core.blocks.EventBlock` columns, without allocating a
        Python object per record.
        """
        meta, p2p_plan, phases = self._plan(ranks, variant, seed)
        return Trace.from_blocks(
            meta, list(self._iter_plan_blocks(meta, p2p_plan, phases, emit_receives))
        )

    def iter_blocks(
        self,
        ranks: int,
        variant: str = "",
        seed: int = 0,
        emit_receives: bool = False,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ):
        """Yield the trace as bounded-size :class:`EventBlock` chunks.

        Each chunk holds at most ``chunk_bytes`` worth of event rows (at
        least one row), so arbitrarily large configurations stream through
        a fixed working set.  Concatenating the chunks reproduces
        :meth:`generate` row-for-row — timestamps are a pure function of
        the global emission slot, not of chunk boundaries.  With
        ``emit_receives`` the chunk size is rounded to whole send/recv
        pairs so a matched pair never splits across chunks.
        """
        meta, p2p_plan, phases = self._plan(ranks, variant, seed)
        max_rows = rows_per_chunk(chunk_bytes)
        yield from self._iter_plan_blocks(meta, p2p_plan, phases, emit_receives, max_rows)

    def stream(
        self,
        ranks: int,
        variant: str = "",
        seed: int = 0,
        emit_receives: bool = False,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> BlockStream:
        """Re-iterable chunked view of one configuration (see :meth:`iter_blocks`).

        The calibration plan (per-channel arrays) is built once and shared
        across iterations; only the per-chunk columns are materialized per
        pass, so peak memory is ``O(channels + chunk)``, never the full
        trace.
        """
        meta, p2p_plan, phases = self._plan(ranks, variant, seed)
        max_rows = rows_per_chunk(chunk_bytes)

        def blocks_factory():
            return self._iter_plan_blocks(meta, p2p_plan, phases, emit_receives, max_rows)

        return BlockStream(meta, blocks_factory)

    def _plan(self, ranks: int, variant: str, seed: int):
        """Calibration plan for one configuration: metadata + emission arrays."""
        point = self.calibration_for(ranks, variant)
        # Stable across processes (unlike hash()): apps get distinct streams.
        name_key = zlib.crc32(self.name.encode()) & 0xFFFF
        rng = np.random.default_rng(np.random.SeedSequence([name_key, ranks, seed]))
        pat = self.pattern(ranks, rng)

        meta = TraceMetadata(
            app=self.name,
            num_ranks=ranks,
            execution_time=point.time_s,
            variant=variant,
            uses_derived_types=self.uses_derived_types,
        )
        p2p_plan = self._plan_p2p(pat, point)
        phases = self._plan_collectives(pat, point, ranks)
        return meta, p2p_plan, phases

    # -- calibration planning ------------------------------------------------

    def _plan_p2p(self, pat: AppPattern, point: CalibrationPoint):
        """Scale channels to the p2p byte target.

        Returns ``(src, dst, bytes_per_msg, calls)`` in emission order
        (lexsorted by ``(src, dst)``), or ``None`` when the configuration
        has no point-to-point traffic.
        """
        ch = pat.channels
        if not (len(ch) and point.p2p_bytes > 0):
            return None
        total_w = ch.weight.sum()
        if total_w <= 0:
            raise ValueError(f"{self.name}: channel weights sum to zero")
        per_channel = ch.weight / total_w * point.p2p_bytes
        calls = np.maximum(np.rint(point.iterations * ch.factors()), 1).astype(np.int64)
        # A channel never sends more messages than it has bytes —
        # otherwise the 1-byte message floor would inflate low-volume
        # channels (visible at very high iteration counts).
        calls = np.minimum(calls, np.maximum(per_channel.astype(np.int64), 1))
        bytes_per_msg = np.maximum(np.rint(per_channel / calls), 1).astype(np.int64)
        # Re-fit the call count to the rounded message size so each
        # channel's total volume stays within half a message of its
        # target (the naive rounding drifts by up to ~20% per channel
        # when messages are only a few bytes).
        calls = np.maximum(np.rint(per_channel / bytes_per_msg), 1).astype(np.int64)
        order = np.lexsort((ch.dst, ch.src))
        return ch.src[order], ch.dst[order], bytes_per_msg[order], calls[order]

    def _plan_collectives(
        self, pat: AppPattern, point: CalibrationPoint, ranks: int
    ) -> list[tuple[CollectiveOp, int, int, int]]:
        """Scale collective phases to the logical byte target.

        Logical volume of one call is N * count (every caller logs
        ``count``), so count = weight_share * target / (N * iters).
        Returns ``(op, root, count, phase_calls)`` per phase.
        """
        target = point.collective_logical_bytes
        if not (pat.collectives and target > 0):
            return []
        total_w = sum(c.weight for c in pat.collectives)
        if total_w <= 0:
            raise ValueError(f"{self.name}: collective weights sum to zero")
        phases: list[tuple[CollectiveOp, int, int, int]] = []
        for phase in pat.collectives:
            share = phase.weight / total_w * target
            count = max(int(round(share / (ranks * point.iterations))), 1)
            # Re-fit the call count to the rounded element count so the
            # phase's logical volume stays on target (matters when the
            # per-call count is a handful of bytes).
            phase_calls = max(int(round(share / (ranks * count))), 1)
            phases.append((phase.op, phase.root, count, phase_calls))
        return phases

    # -- emitter -------------------------------------------------------------

    def _iter_plan_blocks(
        self,
        meta: TraceMetadata,
        p2p_plan,
        phases,
        emit_receives: bool,
        max_rows: int | None = None,
    ):
        """The trace as a block generator.

        With ``max_rows=None`` this yields exactly one block for the p2p
        channels and one for the collectives (the historical in-memory
        layout).  With a row cap it yields bounded slices instead.  Either
        way the concatenated rows are bit-identical: there is one time slot
        per p2p channel and one per collective record, and every chunked
        column is computed from the *global* slot index, so values never
        depend on where a chunk boundary falls.
        """
        ranks = meta.num_ranks
        dtype = self.dtype_name
        step = meta.execution_time / _TIME_SLOTS
        slot = 0

        if p2p_plan is not None:
            src, dst, bytes_per_msg, calls = p2p_plan
            k = len(src)
            if max_rows is None:
                per_chunk = max(k, 1)
            elif emit_receives:
                # Whole send/recv pairs per chunk, so a matched pair
                # never splits across a chunk boundary.
                per_chunk = max(1, max_rows // 2)
            else:
                per_chunk = max_rows
            for a in range(0, k, per_chunk):
                b = min(a + per_chunk, k)
                t0 = np.arange(a, b, dtype=np.float64) * step
                t1 = t0 + 0.5 * step
                n = b - a
                if emit_receives:
                    caller = np.empty(2 * n, dtype=np.int64)
                    peer = np.empty(2 * n, dtype=np.int64)
                    caller[0::2], caller[1::2] = src[a:b], dst[a:b]
                    peer[0::2], peer[1::2] = dst[a:b], src[a:b]
                    kind = np.empty(2 * n, dtype=np.uint8)
                    kind[0::2], kind[1::2] = KIND_P2P_SEND, KIND_P2P_RECV
                    func_id = np.empty(2 * n, dtype=np.int16)
                    func_id[0::2], func_id[1::2] = 0, 1
                    count = np.repeat(bytes_per_msg[a:b], 2)
                    repeat = np.repeat(calls[a:b], 2)
                    t0, t1 = np.repeat(t0, 2), np.repeat(t1, 2)
                    func_names = ("MPI_Isend", "MPI_Irecv")
                else:
                    caller, peer = src[a:b], dst[a:b]
                    count, repeat = bytes_per_msg[a:b], calls[a:b]
                    kind = np.full(n, KIND_P2P_SEND, dtype=np.uint8)
                    func_id = np.zeros(n, dtype=np.int16)
                    func_names = ("MPI_Isend",)
                rows = len(caller)
                yield EventBlock(
                    kind=kind,
                    caller=caller,
                    peer=peer,
                    count=count,
                    dtype_id=np.zeros(rows, dtype=np.int32),
                    op=np.full(rows, -1, dtype=np.int16),
                    root=np.zeros(rows, dtype=np.int32),
                    comm_id=np.zeros(rows, dtype=np.int32),
                    tag=np.zeros(rows, dtype=np.int32),
                    func_id=func_id,
                    repeat=repeat,
                    t_enter=t0,
                    t_leave=t1,
                    dtype_names=(dtype,),
                    func_names=func_names,
                )
            slot = k

        if phases:
            m = len(phases)
            rows = m * ranks
            op_arr = np.array([OP_CODE[op] for op, _, _, _ in phases], dtype=np.int16)
            # Per-phase values in the blocks' column dtype, checked once
            # here rather than on every chunk's gathered copy.
            root_arr = narrow([root for _, root, _, _ in phases], np.int32, "root")
            count_arr = narrow([count for _, _, count, _ in phases], np.int32, "count")
            calls_arr = narrow([pc for _, _, _, pc in phases], np.int32, "repeat")
            per_chunk = rows if max_rows is None else max_rows
            for a in range(0, rows, per_chunk):
                b = min(a + per_chunk, rows)
                idx = np.arange(a, b, dtype=np.int64)
                phase_i = idx // ranks
                t0 = (slot + idx) * step
                n = b - a
                yield EventBlock(
                    kind=np.full(n, KIND_COLLECTIVE, dtype=np.uint8),
                    caller=idx % ranks,
                    peer=np.full(n, -1, dtype=np.int32),
                    count=count_arr[phase_i],
                    dtype_id=np.zeros(n, dtype=np.int32),
                    op=op_arr[phase_i],
                    root=root_arr[phase_i],
                    comm_id=np.zeros(n, dtype=np.int32),
                    tag=np.zeros(n, dtype=np.int32),
                    func_id=np.full(n, -1, dtype=np.int16),
                    repeat=calls_arr[phase_i],
                    t_enter=t0,
                    t_leave=t0 + 0.5 * step,
                    dtype_names=(dtype,),
                )


#: Timestamp slots spread across the traced execution time: slot ``i``
#: starts at ``i * (duration / _TIME_SLOTS)``.  Timestamps are cosmetic (no
#: analysis reads them except the execution time on the metadata), but a
#: monotone spread keeps serialized traces realistic and sortable.
_TIME_SLOTS = 1_000_000
