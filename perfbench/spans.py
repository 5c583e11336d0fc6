"""Outside-in span recorder for the traced benchmark run.

Layer entry points are wrapped at the module attribute their caller actually
resolves (``repro.analysis.sweep.cached_mapping``,
``repro.critpath.dag.match_events``, ...), so nothing inside ``src/`` is
instrumented.  Each call becomes one in-memory span with a link to the span
that was open when it started; a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: ``count(args, result) -> {counter: value}`` — work done by one call.
Counter = Callable[[tuple, Any], dict[str, float]]


@dataclass
class Span:
    layer: str
    parent: int  # index of the enclosing span, -1 at the top level
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """Wraps layer functions and records one :class:`Span` per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(
        self,
        module_name: str,
        attr: str,
        layer: str,
        count: Counter | None = None,
        miss_region: str | None = None,
    ) -> None:
        """Replace ``module_name.attr`` by a span-recording wrapper.

        With ``miss_region``, ``count`` only runs for calls that missed that
        :mod:`repro.cache` region, so work counts cover computed artifacts,
        not cache hits.
        """
        module = _resolve(module_name)
        original = getattr(module, attr)
        if hasattr(original, "__perfbench_layer__"):
            raise ValueError(f"{module_name}.{attr} is already wrapped")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(original, layer, count, miss_region, args, kwargs)

        wrapper.__perfbench_layer__ = layer
        setattr(module, attr, wrapper)

    def _call(self, fn, layer, count, miss_region, args, kwargs):
        misses = _misses(miss_region)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(layer, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.duration
        missed = miss_region is None or _misses(miss_region) != misses
        if count is not None and missed:
            span.counts = count(args, result)
        return result

    def take(self) -> list[Span]:
        """The spans recorded so far; the recorder starts a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _resolve(dotted: str) -> Any:
    """The module, or the class inside a module, that ``dotted`` names."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            owner = getattr(owner, name)
        return owner
    raise ModuleNotFoundError(dotted)


def _misses(region: str | None) -> int:
    if region is None:
        return 0
    from repro import cache

    return cache.stats()[region]["misses"]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: ``calls``, ``self_s`` and the summed work counters."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += span.self_s
        for name, value in span.counts.items():
            row[name] = row.get(name, 0) + value
    return totals


def root_seconds(spans: list[Span]) -> float:
    """Inclusive time of the top-level spans: the part of a leg in layers."""
    return sum(span.duration for span in spans if span.parent < 0)


def to_json(spans: list[Span], origin: float) -> list[dict[str, Any]]:
    """Spans as JSON records, times in seconds from ``origin``."""
    return [
        {
            "layer": s.layer,
            "parent": s.parent,
            "start_s": s.start - origin,
            "end_s": s.end - origin,
            "self_s": s.self_s,
            "counts": s.counts,
        }
        for s in spans
    ]
