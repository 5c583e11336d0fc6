"""Content-keyed memoization for the expensive pipeline stages.

The study grid re-derives the same intermediate artifacts many times: the
41-configuration Table-3 reproduction regenerates traces that Figure 3/5 and
the claims report need again; a sweep evaluates one traffic matrix against
several bandwidths and routing policies, recomputing identical mappings,
route summaries and static-model results per point.  Each ``cached_*``
producer here builds the content key of one artifact, in one place, and
looks it up through :func:`_memo`, the one lookup path of every region.

:data:`REGIONS` declares each region once: its entry and byte bounds, its
disk form and whether a miss frees memory before it builds.  The keys are
declared by the producers themselves (:func:`cached_trace`,
:func:`cached_matrix`, :func:`cached_mapping`, :func:`cached_node_pairs`,
:func:`cached_route_incidence`, :func:`cached_route_summary`,
:func:`cached_critpath_dag`, :func:`cached_critpath_result`,
:func:`model_key`); a producer with an input that has no content key
(a foreign trace without provenance, a topology without a fingerprint)
passes ``key=None`` and bypasses the cache.  What only a miss needs is
imported inside the producer's compute function, so a hit costs one key
tuple and one LRU lookup.  Artifacts later keys are derived from carry
their own key as provenance (:func:`provenance`).

Two tiers: a per-process in-memory LRU per region (always on) and an
optional on-disk cache enabled with :func:`configure` or the
``REPRO_CACHE_DIR`` environment variable / ``repro --cache-dir``.  Disk
entries are named ``v{CACHE_VERSION}-{region}-{key digest}{suffix}``; keys
are pure content keys, so the disk cache never needs invalidation for
same-version runs.  Bump :data:`CACHE_VERSION` when a generator, routing
algorithm or on-disk layout changes semantics
(``tests/test_cache_entries.py`` pins the entry names of a small run).
Warm trace hits memory-map their spilled columns, so a cached trace costs
address space rather than RSS.

Cached integer columns are stored narrow, each in the dtype
:data:`repro.core.blocks.CACHED_COLUMNS` declares: trace columns in
``int32``, matrix ranks, route-incidence indexes and node-pair node IDs in
the smallest unsigned dtype for their count, message and packet counts in
``uint32`` when they fit.  Producers store them narrow once (an incidence
when it is stored here, a matrix or block when it is built), and consumers
widen to ``int64`` before arithmetic.  Arrays an entry memoizes after it
is stored (a ``RouteIncidence``'s used links and compact link index) are
counted against it when they are made (:func:`count_memo`).

Cached objects are shared — treat them as immutable.  ``Trace`` is the one
mutable type handled here; never ``add()`` events to a cached trace.

Telemetry configuration never enters a cache key: collectors observe a
simulation without changing the traces, matrices, or route incidences it
consumes, so instrumented and plain runs share the same cached artifacts
(``tests/test_telemetry.py::TestCacheHygiene`` pins this down).
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import logging
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import timings

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "configure",
    "clear",
    "stats",
    "memory",
    "count_memo",
    "REGIONS",
    "provenance",
    "set_provenance",
    "cached_trace",
    "cached_matrix",
    "cached_mapping",
    "cached_node_pairs",
    "cached_route_incidence",
    "cached_route_summary",
    "cached_critpath_dag",
    "cached_critpath_result",
    "cached_network_analysis",
    "model_key",
    "trace_content_key",
    "matrix_content_key",
    "array_digest",
]

#: Bump when trace generators, matrix construction, routing, or the on-disk
#: layout change semantics — entries from other versions are never read.
#: v2: traces store columnar event blocks as ``.npz`` instead of pickle.
#: v3: route-incidence keys carry the routing policy token (name + seed for
#: randomized policies), so pluggable routing never aliases minimal entries.
#: v4: traces persist as chunked spill directories (per-chunk per-column
#: ``.npy`` segments + manifest) that warm hits memory-map instead of
#: loading, so a cached trace costs address space, not RSS.
#: v5: mappings join the disk cache (node-pair aggregates join the memory
#: tier only — they are matrix-sized, so spilling them costs more than the
#: argsort they save).
#: v6: multi-tenant composition (repro.tenancy) — composite traces carry
#: per-job prefixed sub-communicators and the ``interference_aware``
#: routing token embeds a victim-load digest; cold-start once so no v5
#: entry can alias a composed-era key.
#: v7: critical-path engine (repro.critpath) — happens-before DAGs join
#: the memory tier keyed on trace provenance plus the repeat clamp, and
#: synthesized-receive expansion changes what a trace key denotes for the
#: DAG region; cold-start so no v6 entry can alias a critpath-era key.
#: v8: pluggable collective-algorithm engines — matrix and critpath-DAG
#: keys carry the engine's ``cache_token()``, and the binomial tree
#: expansion fixed its subtree-size conservation bugs (scatterv remainder
#: truncation, mismatched tree orientation), so tree-expanded artifacts
#: from v7 must never be read back.
#: v9: foreign-trace content keys digest the decoded record columns plus
#: the referenced datatype sizes and the communicator table (v8 pickled the
#: events only, so traces differing in derived-type sizes aliased).
#: v10: the spectral mapping's eigensolver starts from a fixed vector (it
#: started from a random one, so a spectral slot entry was one draw among
#: several orderings); no random-start slot entry is read back.
#: v11: ``Mesh3D`` has its own fingerprint (it inherited the torus's, so a
#: mesh's route incidences and summaries were stored under torus keys); no
#: v10 route entry is read back.
#: v12: compact columns (:data:`repro.core.blocks.CACHED_COLUMNS`) — trace
#: spills, pickled matrices and ``.npz`` incidences store narrow integer
#: dtypes, and foreign-matrix content keys digest those dtypes; no v11
#: entry, with its ``int64`` columns, is read back.
CACHE_VERSION = 12


@dataclass
class CacheStats:
    """Hit/miss counters of one cache region."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "disk_hits": self.disk_hits}


_MISS = object()


class _LRU:
    """A small OrderedDict-based LRU with per-region statistics.

    Every region tallies the array bytes its entries hold and counts its
    evictions.  An entry is credited only with the arrays no other held
    entry reaches (:data:`_held`), so an array two regions share counts
    once, in the region that stored it first, as :func:`memory` credits
    it.  ``maxbytes`` bounds that tally: the oldest entries are evicted
    past it.  The newest entry always stays, so a value larger than the
    whole bound is held alone until :meth:`shed` or the next :meth:`put`
    drops it.
    """

    def __init__(self, maxsize: int, maxbytes: int | None = None) -> None:
        self.maxsize = maxsize
        self.maxbytes = maxbytes
        self.nbytes = 0
        self.evictions = 0
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._sizes: dict[Any, int] = {}
        #: Per entry, the ids of the arrays it reaches and of those it is
        #: credited with.
        self._reach: dict[Any, tuple[int, ...]] = {}
        self._credit: dict[Any, tuple[int, ...]] = {}
        #: When each entry was stored, in one count shared by every region.
        self._stored: dict[Any, int] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any, default: Any = _MISS) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            return default
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        if key in self._data and self._drop(key):
            _measure()
        self._hold(key, _arrays(value), next(_store_count))
        self._data[key] = value
        _entry_of[id(value)] = (self, key)
        while len(self._data) > 1 and (
            len(self._data) > self.maxsize or self._over_bytes()
        ):
            self._evict_oldest()

    def shed(self) -> None:
        """Drop an entry held past the byte bound (only a newest one that
        alone exceeds it can be), e.g. before building its successor."""
        while self._over_bytes():
            self._evict_oldest()

    def _over_bytes(self) -> bool:
        return self.maxbytes is not None and self.nbytes > self.maxbytes

    def _hold(self, key: Any, arrays: dict[int, int], stored: int) -> None:
        """Count an entry's ``arrays`` as held, crediting ``key`` with the
        ones no other held entry reaches."""
        credit = tuple(i for i in arrays if i not in _held)
        for i in arrays:
            _held[i] = _held.get(i, 0) + 1
        self._reach[key] = tuple(arrays)
        self._credit[key] = credit
        self._sizes[key] = sum(arrays[i] for i in credit)
        self.nbytes += self._sizes[key]
        self._stored[key] = stored

    def _grow(self, key: Any) -> None:
        """Count the arrays ``key``'s value memoized after it was stored,
        crediting it with the ones no other held entry reaches."""
        arrays = _arrays(self._data[key])
        reach = set(self._reach[key])
        new = tuple(i for i in arrays if i not in reach)
        credit = tuple(i for i in new if i not in _held)
        for i in new:
            _held[i] = _held.get(i, 0) + 1
        self._reach[key] += new
        self._credit[key] += credit
        grown = sum(arrays[i] for i in credit)
        self._sizes[key] += grown
        self.nbytes += grown

    def _drop(self, key: Any) -> bool:
        """Forget ``key``; whether an array credited to it is still held
        by another entry (which the tally must then credit instead)."""
        if _entry_of.get(id(self._data[key])) == (self, key):
            del _entry_of[id(self._data[key])]
        del self._data[key]
        del self._stored[key]
        self.nbytes -= self._sizes.pop(key)
        for i in self._reach.pop(key):
            count = _held.pop(i, 0)
            if count > 1:
                _held[i] = count - 1
        return any(i in _held for i in self._credit.pop(key))

    def _evict_oldest(self) -> None:
        self.evictions += 1
        if self._drop(next(iter(self._data))):
            _measure()

    def clear(self) -> None:
        for key in list(self._data):
            self._drop(key)
        self.evictions = 0
        self.stats = CacheStats()


def _arrays(value: Any) -> dict[int, int]:
    """``{id: nbytes}`` of the NumPy arrays reachable from ``value``.

    An array counts its ``nbytes`` (a memory-mapped trace column counts
    what it maps); an object with an integer ``nbytes`` (a DAG) reports
    itself; tuples, lists, dicts and ``repro`` objects are walked through
    their items and attributes.
    """
    found: dict[int, int] = {}
    seen: set[int] = set()
    stack = [value]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found[id(value)] = value.nbytes
            continue
        own = getattr(value, "nbytes", None)
        if isinstance(own, int):
            found[id(value)] = own
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif type(value).__module__.startswith("repro.") and hasattr(
            value, "__dict__"
        ):
            stack.extend(vars(value).values())
    return found


_store_count = itertools.count()

_log = logging.getLogger("repro.cache")


def _evict_corrupt(path: Path, exc: Exception) -> None:
    """Log and delete an unreadable disk entry so it is recomputed once.

    Corruption here means any failure to load a file whose name matched the
    current :data:`CACHE_VERSION` and key digest — truncation (killed
    writer on a filesystem without atomic rename), foreign bytes, or a stale
    class layout.  Version *mismatches* never reach this path: the version
    is part of the filename, so other-version entries are simply never
    opened.  Eviction keeps the corrupt file from being re-parsed (and
    re-logged) on every later lookup.
    """
    _log.warning(
        "evicting corrupt cache entry %s (%s: %s)",
        path.name,
        type(exc).__name__,
        exc,
    )
    try:
        if path.is_dir():
            import shutil

            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink()
    except OSError:
        pass  # already gone, or read-only cache dir: stays a plain miss


# ------------------------------------------------------------------ disk tier


def _atomic_write(path: Path, write_fn) -> None:
    """Write via a temp file + fsync + rename so readers never see a torn entry.

    Concurrent writers of the same key are safe: each writes its own
    ``mkstemp`` file and the ``os.replace`` is atomic, so readers observe
    either a complete entry or a miss, never a partial file — last rename
    wins, and both writers produced identical bytes for a content key.  The
    ``fsync`` before the rename closes the power-loss window where the
    rename is durable but the data is not (the classic torn-entry source on
    journaled filesystems); ``tests/test_cache_concurrency.py`` hammers one
    key from eight processes to pin the concurrent-writer behaviour down.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load(path: Path, read) -> Any:
    """``read(path)`` of an existing entry; a miss if absent or unreadable."""
    if not path.exists():
        return _MISS
    try:
        return read(path)
    except Exception as exc:
        # Truncated files, foreign bytes and stale class layouts surface as
        # arbitrary pickle/zip/JSON/value errors: all of them are a miss.
        _evict_corrupt(path, exc)
        return _MISS


def _read_pickle(path: Path) -> Any:
    with path.open("rb") as fh:
        return pickle.load(fh)


def _load_pickle(stem: str) -> Any:
    return _load(Path(stem + ".pkl"), _read_pickle)


def _store_pickle(stem: str, value: Any) -> None:
    _atomic_write(
        Path(stem + ".pkl"),
        lambda fh: pickle.dump(value, fh, pickle.HIGHEST_PROTOCOL),
    )


def _read_npz(cls: str, path: Path) -> Any:
    """The dataclass ``cls`` (``"module:Class"``) of an ``.npz`` entry: one
    array per field, a 0-d array read back as its scalar."""
    module, name = cls.split(":")
    build = getattr(importlib.import_module(module), name)
    with np.load(path) as data:
        arrays = {field: data[field] for field in data.files}
    return build(**{k: v.item() if v.ndim == 0 else v for k, v in arrays.items()})


def _store_npz(stem: str, value: Any) -> None:
    """Each field of the dataclass ``value`` that is not ``None``."""
    arrays = {f.name: getattr(value, f.name) for f in fields(value)}
    _atomic_write(
        Path(stem + ".npz"),
        lambda fh: np.savez(fh, **{k: v for k, v in arrays.items() if v is not None}),
    )


def _load_trace(stem: str) -> Any:
    """A spilled trace with memory-mapped columns, else a pickled one.

    Warm hits map the segment files instead of reading them: the returned
    trace's column arrays are paged in on demand and reclaimable under
    memory pressure, so a warm cache never charges trace-sized RSS.
    """
    from .core.stream import load_spill_trace

    value = _load(Path(stem + ".spill"), partial(load_spill_trace, mmap=True))
    return _load_pickle(stem) if value is _MISS else value


def _store_trace(stem: str, trace) -> None:
    """Persist a trace's blocks as a chunked spill directory.

    The blocks are re-sliced to the default chunk budget first, so every
    segment file stays bounded regardless of trace size.  A trace that is
    not spill-representable (committed derived layouts, sub-communicators)
    is pickled instead.
    """
    from .core.stream import BlockStream, write_spill

    stream = BlockStream.from_trace(trace).rechunk()
    if write_spill(stream, Path(stem + ".spill")) is None:
        _store_pickle(stem, trace)


class Disk(NamedTuple):
    """A region's disk form: ``load(stem)`` (``_MISS`` when absent or
    corrupt) and ``store(stem, value)``, where ``stem`` is the entry's path
    without its suffix."""

    load: Callable[[str], Any]
    store: Callable[[str, Any], None]


_PICKLE = Disk(_load_pickle, _store_pickle)
_SPILL = Disk(_load_trace, _store_trace)


def _npz(cls: str) -> Disk:
    """Entries of the dataclass ``cls`` (``"module:Class"``) as ``.npz``."""
    return Disk(
        lambda stem: _load(Path(stem + ".npz"), partial(_read_npz, cls)), _store_npz
    )


# ------------------------------------------------------------------ regions


class Region(NamedTuple):
    """One cache region, declared once: its entry bound, its byte bound if
    it holds arrays, its disk form (``None``: memory only) and whether a
    miss first drops an entry held past the byte bound (``shed``)."""

    entries: int
    max_bytes: int | None = None
    disk: Disk | None = None
    shed: bool = False


_MiB = 1 << 20

#: Every cache region, declared once: the LRUs, :func:`_memo`,
#: :func:`memory` and the ``--timings`` memory line derive from this table.
#: Each region that holds arrays has a byte bound; the others hold small
#: Python objects only.  Byte bounds sit above each region's high-water
#: mark on the perfbench workloads, the full ``repro report`` and the
#: 216-cell reference sweep (``docs/performance.md``, "Cache byte
#: bounds"), except two sized to their reuse:
#:
#: - ``pairs``: a sweep re-reads an aggregate only from the other routings
#:   of its placement, at most ``len(COLLECTIVES)`` aggregates later in
#:   grid order, and a miss is one argsort (~1 ms at 20k pairs): the byte
#:   bound holds a few small aggregates, or a larger one alone.  The entry
#:   bound covers the report's collective-delta table, which re-reads
#:   identity aggregates (they hold only their matrix's arrays, so no
#:   bytes) dozens of aggregates later (up to 80 on ``report_critpath``).
#: - ``critpath``: happens-before DAGs range from kilobytes to ~0.7 GB
#:   (BigFFT@1024, 33.6 M edges, at the report's clamp); the bound pins the
#:   many small ones, and a larger one alone, until the next DAG is built.
#:
#: Both shed: a miss drops the entry held past the bound before it builds
#: the next.  Node-pair aggregates and DAGs stay off disk: they are
#: matrix- or expansion-sized, so spilling them costs more than the
#: argsort or expansion they save.  Traces spill to memory-mapped ``.npy``
#: segments (pickled when a trace cannot be expressed that way), matrices
#: and mappings (with the topology-independent slot assignments they are
#: placed from) pickle, and route incidences and summaries persist as
#: ``.npz``.
REGIONS: dict[str, Region] = {
    "trace": Region(64, 128 * _MiB, disk=_SPILL),
    "matrix": Region(128, 256 * _MiB, disk=_PICKLE),
    "incidence": Region(
        128, 32 * _MiB, disk=_npz("repro.topology.base:RouteIncidence")
    ),
    "summary": Region(
        1024, 16 * _MiB, disk=_npz("repro.routing.summary:RouteSummary")
    ),
    "mapping": Region(256, 4 * _MiB, disk=_PICKLE),
    "pairs": Region(64, 1 * _MiB, shed=True),
    "digests": Region(1024),
    "critpath": Region(1024, 256 * _MiB, shed=True),
    "critpath_result": Region(4096),
    "model": Region(4096),
}

#: How many held entries, over every region, reach each array (by ``id``).
_held: dict[int, int] = {}

#: The region and key of each held value (by ``id``), for :func:`count_memo`.
_entry_of: dict[int, tuple[_LRU, Any]] = {}

_regions: dict[str, _LRU] = {
    name: _LRU(region.entries, region.max_bytes)
    for name, region in REGIONS.items()
}

_disk_dir: Path | None = (
    Path(os.environ["REPRO_CACHE_DIR"]) if os.environ.get("REPRO_CACHE_DIR") else None
)


def configure(
    disk_dir: str | os.PathLike | None = None,
    *,
    memory_items: dict[str, int] | None = None,
    disable_disk: bool = False,
) -> None:
    """Reconfigure cache tiers.

    ``disk_dir`` enables (or moves) the on-disk tier; ``disable_disk`` turns
    it off regardless of the environment.  ``memory_items`` sets the entry
    bounds of in-memory regions (``{"trace": 64, "incidence": 32}``); their
    byte bounds stay those of :data:`REGIONS`.
    """
    global _disk_dir
    if disable_disk:
        _disk_dir = None
    elif disk_dir is not None:
        _disk_dir = Path(disk_dir)
        _disk_dir.mkdir(parents=True, exist_ok=True)
    if memory_items:
        for name, size in memory_items.items():
            if name not in _regions:
                raise ValueError(f"unknown cache region {name!r}")
            if size <= 0:
                raise ValueError("cache region sizes must be positive")
            _regions[name].maxsize = size


def clear(memory: bool = True, disk: bool = False) -> None:
    """Drop cached entries (memory always per-region; disk only if asked)."""
    if memory:
        for region in _regions.values():
            region.clear()
        _held.clear()  # and what an LRU outside the table left counted
        _entry_of.clear()
    if disk and _disk_dir is not None and _disk_dir.is_dir():
        for path in _disk_dir.glob(f"v{CACHE_VERSION}-*"):
            if path.is_dir():  # spill-directory trace entries
                import shutil

                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)


def stats() -> dict[str, dict[str, int]]:
    """Hit/miss counters per region."""
    return {name: region.stats.as_dict() for name, region in _regions.items()}


def count_memo(value: Any) -> None:
    """Count arrays ``value`` memoized after it was stored against its entry.

    ``RouteIncidence`` memoizes its used links and its compact link index
    on first use; this credits them to the entry holding the incidence at
    once, so the region's byte bound sees them before :func:`memory`
    re-measures.  A value no region holds is ignored.
    """
    entry = _entry_of.get(id(value))
    if entry is not None and entry[0]._data.get(entry[1]) is value:
        entry[0]._grow(entry[1])


def _measure() -> None:
    """Re-measure every entry of every region.

    An entry evicted from one region can leave an array it was credited
    with to an entry of another.  Entries are measured in the order they
    were stored, so a shared array counts once, in the earliest held entry
    that reaches it.
    """
    stored = sorted(
        (
            (stored, region, key)
            for region in _regions.values()
            for key, stored in region._stored.items()
        ),
        key=lambda entry: entry[0],
    )
    _held.clear()
    for region in _regions.values():
        region.nbytes = 0
    for stored_at, region, key in stored:
        region._hold(key, _arrays(region._data[key]), stored_at)


def memory() -> dict[str, dict[str, int | None]]:
    """Per region: entries, array bytes held, the byte bound and evictions.

    Bytes are re-measured at the call (:func:`_measure`), so they include
    arrays an entry memoized after it was stored, and an array several
    regions hold counts once: the regions sum to the bytes held.  The
    bound is ``None`` for regions that hold no arrays (:data:`REGIONS`).
    """
    _measure()
    return {
        name: {
            "entries": len(region),
            "bytes": region.nbytes,
            "bound": region.maxbytes,
            "evictions": region.evictions,
        }
        for name, region in _regions.items()
    }


def memory_summary() -> str:
    """One line: the array megabytes each non-empty region holds, over its
    byte bound."""
    held = [
        f"{name} {entry['bytes'] / _MiB:.2f}"
        + ("" if entry["bound"] is None else f"/{entry['bound'] / _MiB:g}")
        for name, entry in memory().items()
        if entry["entries"]
    ]
    return "cache MB held/bound: " + (", ".join(held) if held else "none")


# ------------------------------------------------------------------ keys


def provenance(obj: Any) -> tuple | None:
    """The content key ``obj`` carries as provenance, or ``None``.

    Artifacts this module produces (traces, matrices, mappings) carry the
    key they are cached under, and deterministic constructors
    (:meth:`repro.mapping.base.Mapping.consecutive`, composed traces)
    carry their arguments, so keys derived from them cost nothing.
    """
    return getattr(obj, "_repro_cache_key", None)


def set_provenance(obj: Any, key: tuple) -> Any:
    """Attach ``key`` to ``obj`` as its provenance; returns ``obj``.

    Rides outside the fields of frozen dataclasses (``CommMatrix``,
    ``Mapping``), so it never changes their equality or their repr.
    """
    object.__setattr__(obj, "_repro_cache_key", key)
    return obj


def array_digest(*arrays: np.ndarray) -> str:
    """BLAKE2 content digest of one or more arrays (dtype/shape included)."""
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def trace_content_key(trace: Any) -> tuple:
    """A stable content key for a trace.

    Traces produced by :func:`cached_trace` carry their generation key as
    provenance, making this free.  Foreign traces (e.g. converted dumpi
    recordings) fall back to a digest of everything that decides their
    bytes — exact but O(records): the decoded record columns (insensitive
    to block partitioning; names hashed as UTF-8 text), the size of every
    datatype the records reference, and every communicator's members.
    """
    key = provenance(trace)
    if key is not None:
        return key
    from .core.blocks import decoded_columns

    meta = trace.meta
    columns = decoded_columns(trace.blocks())
    h = hashlib.blake2b(digest_size=16)
    for name, column in columns.items():
        if column.dtype == object:
            payload = "\0".join(column.tolist()).encode("utf-8")
        else:
            payload = array_digest(column).encode()
        h.update(f"{name}:{len(payload)}:".encode())
        h.update(payload)
    for dtype in sorted(set(columns["dtype"].tolist())):
        h.update(f"dtype:{dtype}={trace.datatypes.size_of(dtype)}\0".encode())
    for comm in trace.communicators.names():
        members = np.asarray(trace.communicators.get(comm).members, np.int64)
        h.update(f"comm:{comm}={array_digest(members)}\0".encode())
    return ("trace-content", meta.app, meta.num_ranks, meta.variant, h.hexdigest())


def matrix_content_key(matrix: Any) -> tuple:
    """A stable content key for a traffic matrix.

    Matrices produced by :func:`cached_matrix` carry their generation key as
    provenance, making this free.  Foreign matrices fall back to a digest
    of the five parallel pair columns — exact but O(pairs).
    """
    key = provenance(matrix)
    if key is not None:
        return key
    digest = array_digest(
        matrix.src, matrix.dst, matrix.nbytes, matrix.messages, matrix.packets
    )
    return ("matrix-content", matrix.num_ranks, digest)


def _key_digest(key: tuple) -> str:
    raw = repr((CACHE_VERSION, key)).encode()
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


# ------------------------------------------------------------------ the lookup


def _memo(
    region: str,
    key: tuple | None,
    compute: Callable[[], Any],
    keyed: bool = False,
) -> Any:
    """``compute()``, memoized in ``region`` under ``key``.

    The one lookup of every region: the memory tier, then the region's
    disk form (a load counts a disk hit), then ``compute()`` — after
    shedding, in a region declared ``shed`` — whose value the disk form
    stores.  The value is held under ``key``; with ``keyed``, it carries
    ``key`` as its :func:`provenance`, attached after the disk store.
    ``key=None`` bypasses the region: the value is computed, and neither
    stored nor held.
    """
    lru = _regions[region]
    if key is not None:
        value = lru.get(key)
        if value is not _MISS:
            return value
    spec = REGIONS[region]
    stem = None
    if key is not None and spec.disk is not None and _disk_dir is not None:
        stem = str(_disk_dir / f"v{CACHE_VERSION}-{region}-{_key_digest(key)}")
    value = _MISS if stem is None else spec.disk.load(stem)
    if value is not _MISS:
        lru.stats.disk_hits += 1
    else:
        if spec.shed:
            lru.shed()
        value = compute()
        if stem is not None:
            spec.disk.store(stem, value)
    if key is not None:
        if keyed:
            set_provenance(value, key)
        lru.put(key, value)
    return value


# ------------------------------------------------------------------ producers


def cached_trace(
    name: str,
    ranks: int,
    variant: str = "",
    seed: int = 0,
    emit_receives: bool = False,
):
    """Memoized :func:`repro.apps.registry.generate_trace`, keyed on its
    whole determinism domain."""
    key = ("trace", name, ranks, variant, seed, emit_receives)

    def compute():
        from .apps.registry import generate_trace

        trace = generate_trace(
            name, ranks, variant=variant, seed=seed, emit_receives=emit_receives
        )
        # Before the disk store, so a pickled trace carries its key.
        return set_provenance(trace, key)

    return _memo("trace", key, compute, keyed=True)


def cached_matrix(
    trace,
    include_p2p: bool = True,
    include_collectives: bool = True,
    payload: int | None = None,
    collective: str = "flat",
):
    """Memoized :func:`repro.comm.matrix.matrix_from_trace`.

    The key carries the collective engine's ``cache_token()`` so no two
    engines (flat, binomial, ring, ...) ever alias one entry.
    """
    from .collectives.registry import get_algorithm

    if payload is None:
        from .core.packets import MAX_PAYLOAD_BYTES

        payload = MAX_PAYLOAD_BYTES
    engine = get_algorithm(collective)
    key = (
        "matrix",
        trace_content_key(trace),
        include_p2p,
        include_collectives,
        payload,
        engine.cache_token(),
    )

    def compute():
        from .comm.matrix import matrix_from_trace

        return matrix_from_trace(
            trace,
            include_p2p=include_p2p,
            include_collectives=include_collectives,
            payload=payload,
            collective=engine,
        )

    return _memo("matrix", key, compute, keyed=True)


def cached_mapping(matrix, topology, method: str = "greedy", seed: int = 0):
    """Memoized :func:`repro.mapping.optimized.optimize_mapping`.

    A sweep grid evaluates one (matrix, topology, method) mapping against
    every routing policy and bandwidth, and optimization (greedy refinement,
    spectral, recursive bisection) is the single most expensive per-cell
    stage at scale — so unlike the other producers this one is hot even
    *within* a single sweep.  ``consecutive`` mappings are returned directly
    (an ``arange`` is cheaper than a cache probe).

    A miss places the matrix's slot assignment (:func:`_cached_slots`),
    which every topology and seed of one ``(matrix, method)`` shares, so a
    topology without a structural fingerprint bypasses only the placement.
    """
    if method == "consecutive":
        from .mapping.optimized import optimize_mapping

        # Carries its own provenance (Mapping.consecutive declares it).
        return optimize_mapping(matrix, topology, method=method, seed=seed)
    fingerprint = topology.fingerprint()
    key = None
    if fingerprint is not None:
        key = ("mapping", matrix_content_key(matrix), fingerprint, method, seed)

    def compute():
        from .mapping.optimized import place_slots

        with timings.stage("mapping"):
            return place_slots(_cached_slots(matrix, method), topology)

    return _memo("mapping", key, compute, keyed=True)


def _cached_slots(matrix, method: str) -> np.ndarray:
    """Memoized :func:`repro.mapping.optimized.optimized_slots`.

    Slot assignments never depend on the topology or the seed, so the key
    is ``(matrix content key, method)``; entries share the ``mapping``
    region and its disk tier with the placed mappings.
    """
    key = ("mapping-slots", matrix_content_key(matrix), method)

    def compute():
        from .mapping.optimized import optimized_slots

        return optimized_slots(matrix, method)

    return _memo("mapping", key, compute)


def cached_node_pairs(matrix, mapping):
    """Memoized node-pair traffic aggregate of ``(matrix, mapping)``.

    :func:`repro.model.engine.analyze_network` starts every run by folding
    the rank-pair matrix onto node pairs — an argsort-and-reduce over the
    whole matrix that a sweep repeats identically for every routing policy
    and bandwidth sharing one placement.  Keyed on both inputs' provenance;
    ad-hoc matrices or mappings bypass the region.  Memory-only and bounded
    to the reuse a sweep has (:data:`REGIONS`).
    """
    matrix_key, mapping_key = provenance(matrix), provenance(mapping)
    key = None
    if matrix_key is not None and mapping_key is not None:
        key = ("pairs", matrix_key, mapping_key)

    def compute():
        from .model.engine import _node_pair_aggregate

        return _node_pair_aggregate(matrix, mapping)

    return _memo("pairs", key, compute)


def cached_critpath_dag(trace, max_repeat: int | None = None, collective: str = "flat"):
    """Memoized happens-before DAG of ``(trace, max_repeat, collective)``.

    :func:`repro.critpath.analyze.analyze_trace` rebuilds nothing when one
    trace is profiled across several topologies and routing policies: the
    DAG depends only on the trace content, the repeat clamp, and the
    collective engine (tree schedules change the happens-before shape), so
    it is keyed on the trace's generation provenance plus the engine's
    ``cache_token()``.  Foreign traces (no provenance) bypass the region —
    hashing the event stream would cost as much as the expansion it saves.

    The DAG is returned with its level schedule built (a cyclic graph
    raises :class:`~repro.critpath.dag.CycleError` here), so the region
    bounds the bytes the DAG will hold: ``REGIONS["critpath"].max_bytes``
    in all.  A larger DAG evicts every other one and is kept only until the
    next build, which drops it first, so analyses of one large trace on
    several topologies or mappings in a row still share it.
    """
    from .collectives.registry import get_algorithm

    engine = get_algorithm(collective)
    trace_key = provenance(trace)
    key = None
    if trace_key is not None:
        key = ("critpath-dag", trace_key, max_repeat, engine.cache_token())

    def compute():
        from .critpath.dag import build_dag

        dag = build_dag(trace, max_repeat=max_repeat, collective=engine)
        dag.level_schedule()
        return dag

    return _memo("critpath", key, compute)


def cached_critpath_result(
    compute,
    trace,
    *,
    max_repeat: int | None,
    engine,
    params,
    fd_check: bool,
    routing: str,
    topology=None,
    mapping=None,
    policy=None,
):
    """Memoized result of one critical-path analysis: ``compute()``.

    The result (makespan, dT/dL, sizes) is a few hundred bytes while the
    DAG behind it can be gigabytes, so this memory-only region is looked
    up before :func:`cached_critpath_dag` is touched.  The key is every
    input that decides the result: the trace's provenance, ``max_repeat``,
    the collective engine's ``cache_token()``, the LogGP ``params``,
    ``fd_check`` and the ``routing`` label; with a ``topology``, also its
    class and ``fingerprint()``, the mapping's provenance and the routing
    ``policy``'s ``cache_token()``, which covers its seed.  A trace or
    mapping without provenance, or a topology without a fingerprint,
    bypasses the region.
    """
    trace_key = provenance(trace)
    key = None
    if trace_key is not None:
        key = (
            "critpath-result",
            trace_key,
            max_repeat,
            engine.cache_token(),
            params,
            fd_check,
            routing,
        )
    if key is not None and topology is not None:
        fingerprint = topology.fingerprint()
        mapping_key = provenance(mapping)
        if fingerprint is None or mapping_key is None:
            key = None
        else:
            key += (
                type(topology).__name__,
                fingerprint,
                mapping_key,
                policy.cache_token(),
            )
    return _memo("critpath_result", key, compute)


def model_key(
    matrix, mapping, topology, policy, volume_mode: str, payload: int
) -> tuple | None:
    """The ``model`` region's key of one static-model query, or ``None``.

    Every input that decides a :class:`~repro.model.engine.NetworkAnalysis`
    apart from ``execution_time`` and ``bandwidth`` (which only enter
    Eq. 5's denominator): the matrix's and the mapping's provenance, the
    topology's class and ``fingerprint()``, the routing ``policy``'s
    ``cache_token()`` (name, seed of randomized policies, victim loads of
    ``interference_aware``) and ``volume_mode``, plus ``payload`` when
    the mode is ``"padded"`` (raw volumes never read it).  ``None`` — the
    query bypasses the region — when the matrix or mapping has no
    provenance or the topology no fingerprint.
    """
    matrix_key = provenance(matrix)
    mapping_key = provenance(mapping)
    fingerprint = topology.fingerprint()
    if matrix_key is None or mapping_key is None or fingerprint is None:
        return None
    return (
        "model",
        matrix_key,
        mapping_key,
        type(topology).__name__,
        fingerprint,
        policy.cache_token(),
        volume_mode,
        payload if volume_mode == "padded" else None,
    )


def cached_network_analysis(
    compute, key: tuple | None, execution_time: float, bandwidth: float
):
    """Memoized static-model result: ``compute()`` under :func:`model_key`.

    The region holds each query's result as first computed; the answer is
    that result with this call's ``execution_time`` and ``bandwidth``, so a
    sweep's extra bandwidths and every warm Table-3 row cost one lookup.
    Memory-only: the entries hold no arrays.  ``key=None`` bypasses it.
    """
    value = _memo("model", key, compute)
    return replace(value, execution_time=execution_time, bandwidth=bandwidth)


def _route_key(
    topology, src, dst, policy, pair_weights, content_token
) -> tuple | None:
    """The content key one route query shares across its incidence and
    its summary: ``(fingerprint, policy token, query digest)``.

    The digest covers the ``(src, dst)`` arrays, plus the per-pair weights
    when a load-aware policy (UGAL) routes on them.  ``None`` when the
    topology has no structural fingerprint (such queries are not cached).
    ``content_token`` memoizes the digest; see :func:`cached_route_incidence`.
    """
    fingerprint = topology.fingerprint()
    if fingerprint is None:
        return None
    load_aware = policy.load_aware and pair_weights is not None

    def digest():
        arrays = [np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)]
        if load_aware:
            arrays.append(np.asarray(pair_weights, dtype=np.float64))
        return array_digest(*arrays)

    token_key = None
    if content_token is not None:
        token_key = ("incidence-digest", content_token, load_aware)
    digest = _memo("digests", token_key, digest)
    return (fingerprint, policy.cache_token(), digest)


def _walk_routes(policy, topology, src, dst, pair_weights):
    with timings.stage("routing"):
        return policy.route_incidence(
            topology,
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            pair_weights=pair_weights,
        )


def cached_route_incidence(
    topology,
    src: np.ndarray,
    dst: np.ndarray,
    routing="minimal",
    seed: int = 0,
    pair_weights: np.ndarray | None = None,
    content_token: tuple | None = None,
):
    """Memoized route incidence under any :mod:`repro.routing` policy.

    ``routing`` is a policy name or a pre-built
    :class:`~repro.routing.base.RoutingPolicy` instance; the default
    ``"minimal"`` memoizes :meth:`Topology.route_incidence` exactly as
    before.  The cache key carries the policy's ``cache_token()`` — name
    plus seed for randomized policies — so no two policies (or two seeds of
    one randomized policy) ever share an entry.  For load-aware policies
    (UGAL) with ``pair_weights`` supplied, the weights join the content
    digest, since they steer the adaptive placements.

    Topologies without a structural fingerprint (custom subclasses that do
    not override :meth:`fingerprint`) bypass the cache.

    Keys carry a content digest of the query arrays rather than any
    provenance token deliberately: the digest aliases identical queries
    that arrive under different provenances (e.g. two payloads share one
    matrix sparsity pattern, so their crossing pair arrays — and their
    incidence — are the same entry), which roughly halves the incidence
    working set of a payload-crossed sweep grid.

    ``content_token`` is an optional *digest memo* key, not an entry key: a
    provenance tuple that uniquely determines ``(src, dst, pair_weights)``
    (the engine passes its matrix/mapping provenance pair).  When supplied,
    the BLAKE2 digest of the query arrays — the dominant warm-lookup cost
    for million-pair batches — is remembered under it, while cache entries
    stay digest-keyed so the cross-provenance aliasing above is preserved.
    """
    from .routing import get_policy

    policy = get_policy(routing, seed=seed)
    route_key = _route_key(topology, src, dst, policy, pair_weights, content_token)
    key = None if route_key is None else ("incidence",) + route_key
    # Stored narrow (CACHED_COLUMNS): the walk's int64 rows are dropped.
    return _memo(
        "incidence",
        key,
        lambda: _walk_routes(policy, topology, src, dst, pair_weights).compacted(
            len(src)
        ),
    )


def cached_route_summary(
    topology,
    src: np.ndarray,
    dst: np.ndarray,
    routing="minimal",
    seed: int = 0,
    pair_weights: np.ndarray | None = None,
    content_token: tuple | None = None,
):
    """Memoized :class:`~repro.routing.summary.RouteSummary` of a route query.

    Takes the arguments of :func:`cached_route_incidence` and answers
    under the same key, so a summary always describes exactly the routes
    its incidence would hold.  A miss derives the summary from the rows
    when the ``incidence`` region already holds them (the simulator
    stored them); otherwise it walks the routes through the policy and
    keeps only the summary.
    """
    from .routing import get_policy

    policy = get_policy(routing, seed=seed)
    route_key = _route_key(topology, src, dst, policy, pair_weights, content_token)

    def compute():
        from .routing.summary import summarize_routes

        rows = None
        if route_key is not None:
            rows = _regions["incidence"].get(("incidence",) + route_key, None)
        if rows is None:
            rows = _walk_routes(policy, topology, src, dst, pair_weights)
        return summarize_routes(rows, len(src), topology)

    key = None if route_key is None else ("summary",) + route_key
    return _memo("summary", key, compute)
