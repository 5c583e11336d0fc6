"""Every cache region's key changes exactly when its artifact does.

Each row below moves one declared input of one region's producer (and
every other input held at a small base query) and computes the region's
artifact on both sides from cold caches.  The key the producer looked the
artifact up under is read from :func:`repro.cache._memo`.  An artifact
that changes under an unchanged key is an alias: two inputs would share
one entry, and the second would read the first's artifact.  No row may
show one.  A key that changes while the artifact does not is a redundant
key input: it costs a miss, never a wrong answer, and each such row is
declared ``"redundant"`` with its reason.  The ``model`` region has the
same property in ``tests/test_model_engine.py::TestResultMemo``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import cache
from repro.core.blocks import decoded_columns
from repro.core.communicator import Communicator
from repro.core.datatypes import MPIDatatype
from repro.core.events import CollectiveEvent, CollectiveOp, P2PEvent
from repro.core.trace import Trace
from repro.critpath import DEFAULT_PARAMS, LogGPParams, analyze_trace
from repro.mapping.base import Mapping
from repro.model.engine import analyze_network
from repro.topology.configs import build_topology
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D

from helpers import make_trace


@pytest.fixture(autouse=True)
def memo_calls(monkeypatch):
    """``[region, key, value]`` of every memo lookup, in call order."""
    calls: list[list] = []
    memo = cache._memo

    def recording(region, key, compute, *args, **kwargs):
        entry = [region, key, None]
        calls.append(entry)
        entry[2] = memo(region, key, compute, *args, **kwargs)
        return entry[2]

    monkeypatch.setattr(cache, "_memo", recording)
    cache.configure(disable_disk=True)
    cache.clear()
    yield calls
    cache.clear()


def _bits(value):
    """A comparable form of an artifact: arrays by dtype, shape and bytes,
    floats by ``float.hex``, dataclasses by their fields (so provenance,
    which rides outside them, never counts)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Trace):
        columns = decoded_columns(value.blocks())
        return (
            _bits(value.meta),
            tuple(
                (name, column.tolist() if column.dtype == object else _bits(column))
                for name, column in columns.items()
            ),
            tuple(
                (dtype, value.datatypes.size_of(dtype))
                for dtype in sorted(set(columns["dtype"].tolist()))
            ),
            tuple(
                (name, tuple(value.communicators.get(name).members))
                for name in value.communicators.names()
            ),
        )
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    return value


def _lookup(calls: list[list], region: str, run, query: dict):
    """``(key, artifact bits)`` of the first ``region`` lookup ``run(query)``
    makes from cold caches."""
    cache.clear()
    calls.clear()
    run(query)
    region_key, value = next((k, v) for r, k, v in calls if r == region)
    assert region_key is not None, f"{region} lookup bypassed"
    return region_key, _bits(value)


def _outcome(calls, region: str, run, base: dict, one: dict, other: dict) -> str:
    key_a, bits_a = _lookup(calls, region, run, {**base, **one})
    key_b, bits_b = _lookup(calls, region, run, {**base, **other})
    if bits_a != bits_b:
        return "differs" if key_a != key_b else "alias"
    return "redundant" if key_a != key_b else "same"


def _cases(rows):
    return pytest.mark.parametrize(
        "one, other, expect",
        [row[:3] for row in rows],
        ids=[f"{i}-{row[3]}" for i, row in enumerate(rows)],
    )


# ------------------------------------------------------------ traces


def _foreign_trace(row_size: int, sub_members: tuple[int, ...]) -> Trace:
    """Identical records; only the tables the records resolve against vary."""
    trace = make_trace(4)
    trace.datatypes.commit(MPIDatatype("ROW_T", row_size, derived=True))
    trace.communicators.add(Communicator("SUB", sub_members))
    trace.add(P2PEvent(caller=0, peer=1, count=10, dtype="ROW_T"))
    trace.add(
        CollectiveEvent(
            caller=0, op=CollectiveOp.BCAST, count=100, dtype="MPI_BYTE", comm="SUB"
        )
    )
    return trace


def _trace(q: dict):
    if "foreign" in q:
        return _foreign_trace(*q["foreign"])
    return cache.cached_trace(
        q["app"], q["ranks"], variant=q["variant"], seed=q["seed"],
        emit_receives=q["emit_receives"],
    )


TRACE = {
    "app": "AMR_Miniapp", "ranks": 64, "variant": "", "seed": 0,
    "emit_receives": False,
}

TRACE_ROWS = [
    ({}, {"app": "LULESH"}, "differs", "app"),
    ({"app": "AMG", "ranks": 8}, {"app": "AMG", "ranks": 27}, "differs", "ranks"),
    ({"app": "LULESH"}, {"app": "LULESH", "variant": "b"}, "differs", "variant"),
    ({}, {"seed": 1}, "differs", "seed"),
    # AMG's generator draws no random numbers.
    ({"app": "AMG", "ranks": 8}, {"app": "AMG", "ranks": 8, "seed": 1}, "redundant", "seed-free"),
    ({}, {"emit_receives": True}, "differs", "emit_receives"),
]


@_cases(TRACE_ROWS)
def test_trace_key(memo_calls, one, other, expect):
    assert _outcome(memo_calls, "trace", _trace, TRACE, one, other) == expect


# ------------------------------------------------------------ matrices


MATRIX = {
    **TRACE, "include_p2p": True, "include_collectives": True, "payload": 4096,
    "collective": "flat",
}


def _matrix(q: dict):
    return cache.cached_matrix(
        _trace(q), include_p2p=q["include_p2p"],
        include_collectives=q["include_collectives"], payload=q["payload"],
        collective=q["collective"],
    )


MATRIX_ROWS = [
    ({}, {"include_p2p": False}, "differs", "include_p2p"),
    ({}, {"include_collectives": False}, "differs", "include_collectives"),
    ({}, {"payload": 1024}, "differs", "payload"),
    ({}, {"collective": "binomial"}, "differs", "collective"),
    ({}, {"seed": 1}, "differs", "trace"),
    ({"foreign": (8, (0, 1))}, {"foreign": (64, (0, 1))}, "differs", "datatypes"),
    ({"foreign": (8, (0, 1))}, {"foreign": (8, (0, 2, 3))}, "differs", "communicators"),
    ({"foreign": (8, (0, 1))}, {"foreign": (8, (0, 1))}, "same", "foreign-equal"),
]


@_cases(MATRIX_ROWS)
def test_matrix_key(memo_calls, one, other, expect):
    assert _outcome(memo_calls, "matrix", _matrix, MATRIX, one, other) == expect


# ------------------------------------------------------------ mappings


#: A topology as ``(class, constructor arguments)``.
TOPOLOGY = {"topology": (Torus3D, ((4, 4, 4),))}

MAPPING = {**MATRIX, **TOPOLOGY, "method": "greedy", "mapping_seed": 0}


def _topology(q: dict):
    cls, args = q["topology"]
    return cls(*args)


def _mapping(q: dict):
    return cache.cached_mapping(
        _matrix(q), _topology(q), method=q["method"], seed=q["mapping_seed"]
    )


def _slots(q: dict):
    return cache._cached_slots(_matrix(q), q["method"])


MAPPING_ROWS = [
    ({}, {"method": "spectral"}, "differs", "method"),
    ({}, {"method": "bisection"}, "differs", "method"),
    ({}, {"seed": 1}, "differs", "matrix"),
    # Greedy orders by bytes; the payload moves packet counts only.
    ({}, {"payload": 1024}, "redundant", "payload"),
    ({}, {"topology": (Torus3D, ((4, 4, 8),))}, "differs", "topology-params"),
    ({}, {"topology": (FatTree, (16, 2))}, "differs", "topology-class"),
    # Mesh3D places slots along the same snake as Torus3D.
    ({}, {"topology": (Mesh3D, ((4, 4, 4),))}, "redundant", "mesh"),
    # Slot assignments read no seed.
    ({}, {"mapping_seed": 1}, "redundant", "seed"),
]


@_cases(MAPPING_ROWS)
def test_mapping_key(memo_calls, one, other, expect):
    assert _outcome(memo_calls, "mapping", _mapping, MAPPING, one, other) == expect


SLOT_ROWS = [
    ({}, {"method": "spectral"}, "differs", "method"),
    ({}, {"method": "bisection"}, "differs", "method"),
    ({}, {"seed": 1}, "differs", "matrix"),
    ({}, {"payload": 1024}, "redundant", "payload"),
    ({}, {"topology": (FatTree, (16, 2))}, "same", "topology"),
    ({}, {"mapping_seed": 1}, "same", "seed"),
]


@_cases(SLOT_ROWS)
def test_mapping_slots_key(memo_calls, one, other, expect):
    assert _outcome(memo_calls, "mapping", _slots, MAPPING, one, other) == expect


# ------------------------------------------------------------ node pairs


def _placement(q: dict):
    """The mapping of ``q["placement"]``: ``(kind, ranks per node, seed)``."""
    topology = _topology(q)
    kind, per_node, seed = q["placement"]
    if kind == "random":
        return Mapping.random(q["ranks"], topology.num_nodes, per_node, seed=seed)
    if kind == "consecutive":
        return Mapping.consecutive(q["ranks"], topology.num_nodes, per_node)
    return cache.cached_mapping(_matrix(q), topology, method=kind)


PAIRS = {**MATRIX, **TOPOLOGY, "placement": ("consecutive", 1, 0)}


def _pairs(q: dict):
    return cache.cached_node_pairs(_matrix(q), _placement(q))


PAIRS_ROWS = [
    ({}, {"payload": 1024}, "differs", "payload"),
    ({}, {"collective": "binomial"}, "differs", "collective"),
    ({}, {"include_collectives": False}, "differs", "include_collectives"),
    ({}, {"placement": ("consecutive", 2, 0)}, "differs", "ranks-per-node"),
    ({}, {"placement": ("random", 1, 0)}, "differs", "random"),
    ({"placement": ("random", 1, 0)}, {"placement": ("random", 1, 1)}, "differs", "random-seed"),
    ({}, {"placement": ("greedy", 1, 0)}, "differs", "greedy"),
]


@_cases(PAIRS_ROWS)
def test_node_pairs_key(memo_calls, one, other, expect):
    assert _outcome(memo_calls, "pairs", _pairs, PAIRS, one, other) == expect


# ------------------------------------------------------------ routes


def _query_pairs(kind: str):
    """Crossing node pairs of AMR_Miniapp@64 under a consecutive mapping:
    ``"base"``, or one more pair (``"extra"``)."""
    matrix = cache.cached_matrix(cache.cached_trace("AMR_Miniapp", 64))
    src, dst = matrix.src.astype(np.int64), matrix.dst.astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if kind == "extra":
        src, dst = np.append(src, 0), np.append(dst, 63)
    return src, dst


ROUTE = {
    "topology": (Torus3D, ((4, 4, 4),)), "routing": "minimal", "routing_seed": 0,
    "weights": None, "pairs": "base",
}


def _weights(kind, n: int):
    """Per-pair weights: none, uniform, or one pair far heavier."""
    if kind is None:
        return None
    weights = np.ones(n)
    if kind == "skewed":
        weights[: n // 2] = 1e9
    return weights


def _route_query(producer):
    def run(q: dict):
        src, dst = _query_pairs(q["pairs"])
        return producer(
            _topology(q), src, dst, routing=q["routing"], seed=q["routing_seed"],
            pair_weights=_weights(q["weights"], len(src)),
        )

    return run


DRAGONFLY = {"topology": (Dragonfly, (4, 2, 2))}
FATTREE = {"topology": (FatTree, (8, 3))}
UGAL = {**DRAGONFLY, "routing": "ugal", "weights": "uniform"}

ROUTE_ROWS = [
    ({}, {"topology": (Mesh3D, ((4, 4, 4),))}, "differs", "mesh"),
    ({}, {"topology": (Torus3D, ((4, 4, 8),))}, "differs", "torus-params"),
    ({}, {"topology": (FatTree, (16, 2))}, "differs", "fattree"),
    ({"topology": (FatTree, (16, 2))}, {"topology": (FatTree, (8, 3))}, "differs", "fattree-params"),
    ({}, DRAGONFLY, "differs", "dragonfly"),
    (DRAGONFLY, {"topology": (Dragonfly, (4, 2, 3))}, "differs", "dragonfly-params"),
    ({}, {"routing": "valiant"}, "differs", "valiant"),
    ({"routing": "valiant"}, {"routing": "valiant", "routing_seed": 1}, "differs", "valiant-seed"),
    # Minimal routing draws no random numbers, and its token has no seed.
    ({}, {"routing_seed": 1}, "same", "minimal-seed"),
    (FATTREE, {**FATTREE, "routing": "ecmp"}, "differs", "ecmp"),
    ({**FATTREE, "routing": "ecmp"}, {**FATTREE, "routing": "ecmp", "routing_seed": 1}, "differs", "ecmp-seed"),
    # The fat tree's own routing is d-mod-k (repro.routing.dmodk).
    (FATTREE, {**FATTREE, "routing": "dmodk"}, "redundant", "dmodk"),
    (DRAGONFLY, UGAL, "differs", "ugal"),
    (UGAL, {**UGAL, "weights": "skewed"}, "differs", "ugal-weights"),
    # Oblivious routing never reads the weights, and they stay out of its key.
    ({}, {"weights": "skewed"}, "same", "oblivious-weights"),
    ({}, {"pairs": "extra"}, "differs", "pairs"),
]


@_cases(ROUTE_ROWS)
def test_route_incidence_key(memo_calls, one, other, expect):
    run = _route_query(cache.cached_route_incidence)
    assert _outcome(memo_calls, "incidence", run, ROUTE, one, other) == expect


#: Route rows whose summaries do not move: every upward lane of a fat tree
#: gives a pair the same hop count, and this query uses as many links.
SAME_SUMMARY = {"ecmp", "ecmp-seed"}


@_cases(ROUTE_ROWS)
def test_route_summary_key(memo_calls, one, other, expect, request):
    if request.node.callspec.id.split("-", 1)[1] in SAME_SUMMARY:
        expect = "redundant"
    run = _route_query(cache.cached_route_summary)
    assert _outcome(memo_calls, "summary", run, ROUTE, one, other) == expect


# ------------------------------------------------------------ query digests


DIGEST = {**PAIRS, "routing": "minimal"}


def _model_query(q: dict):
    return analyze_network(
        _matrix(q), _topology(q), mapping=_placement(q), routing=q["routing"]
    )


DIGEST_ROWS = [
    ({}, {"placement": ("random", 1, 0)}, "differs", "mapping"),
    ({}, {"collective": "binomial"}, "differs", "matrix"),
    # The digest covers the crossing node pairs (and, load-aware, their
    # bytes); the payload moves packet counts only.
    ({}, {"payload": 1024}, "redundant", "payload"),
    ({**DRAGONFLY}, {**DRAGONFLY, "routing": "ugal"}, "differs", "load-aware"),
    ({**DRAGONFLY}, {**DRAGONFLY, "routing": "valiant"}, "same", "oblivious"),
]


@_cases(DIGEST_ROWS)
def test_query_digest_key(memo_calls, one, other, expect):
    assert _outcome(memo_calls, "digests", _model_query, DIGEST, one, other) == expect


# ------------------------------------------------------------ critical paths


CRITPATH = {**TRACE, "max_repeat": 4, "collective": "flat"}


def _dag(q: dict):
    return cache.cached_critpath_dag(
        _trace(q), max_repeat=q["max_repeat"], collective=q["collective"]
    )


CRITPATH_ROWS = [
    ({}, {"max_repeat": 8}, "differs", "max_repeat"),
    ({}, {"collective": "binomial"}, "differs", "collective"),
    ({}, {"seed": 1}, "differs", "trace"),
    # The DAG synthesizes the receives a trace leaves out.
    ({}, {"emit_receives": True}, "redundant", "emit_receives"),
]


@_cases(CRITPATH_ROWS)
def test_critpath_dag_key(memo_calls, one, other, expect):
    assert _outcome(memo_calls, "critpath", _dag, CRITPATH, one, other) == expect


RESULT = {
    **CRITPATH, "app": "AMG", "ranks": 8, "topology": (Torus3D, ((2, 2, 4),)),
    "placement": ("consecutive", 1, 0), "routing": "valiant", "routing_seed": 0,
    "params": DEFAULT_PARAMS, "fd_check": True,
}


def _critpath(q: dict):
    topology = None if q["topology"] is None else _topology(q)
    return analyze_trace(
        _trace(q), topology=topology,
        mapping=None if topology is None else _placement(q),
        routing=q["routing"], routing_seed=q["routing_seed"], params=q["params"],
        max_repeat=q["max_repeat"], fd_check=q["fd_check"],
        collective=q["collective"],
    )


RESULT_ROWS = [
    ({}, {"max_repeat": 8}, "differs", "max_repeat"),
    ({}, {"collective": "binomial"}, "differs", "collective"),
    ({}, {"params": LogGPParams(latency_s=2.0**-18)}, "differs", "params"),
    ({}, {"fd_check": False}, "differs", "fd_check"),
    ({}, {"topology": (Mesh3D, ((2, 2, 4),))}, "differs", "mesh"),
    ({}, {"topology": (Torus3D, ((2, 4, 2),))}, "differs", "topology-params"),
    ({}, {"topology": None}, "differs", "no-topology"),
    ({}, {"placement": ("random", 1, 0)}, "differs", "mapping"),
    ({}, {"routing": "minimal"}, "differs", "routing"),
    ({}, {"routing_seed": 1}, "differs", "routing-seed"),
]


@_cases(RESULT_ROWS)
def test_critpath_result_key(memo_calls, one, other, expect):
    assert (
        _outcome(memo_calls, "critpath_result", _critpath, RESULT, one, other)
        == expect
    )
