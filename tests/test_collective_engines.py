"""Pluggable collective-algorithm engines: registry, conservation, parity.

The flat engine is the paper's §4.4 expansion and must stay bit-identical
to the parameterless default.  The tree engines (binomial, ring,
recursive_doubling, bine) reshape the wire traffic but must conserve the
*delivered payload* exactly — per-member net-byte laws that hold for every
engine at every communicator size, including the awkward non-power-of-two
sizes with counts that do not divide evenly.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.cache import cached_trace
from repro.collectives import (
    COLLECTIVES,
    CollectiveAlgorithm,
    even_split,
    get_algorithm,
)
from repro.comm.matrix import matrix_from_trace
from repro.core.communicator import Communicator
from repro.core.events import CollectiveEvent, CollectiveOp
from repro.validation import REGISTRY
from repro.validation.invariants import matrices_identical

from oracles.collectives import expand_collective_tree, expand_event

ENGINES = COLLECTIVES
TREE_ENGINES = tuple(a for a in COLLECTIVES if a != "flat")
SIZES = (5, 6, 7, 12)  # non-powers-of-two; count=25 never divides evenly
COUNT = 25

ROOTED = (
    CollectiveOp.BCAST,
    CollectiveOp.SCATTER,
    CollectiveOp.SCATTERV,
    CollectiveOp.REDUCE,
    CollectiveOp.GATHER,
    CollectiveOp.GATHERV,
)

NON_BARRIER = tuple(op for op in CollectiveOp if op is not CollectiveOp.BARRIER)


def net_flows(algo, op, n, count=COUNT, root=0, counts=None):
    """Per-rank (inflow, outflow) over the union of every caller's expansion.

    Self-messages are excluded — they cancel in every net-delivery law and
    only the flat engine emits them.  ``counts`` overrides the per-caller
    contribution (heterogeneous GATHERV).
    """
    comm = Communicator.world(n)
    engine = get_algorithm(algo)
    inflow = np.zeros(n, dtype=np.int64)
    outflow = np.zeros(n, dtype=np.int64)
    for caller in range(n):
        c = count if counts is None else counts[caller]
        ev = CollectiveEvent(caller=caller, op=op, count=c, root=root)
        for g in expand_event(engine, ev, comm, 1):
            for dst, size in zip(g.dsts, g.bytes_per_msg):
                if int(dst) == g.src:
                    continue
                outflow[g.src] += int(size) * g.calls
                inflow[int(dst)] += int(size) * g.calls
    return inflow, outflow


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_canonical_names(self):
        assert COLLECTIVES == (
            "flat",
            "binomial",
            "ring",
            "recursive_doubling",
            "bine",
        )

    @pytest.mark.parametrize("name", ENGINES)
    def test_resolves_by_name(self, name):
        engine = get_algorithm(name)
        assert isinstance(engine, CollectiveAlgorithm)
        assert engine.name == name

    def test_instance_passes_through(self):
        engine = get_algorithm("binomial")
        assert get_algorithm(engine) is engine

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown collective"):
            get_algorithm("nope")

    def test_cache_tokens_distinct(self):
        tokens = {get_algorithm(name).cache_token() for name in ENGINES}
        assert len(tokens) == len(ENGINES)


# ------------------------------------------------------- root validation


class TestRootValidation:
    def test_negative_root_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            CollectiveEvent(
                caller=0, op=CollectiveOp.BCAST, count=COUNT, root=-1
            )

    @pytest.mark.parametrize("algo", ENGINES)
    @pytest.mark.parametrize("bad_root", [8, 64])
    def test_per_event_rejects_out_of_range_root(self, algo, bad_root):
        comm = Communicator.world(8)
        engine = get_algorithm(algo)
        ev = CollectiveEvent(
            caller=0, op=CollectiveOp.BCAST, count=COUNT, root=bad_root
        )
        with pytest.raises(ValueError) as err:
            expand_event(engine, ev, comm, 1)
        message = str(err.value)
        assert str(bad_root) in message
        assert "MPI_Bcast" in message

    @pytest.mark.parametrize("algo", ENGINES)
    def test_batch_rejects_out_of_range_root(self, algo):
        comm = Communicator.world(8)
        engine = get_algorithm(algo)
        n = comm.size
        with pytest.raises(ValueError, match="out of range"):
            engine.expand_batch(
                CollectiveOp.SCATTER,
                comm,
                np.arange(n, dtype=np.int64),
                np.full(n, COUNT, dtype=np.int64),
                np.full(n, n, dtype=np.int64),  # == comm.size, one past the end
                np.ones(n, dtype=np.int64),
            )

    def test_tree_path_rejects_out_of_range_root(self):
        comm = Communicator.world(8)
        ev = CollectiveEvent(
            caller=0, op=CollectiveOp.GATHER, count=COUNT, root=9
        )
        with pytest.raises(ValueError, match="communicator-local"):
            expand_collective_tree(ev, comm, 1)

    @pytest.mark.parametrize("algo", ENGINES)
    def test_unrooted_ops_ignore_root_field(self, algo):
        comm = Communicator.world(8)
        n = comm.size
        batches = get_algorithm(algo).expand_batch(
            CollectiveOp.ALLREDUCE,
            comm,
            np.arange(n, dtype=np.int64),
            np.full(n, COUNT, dtype=np.int64),
            np.full(n, 99, dtype=np.int64),
            np.ones(n, dtype=np.int64),
        )
        assert batches


# --------------------------------------------------- byte conservation


class TestByteConservation:
    """Net delivered payload is engine-independent for every rooted op."""

    @pytest.mark.parametrize("algo", ENGINES)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("root", [0, 2])
    def test_bcast_delivers_count_to_every_nonroot(self, algo, n, root):
        inflow, _ = net_flows(algo, CollectiveOp.BCAST, n, root=root)
        expected = np.full(n, COUNT, dtype=np.int64)
        expected[root] = inflow[root]  # the root's inflow is engine-free
        assert inflow[root] == 0
        assert np.array_equal(inflow, expected)

    @pytest.mark.parametrize("algo", ENGINES)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("root", [0, 2])
    def test_scatter_net_delivery(self, algo, n, root):
        inflow, outflow = net_flows(algo, CollectiveOp.SCATTER, n, root=root)
        net = inflow - outflow
        for m in range(n):
            if m == root:
                assert net[m] == -(n - 1) * COUNT
            else:
                assert net[m] == COUNT

    @pytest.mark.parametrize("algo", ENGINES)
    @pytest.mark.parametrize("n", SIZES)
    def test_scatterv_remainder_conserved(self, algo, n):
        # count=25 is the TOTAL at the root; 25 % n != 0 for every n here,
        # so a naive count//n per-subtree split loses the remainder.
        inflow, outflow = net_flows(algo, CollectiveOp.SCATTERV, n)
        shares = even_split(COUNT, n)
        net = inflow - outflow
        assert net[0] == -(COUNT - shares[0])
        assert np.array_equal(net[1:], shares[1:])

    @pytest.mark.parametrize("algo", ENGINES)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("root", [0, 2])
    def test_reduce_every_nonroot_forwards_result(self, algo, n, root):
        _, outflow = net_flows(algo, CollectiveOp.REDUCE, n, root=root)
        for m in range(n):
            if m != root:
                assert outflow[m] == COUNT

    @pytest.mark.parametrize("algo", ENGINES)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("root", [0, 2])
    def test_gather_net_delivery(self, algo, n, root):
        inflow, outflow = net_flows(algo, CollectiveOp.GATHER, n, root=root)
        net = outflow - inflow
        for m in range(n):
            if m == root:
                assert net[m] == -(n - 1) * COUNT
            else:
                assert net[m] == COUNT

    @pytest.mark.parametrize("algo", ENGINES)
    @pytest.mark.parametrize("n", SIZES)
    def test_gatherv_heterogeneous_exact(self, algo, n):
        counts = [10 + 3 * caller for caller in range(n)]
        inflow, outflow = net_flows(
            algo, CollectiveOp.GATHERV, n, counts=counts
        )
        net = outflow - inflow
        assert net[0] == -sum(counts[1:])
        assert np.array_equal(net[1:], np.asarray(counts[1:]))


class TestScattervRegressions:
    """The exact totals that used to lose the remainder in the tree path."""

    @pytest.mark.parametrize("total", [24, 56])
    @pytest.mark.parametrize("n", [5, 7])
    def test_binomial_delivers_every_byte(self, total, n):
        inflow, outflow = net_flows(
            "binomial", CollectiveOp.SCATTERV, n, count=total
        )
        shares = even_split(total, n)
        assert (outflow[0] - inflow[0]) == total - shares[0]
        assert inflow.sum() == outflow.sum()  # nothing created or lost
        assert np.array_equal((inflow - outflow)[1:], shares[1:])


# ------------------------------------------------ batch/per-event parity
#
# The per-event side is ``tests/oracles/collectives.py``: each engine's
# schedule read one caller record at a time, flat where it has none.


def batch_multiset(engine, op, n, count=COUNT, root=0):
    comm = Communicator.world(n)
    out = {}
    batches = engine.expand_batch(
        op,
        comm,
        np.arange(n, dtype=np.int64),
        np.full(n, count, dtype=np.int64),
        np.full(n, root, dtype=np.int64),
        np.ones(n, dtype=np.int64),
    )
    for src, dst, nbytes, calls in batches:
        for s, d, b, c in zip(src, dst, nbytes, calls):
            key = (int(s), int(d), int(b))
            out[key] = out.get(key, 0) + int(c)
    return out


def per_event_multiset(expand, op, n, count=COUNT, root=0):
    """``(src, dst, bytes) -> calls`` over every caller's ``expand`` groups."""
    comm = Communicator.world(n)
    out = {}
    for caller in range(n):
        ev = CollectiveEvent(caller=caller, op=op, count=count, root=root)
        for g in expand(ev, comm, 1):
            for dst, size in zip(g.dsts, g.bytes_per_msg):
                key = (g.src, int(dst), int(size))
                out[key] = out.get(key, 0) + g.calls
    return out


class TestBatchParity:
    @pytest.mark.parametrize("algo", ENGINES)
    @pytest.mark.parametrize("op", NON_BARRIER, ids=lambda op: op.value)
    @pytest.mark.parametrize("n", [5, 8])
    def test_batch_equals_per_event_multiset(self, algo, op, n):
        engine = get_algorithm(algo)
        assert batch_multiset(engine, op, n) == per_event_multiset(
            functools.partial(expand_event, engine), op, n
        )


class TestBinomialOracle:
    """The binomial engine sends what the per-event tree expansion sends."""

    @pytest.mark.parametrize("op", NON_BARRIER, ids=lambda op: op.value)
    def test_engine_matches_tree_expansion(self, op):
        engine = get_algorithm("binomial")
        for n in range(1, 20):
            for root in sorted({0, n // 2, n - 1}):
                assert batch_multiset(engine, op, n, root=root) == (
                    per_event_multiset(expand_collective_tree, op, n, root=root)
                ), (n, root)


# --------------------------------------------------- trace-level checks


class TestTraceLevel:
    @pytest.fixture(scope="class")
    def trace(self):
        return cached_trace("AMR_Miniapp", 64)

    def test_flat_is_the_default(self, trace):
        assert matrices_identical(
            matrix_from_trace(trace),
            matrix_from_trace(trace, collective="flat"),
        )

    @pytest.mark.parametrize("algo", TREE_ENGINES)
    def test_tree_engines_change_the_matrix(self, trace, algo):
        flat = matrix_from_trace(trace, collective="flat")
        tree = matrix_from_trace(trace, collective=algo)
        assert not matrices_identical(flat, tree)

    @pytest.mark.parametrize("algo", ("binomial", "ring", "bine"))
    def test_critpath_dag_stays_acyclic(self, trace, algo):
        from repro.critpath import analyze_trace

        result = analyze_trace(
            trace, max_repeat=4, fd_check=False, collective=algo
        )
        assert result.collective == algo
        assert result.nodes > 0

    def test_conservation_invariant_registered(self):
        assert "collective-byte-conservation" in REGISTRY


# --------------------------------------------------------- sweep axis


class TestSweepAxis:
    def make_spec(self, collectives):
        from repro.analysis.sweep import SweepSpec

        return SweepSpec(
            apps=(("halo3d", 8),),
            topologies=("torus3d",),
            mappings=("consecutive",),
            payloads=(256,),
            routings=("minimal",),
            collectives=collectives,
        )

    def test_points_carry_the_collective_field(self):
        spec = self.make_spec(("flat", "binomial"))
        points = spec.points()
        assert spec.num_points == len(points) == 2
        assert {p[6] for p in points} == {"flat", "binomial"}

    def test_unknown_collective_rejected(self):
        with pytest.raises(ValueError, match="unknown collective"):
            self.make_spec(("flat", "nope"))

    def test_spec_roundtrips_through_cells(self):
        from repro.service.cells import spec_from_dict, spec_to_dict

        spec = self.make_spec(("flat", "ring"))
        assert spec_from_dict(spec_to_dict(spec)) == spec
