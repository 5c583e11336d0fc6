"""Ablations: dragonfly routing policy and topology hardware cost.

Two §7 remarks quantified:

1. "in practice usually adaptive routing is used in dragonfly networks,
   which often results in even longer paths" — compared via Valiant
   routing's hop counts;
2. cost: the dragonfly exists to minimize optical links; the cost table
   shows what each Table-2 configuration pays per attached node.
"""

import numpy as np
import pytest

from repro.apps.registry import generate_trace
from repro.comm.matrix import matrix_from_trace
from repro.mapping.base import Mapping
from repro.routing import get_policy
from repro.topology.configs import TABLE2
from repro.topology.cost import CostModel, topology_cost

from _bench_utils import once, write_output


def valiant_comparison(app, ranks):
    trace = generate_trace(app, ranks)
    matrix = matrix_from_trace(trace)
    df = TABLE2[ranks].build_dragonfly()
    mapping = Mapping.consecutive(ranks, df.num_nodes)
    src = mapping.node_of(matrix.src)
    dst = mapping.node_of(matrix.dst)
    weights = matrix.packets.astype(np.float64)
    minimal = float((df.hops_array(src, dst) * weights).sum() / weights.sum())
    valiant = float(
        (get_policy("valiant", seed=0).hops_array(df, src, dst) * weights).sum()
        / weights.sum()
    )
    return minimal, valiant


@pytest.fixture(scope="module")
def routing_results():
    return {
        f"{app}@{ranks}": valiant_comparison(app, ranks)
        for app, ranks in [("AMG", 27), ("LULESH", 64), ("MOCFE", 64), ("BigFFT", 100)]
    }


def test_ablation_routing(benchmark, routing_results):
    data = once(benchmark, lambda: routing_results)
    lines = [f"{'workload':<14} {'minimal':>8} {'valiant':>8} {'ratio':>6}"]
    for label, (minimal, valiant) in data.items():
        lines.append(
            f"{label:<14} {minimal:>8.2f} {valiant:>8.2f} {valiant / minimal:>5.2f}x"
        )
    write_output("ablation_routing.txt", "\n".join(lines))


def test_valiant_longer_on_average(routing_results):
    """The paper's remark: non-minimal routing lengthens paths."""
    for label, (minimal, valiant) in routing_results.items():
        assert valiant > minimal, label


def test_valiant_bounded(routing_results):
    for label, (_, valiant) in routing_results.items():
        assert valiant <= 7.0, label  # two globals + detours + endpoints


# ------------------------------------------------------------------ cost


@pytest.fixture(scope="module")
def cost_table():
    model = CostModel()
    rows = {}
    for size in sorted(TABLE2):
        cfg = TABLE2[size]
        rows[size] = {
            "torus3d": topology_cost(cfg.build_torus(), model),
            "fattree": topology_cost(cfg.build_fat_tree(), model),
            "dragonfly": topology_cost(cfg.build_dragonfly(), model),
        }
    return rows


def test_cost_table(benchmark, cost_table):
    data = once(benchmark, lambda: cost_table)
    lines = [
        f"{'size':>6} | {'torus $/node':>12} {'ftree $/node':>13} "
        f"{'dfly $/node':>12} | {'ftree opt%':>10} {'dfly opt%':>10}"
    ]
    for size, row in data.items():
        lines.append(
            f"{size:>6} | {row['torus3d'].cost_per_node:>12.3f} "
            f"{row['fattree'].cost_per_node:>13.3f} "
            f"{row['dragonfly'].cost_per_node:>12.3f} | "
            f"{100 * row['fattree'].optical_share:>9.1f}% "
            f"{100 * row['dragonfly'].optical_share:>9.1f}%"
        )
    write_output("topology_cost.txt", "\n".join(lines))


def test_dragonfly_minimizes_optical_share(cost_table):
    """The dragonfly's design goal: fewer optical links than a multi-stage
    fat tree at comparable scale."""
    for size in (1000, 1024, 1152, 1728):
        row = cost_table[size]
        assert row["dragonfly"].optical_share < row["fattree"].optical_share

    # and in absolute terms per attached node
    big = cost_table[1728]
    dfly_optical_per_node = big["dragonfly"].optical_links / big["dragonfly"].num_nodes
    ftree_optical_per_node = big["fattree"].optical_links / big["fattree"].num_nodes
    assert dfly_optical_per_node < ftree_optical_per_node


def test_torus_has_no_optical_links(cost_table):
    for row in cost_table.values():
        assert row["torus3d"].optical_links == 0


def test_costs_positive_and_scale(cost_table):
    small = cost_table[8]["fattree"].cost
    large = cost_table[1728]["fattree"].cost
    assert 0 < small < large
