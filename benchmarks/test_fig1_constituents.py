"""F1 — Figure 1: the three fairshare constituents.

The figure shows policy tree x usage data -> per-node fairshare values
(absolute distance only, for simplicity).  We regenerate the computation on
a Figure-1-style hierarchy and check the arithmetic the figure annotates:
each node's value is its (normalized) policy share minus its usage share
within the sibling group.
"""

import pytest

from repro.core.distance import FairshareParameters
from repro.core.flat import FlatPolicy
from repro.core.policy import PolicyTree


def build_and_compute():
    policy = PolicyTree.from_dict({
        "HPC": (60, {"proj1": 3, "proj2": 1}),
        "GRID": (40, {"vo1": 1, "vo2": 1}),
    })
    usage = {"/HPC/proj1": 300.0, "/HPC/proj2": 100.0,
             "/GRID/vo1": 500.0, "/GRID/vo2": 100.0}
    # k=1: pure absolute distance, as in the Figure 1 illustration
    tree = FlatPolicy(policy).compute(usage, FairshareParameters(k=1.0))
    return policy, usage, tree


def test_fig1_constituents(benchmark, emit):
    policy, usage, tree = benchmark.pedantic(build_and_compute, rounds=1,
                                             iterations=1)
    index = tree.flat.path_index
    target = {p: float(tree.target_share[i]) for p, i in index.items()}
    share = {p: float(tree.usage_share[i]) for p, i in index.items()}
    rows = []
    for node in policy.walk():
        if node.parent is None:
            continue
        path = node.path
        rows.append(f"{path:<14} target={target[path]:.3f} "
                    f"usage={share[path]:.3f} "
                    f"abs-distance={target[path] - share[path]:+.3f}")
    emit("Figure 1 - fairshare constituents (absolute distance)", rows)

    # the figure's arithmetic: value = policy share - usage share, per group
    assert target["/HPC"] == pytest.approx(0.6)
    assert share["/HPC"] == pytest.approx(400.0 / 1000.0)
    assert target["/HPC/proj1"] == pytest.approx(0.75)
    assert share["/HPC/proj1"] == pytest.approx(0.75)  # exactly at balance
    # with k=1 the priority IS the clipped absolute distance
    assert tree.node_priority("/HPC/proj1") == pytest.approx(0.0)
    assert tree.node_priority("/GRID") == pytest.approx(0.0)  # overserved -> 0
    assert tree.node_priority("/HPC") == pytest.approx(0.2)

    # subgroup isolation: GRID's internal imbalance does not leak into HPC
    assert tree.node_priority("/HPC/proj2") == pytest.approx(0.0)
    assert tree.node_priority("/GRID/vo2") == pytest.approx(0.5 - 100.0 / 600.0)
