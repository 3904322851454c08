"""F3 — Figure 3: fairshare tree -> fairshare vectors.

The figure extracts per-user vectors (value range 0-9999) from a tree with
users at different depths; the path that ends early (/LQ) is padded with
the balance point (the center of the range).  We rebuild the figure's
structure and verify the extraction rules and the resulting ordering.
"""

import pytest

from repro.core.distance import FairshareParameters
from repro.core.flat import FlatPolicy
from repro.core.policy import PolicyTree
from repro.core.vector import FairshareVector


def build_vectors():
    # Figure 3 style: /LQ is a user directly under the root; /HPC and /SWE
    # are groups with users below them.
    policy = PolicyTree.from_dict({
        "LQ": 1,
        "HPC": (1, {"u1": 1, "u2": 1}),
        "SWE": (1, {"proj": (1, {"u3": 1})}),
    })
    usage = {"/LQ": 100.0, "/HPC/u1": 300.0, "/HPC/u2": 20.0,
             "/SWE/proj/u3": 80.0}
    params = FairshareParameters(k=0.5, resolution=9999)
    tree = FlatPolicy(policy).compute(usage, params)
    return tree, tree.vectors()


def test_fig3_vectors(benchmark, emit):
    tree, vectors = benchmark.pedantic(build_vectors, rounds=1, iterations=1)
    rows = []
    max_depth = max(v.depth for v in vectors.values())
    for path, vec in sorted(vectors.items()):
        padded = ".".join(f"{int(round(e)):04d}" for e in vec.padded(max_depth))
        rows.append(f"{path:<14} {padded}")
    emit("Figure 3 - fairshare vectors (resolution 0-9999)", rows)

    # vectors have one element per hierarchy level
    assert vectors["/LQ"].depth == 1
    assert vectors["/HPC/u1"].depth == 2
    assert vectors["/SWE/proj/u3"].depth == 3

    # the short path pads with the balance point = center of the range
    lq = vectors["/LQ"]
    assert lq.balance_point == pytest.approx(4999.5)
    assert lq.padded(3)[1:] == (4999.5, 4999.5)

    # elements live in the configured range
    for vec in vectors.values():
        for e in vec.elements:
            assert 0.0 <= e <= 9999.0

    # lexicographic ordering: underserved u2 ranks above overserved u1
    assert vectors["/HPC/u2"] > vectors["/HPC/u1"]

    # vector comparison across different depths works via padding
    ranking = sorted(vectors, key=lambda p: vectors[p], reverse=True)
    assert ranking.index("/HPC/u2") < ranking.index("/HPC/u1")
