"""Unit tests for the array-backed fairshare kernel (repro.core.flat).

The kernel must compute what the naive recursive reference in
``tests/oracle`` computes: every comparison below is against it, including
the three projections and the vectors of internal nodes.
"""

import numpy as np
import pytest

from repro.core.distance import FairshareParameters
from repro.core.flat import FlatPolicy, compute_fairshare_flat
from repro.core.policy import PolicyTree
from repro.core.projection import (
    BitwiseVectorProjection,
    DictionaryOrderingProjection,
    PercentalProjection,
    Projection,
)

from .. import oracle


@pytest.fixture
def nested_policy() -> PolicyTree:
    return PolicyTree.from_dict({
        "HPC": (1, {"LQ": 1, "KAW": (1, {"u1": 1, "u2": 1})}),
        "SWE": 1,
    })


def random_policy(rng, max_depth=4, max_children=5) -> PolicyTree:
    counter = [0]

    def build(depth):
        out = {}
        for _ in range(int(rng.integers(2, max_children + 1))):
            counter[0] += 1
            name = f"n{counter[0]}"
            if depth < max_depth and rng.random() < 0.5:
                out[name] = (int(rng.integers(1, 100)), build(depth + 1))
            else:
                out[name] = int(rng.integers(1, 100))
        return out

    return PolicyTree.from_dict(build(0))


class TestLayout:
    def test_sibling_groups_are_contiguous(self, nested_policy):
        flat = FlatPolicy(nested_policy)
        # every node's group segment must contain exactly its siblings
        starts = list(flat.group_start) + [flat.n_nodes]
        for gid in range(len(flat.group_start)):
            segment = range(starts[gid], starts[gid + 1])
            parents = {int(flat.parent[i]) for i in segment}
            assert len(parents) == 1

    def test_paths_and_leaves(self, nested_policy):
        flat = FlatPolicy(nested_policy)
        assert set(flat.paths) == {n.path for n in nested_policy.walk()
                                   if n.parent is not None}
        assert set(flat.leaf_paths) == set(nested_policy.leaf_paths())

    def test_leaf_levels_walk_root_to_leaf(self, nested_policy):
        flat = FlatPolicy(nested_policy)
        row = flat.leaf_slot["/HPC/KAW/u1"]
        path_nodes = [flat.paths[i] for i in flat.leaf_levels[row] if i >= 0]
        assert path_nodes == ["/HPC", "/HPC/KAW", "/HPC/KAW/u1"]

    def test_by_name_matches_preorder_first_wins(self):
        policy = PolicyTree.from_dict({"p1": {"sam": 1}, "p2": {"sam": 2}})
        flat = FlatPolicy(policy)
        assert flat.by_name["sam"] == "/p1/sam"
        assert flat.name_collisions == 1


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_trees_match_exactly(self, seed):
        rng = np.random.default_rng(seed)
        policy = random_policy(rng)
        usage = {p: float(int(rng.integers(0, 1000)))
                 for p in policy.leaf_paths() if rng.random() < 0.8}
        params = FairshareParameters(k=float(rng.choice([0.0, 0.3, 0.5, 1.0])))
        ref = oracle.fairshare(policy, usage, params)
        res = compute_fairshare_flat(policy, usage, params)
        flat = res.flat
        assert set(ref) == set(flat.paths)
        for node in ref.values():
            i = flat.path_index[node.path]
            assert res.target_share[i] == pytest.approx(node.target_share, abs=1e-12)
            assert res.usage_share[i] == pytest.approx(node.usage_share, abs=1e-12)
            assert res.priority[i] == pytest.approx(node.priority, abs=1e-12)
            assert res.balance[i] == pytest.approx(node.balance, abs=1e-12)

    @pytest.mark.parametrize("projection", [
        PercentalProjection(),
        DictionaryOrderingProjection(),
        BitwiseVectorProjection(),
        BitwiseVectorProjection(bits_per_level=8, max_levels=3),
    ])
    def test_projections_match_reference(self, projection):
        rng = np.random.default_rng(42)
        policy = random_policy(rng)
        usage = {p: float(int(rng.integers(0, 1000)))
                 for p in policy.leaf_paths()}
        ref = oracle.fairshare(policy, usage)
        res = compute_fairshare_flat(policy, usage)
        vectors = {n.path: oracle.vector(n) for n in ref.values() if n.is_leaf}
        if isinstance(projection, PercentalProjection):
            a = oracle.percental(ref)
        elif isinstance(projection, DictionaryOrderingProjection):
            a = oracle.dictionary(vectors)
        else:
            a = {path: oracle.bitwise(vec, projection.bits_per_level,
                                      projection.max_levels)
                 for path, vec in vectors.items()}
        b = projection.project_flat(res)
        assert set(a) == set(b)
        for path in a:
            assert b[path] == pytest.approx(a[path], abs=1e-12)

    def test_vectors_match_reference(self, nested_policy):
        usage = {"/HPC/LQ": 10.0, "/HPC/KAW/u1": 5.0, "/SWE": 30.0}
        ref = oracle.fairshare(nested_policy, usage)
        res = compute_fairshare_flat(nested_policy, usage)
        rv = {n.path: oracle.vector(n) for n in ref.values() if n.is_leaf}
        fv = res.vectors()
        assert set(rv) == set(fv)
        for path in rv:
            assert rv[path].depth == fv[path].depth
            assert fv[path].elements == pytest.approx(rv[path].elements, abs=1e-9)

    def test_to_tree_is_equivalent_view(self, nested_policy):
        """The oracle's object tree and the flat arrays are two views of
        one refresh: same nodes, same priorities, same vectors — internal
        nodes' vectors included."""
        usage = {"/HPC/KAW/u2": 7.0, "/SWE": 1.0}
        ref = oracle.fairshare(nested_policy, usage)
        res = compute_fairshare_flat(nested_policy, usage)
        assert sorted(ref) == sorted(res.flat.paths)
        assert res.priorities() == pytest.approx(
            {n.path: n.priority for n in ref.values() if n.is_leaf})
        for path in ("/HPC/KAW/u2", "/HPC/KAW", "/HPC"):
            assert res.vector(path).elements == \
                pytest.approx(oracle.vector(ref[path]).elements)

    def test_custom_projection_falls_back_via_view(self, nested_policy):
        """A projection implements only the array form; the dict view is
        derived from it in the base class."""

        class LeafCount(Projection):
            def project_flat_array(self, result):
                return np.full(len(result.leaf_paths),
                               1.0 / len(result.leaf_paths))

        res = compute_fairshare_flat(nested_policy, {})
        values = LeafCount().project_flat(res)
        assert values == {p: 0.25 for p in res.leaf_paths}


class TestUsageSemantics:
    def test_bare_names_and_paths_mix(self, nested_policy):
        # bare names resolve to the first leaf in pre-order
        ref = oracle.fairshare(nested_policy, {"u1": 5.0, "/SWE": 3.0})
        res = compute_fairshare_flat(nested_policy, {"u1": 5.0, "/SWE": 3.0})
        for node in ref.values():
            if node.is_leaf:
                assert res.priorities()[node.path] == \
                    pytest.approx(node.priority, abs=1e-12)

    def test_unknown_users_ignored(self, nested_policy):
        res = compute_fairshare_flat(nested_policy, {"ghost": 99.0})
        assert float(res.usage.sum()) == 0.0

    def test_empty_policy(self):
        res = compute_fairshare_flat(PolicyTree(), {})
        assert res.priorities() == {}
        assert PercentalProjection().project_flat(res) == {}
        assert DictionaryOrderingProjection().project_flat(res) == {}
        assert BitwiseVectorProjection().project_flat(res) == {}

    def test_recompute_reuses_compiled_policy(self, nested_policy):
        flat = FlatPolicy(nested_policy)
        r1 = flat.compute({"u1": 1.0})
        r2 = flat.compute({"u1": 2.0})
        assert r1.flat is r2.flat
        i = flat.path_index["/HPC/KAW/u1"]
        assert r1.usage[i] != r2.usage[i]
