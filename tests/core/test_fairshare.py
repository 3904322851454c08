"""Unit tests for the fairshare computation (the flat kernel's semantics)."""

import numpy as np
import pytest

from repro.core.distance import FairshareParameters
from repro.core.flat import FlatPolicy, compute_fairshare_flat
from repro.core.policy import PolicyTree


@pytest.fixture
def flat_policy() -> PolicyTree:
    return PolicyTree.from_dict({"U65": 65.25, "U30": 30.49, "U3": 2.86, "Uoth": 1.40})


@pytest.fixture
def nested_policy() -> PolicyTree:
    return PolicyTree.from_dict({
        "HPC": (1, {"LQ": 1, "KAW": (1, {"u1": 1, "u2": 1})}),
        "SWE": 1,
    })


def node(result, path, column):
    """One node's value of a per-node array (``balance``, ``usage_share``...)."""
    return float(getattr(result, column)[result.flat.path_index[path]])


class TestFlatTree:
    def test_zero_usage_priorities_by_share(self, flat_policy):
        tree = compute_fairshare_flat(flat_policy, {})
        # p = k*s + (1-k)*1 with zero usage
        assert tree.node_priority("/U3") == pytest.approx(0.5 * (1 + 0.0286), rel=1e-3)
        assert tree.node_priority("/U65") > tree.node_priority("/U30") > \
            tree.node_priority("/U3")

    def test_balanced_usage_all_at_balance(self, flat_policy):
        usage = {"U65": 65.25, "U30": 30.49, "U3": 2.86, "Uoth": 1.40}
        tree = compute_fairshare_flat(flat_policy, usage)
        for path in tree.leaf_paths:
            assert node(tree, path, "balance") == pytest.approx(0.5, abs=1e-9)
            # at balance: p = k*0 + (1-k)*0.5 = 0.25
            assert tree.node_priority(path) == pytest.approx(0.25, abs=1e-9)

    def test_overserved_below_underserved(self, flat_policy):
        usage = {"U65": 10.0, "U30": 90.0}
        tree = compute_fairshare_flat(flat_policy, usage)
        assert tree.node_priority("/U30") < tree.node_priority("/U65")
        assert node(tree, "/U30", "balance") < 0.5 < node(tree, "/U65", "balance")

    def test_usage_share_normalized_within_group(self, flat_policy):
        usage = {"U65": 30.0, "U30": 10.0}
        tree = compute_fairshare_flat(flat_policy, usage)
        assert node(tree, "/U65", "usage_share") == pytest.approx(0.75)
        assert node(tree, "/U30", "usage_share") == pytest.approx(0.25)
        assert node(tree, "/U3", "usage_share") == 0.0


class TestNestedTree:
    def test_subgroup_isolation(self, nested_policy):
        """Changing usage inside /HPC/KAW must not move /HPC/LQ's or /SWE's
        node values at their own levels."""
        base = {"/HPC/LQ": 50.0, "/HPC/KAW/u1": 10.0, "/HPC/KAW/u2": 10.0,
                "/SWE": 70.0}
        changed = dict(base)
        changed["/HPC/KAW/u1"] = 0.1
        changed["/HPC/KAW/u2"] = 19.9  # group total preserved
        t1 = compute_fairshare_flat(nested_policy, base)
        t2 = compute_fairshare_flat(nested_policy, changed)
        assert node(t1, "/HPC/LQ", "balance") == pytest.approx(node(t2, "/HPC/LQ", "balance"))
        assert node(t1, "/SWE", "balance") == pytest.approx(node(t2, "/SWE", "balance"))
        assert node(t1, "/HPC/KAW/u1", "balance") != \
            pytest.approx(node(t2, "/HPC/KAW/u1", "balance"))

    def test_vector_depth_matches_path(self, nested_policy):
        tree = compute_fairshare_flat(nested_policy, {})
        assert tree.vector("/HPC/KAW/u1").depth == 3
        assert tree.vector("/SWE").depth == 1
        assert tree.vector("/HPC/KAW").depth == 2  # internal nodes too

    def test_vectors_returns_all_leaves(self, nested_policy):
        tree = compute_fairshare_flat(nested_policy, {})
        assert set(tree.vectors()) == {"/HPC/LQ", "/HPC/KAW/u1", "/HPC/KAW/u2", "/SWE"}

    def test_total_share_products(self, nested_policy):
        tree = compute_fairshare_flat(nested_policy, {})
        target_total, _ = tree.path_products()
        row = tree.flat.leaf_slot["/HPC/KAW/u1"]
        assert target_total[row] == pytest.approx(0.5 * 0.5 * 0.5)

    def test_usage_total_share_products(self, nested_policy):
        usage = {"/HPC/LQ": 10.0, "/HPC/KAW/u1": 10.0, "/SWE": 20.0}
        tree = compute_fairshare_flat(nested_policy, usage)
        # HPC has 50% of root usage; KAW 50% of HPC; u1 100% of KAW
        _, usage_total = tree.path_products()
        assert usage_total[tree.flat.leaf_slot["/HPC/KAW/u1"]] == pytest.approx(0.25)


class TestInputs:
    def test_usage_tree_and_mapping_are_exclusive(self, flat_policy):
        flat = FlatPolicy(flat_policy)
        with pytest.raises(ValueError):
            flat.compute({"U65": 1.0}, leaf_usage=np.zeros(flat.n_leaves))

    def test_explicit_usage_tree(self, flat_policy):
        """Usage as a dense per-leaf vector (leaf-row order)."""
        flat = FlatPolicy(flat_policy)
        leaf_usage = np.zeros(flat.n_leaves)
        leaf_usage[flat.leaf_slot["/U65"]] = 10.0
        tree = flat.compute(leaf_usage=leaf_usage)
        assert node(tree, "/U65", "usage_share") == pytest.approx(1.0)

    def test_usage_tree_missing_nodes_count_as_zero(self, nested_policy):
        tree = compute_fairshare_flat(nested_policy, {"/SWE": 5.0})
        assert node(tree, "/HPC", "usage_share") == 0.0

    def test_parameters_flow_through(self, flat_policy):
        params = FairshareParameters(k=1.0, resolution=99)
        tree = compute_fairshare_flat(flat_policy, {}, parameters=params)
        # k=1: priority is the absolute component only = share
        assert tree.node_priority("/U65") == pytest.approx(0.6525, rel=1e-3)
        assert tree.vector("/U65").resolution == 99

    def test_priorities_mapping(self, flat_policy):
        tree = compute_fairshare_flat(flat_policy, {})
        priorities = tree.priorities()
        assert set(priorities) == {"/U65", "/U30", "/U3", "/Uoth"}
