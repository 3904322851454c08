"""Property-based tests (hypothesis) for the core fairshare machinery."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import absolute_distance, balance_score, combined_priority, relative_distance
from repro.core.flat import compute_fairshare_flat
from repro.core.policy import PolicyTree
from repro.core.vector import FairshareVector

shares = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
usages = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
ks = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestDistanceProperties:
    @given(shares, usages)
    def test_absolute_distance_range(self, s, u):
        d = absolute_distance(s, u)
        assert 0.0 <= d <= s

    @given(shares, usages)
    def test_relative_distance_range(self, s, u):
        assert 0.0 <= relative_distance(s, u) <= 1.0

    @given(shares, usages, usages, ks)
    def test_priority_monotone_in_usage(self, s, u1, u2, k):
        """More usage never raises priority (at fixed share)."""
        lo, hi = min(u1, u2), max(u1, u2)
        assert combined_priority(s, hi, k) <= combined_priority(s, lo, k) + 1e-12

    @given(shares, shares, usages, ks)
    def test_priority_monotone_in_share(self, s1, s2, u, k):
        """More entitlement never lowers priority (at fixed usage)."""
        lo, hi = min(s1, s2), max(s1, s2)
        assert combined_priority(hi, u, k) >= combined_priority(lo, u, k) - 1e-12

    @given(shares, usages, ks)
    def test_balance_score_unit_range(self, s, u, k):
        assert 0.0 <= balance_score(s, u, k) <= 1.0

    @given(st.floats(min_value=1e-6, max_value=1.0), ks)
    def test_balance_score_center_at_balance(self, s, k):
        assert math.isclose(balance_score(s, s, k), 0.5, abs_tol=1e-9)

    @given(shares, usages, usages, ks)
    def test_balance_score_monotone_in_usage(self, s, u1, u2, k):
        lo, hi = min(u1, u2), max(u1, u2)
        assert balance_score(s, hi, k) <= balance_score(s, lo, k) + 1e-12


elements = st.lists(st.floats(min_value=0.0, max_value=9999.0,
                              allow_nan=False), min_size=1, max_size=6)


class TestVectorProperties:
    @given(elements, elements)
    def test_comparison_antisymmetric(self, a, b):
        va, vb = FairshareVector(a), FairshareVector(b)
        assert (va < vb) == (vb > va)
        assert (va == vb) == (vb == va)

    @given(elements, elements, elements)
    def test_comparison_transitive(self, a, b, c):
        va, vb, vc = (FairshareVector(x) for x in (a, b, c))
        if va <= vb and vb <= vc:
            assert va <= vc

    @given(elements)
    def test_trailing_balance_padding_invisible(self, a):
        va = FairshareVector(a)
        padded = FairshareVector(list(a) + [va.balance_point])
        assert va == padded
        assert hash(va) == hash(padded)

    @given(elements, st.integers(min_value=0, max_value=4))
    def test_padding_preserves_prefix(self, a, extra):
        v = FairshareVector(a)
        padded = v.padded(v.depth + extra)
        assert padded[:v.depth] == v.elements
        assert all(x == v.balance_point for x in padded[v.depth:])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=1, max_size=5))
    def test_from_scores_roundtrip(self, scores):
        v = FairshareVector.from_scores(scores)
        for got, want in zip(v.scores(), scores):
            assert math.isclose(got, want, abs_tol=1e-12)


user_weights = st.dictionaries(
    st.sampled_from([f"u{i}" for i in range(6)]),
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    min_size=2, max_size=6)
user_usages = st.dictionaries(
    st.sampled_from([f"u{i}" for i in range(6)]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=0, max_size=6)


class TestFairshareTreeProperties:
    @settings(max_examples=50)
    @given(user_weights, user_usages)
    def test_target_shares_sum_to_one(self, weights, usage):
        policy = PolicyTree.from_dict(dict(weights))
        tree = compute_fairshare_flat(policy, dict(usage))
        total = sum(tree.target_share[tree.flat.leaf_index])
        assert math.isclose(total, 1.0, rel_tol=1e-9)

    @settings(max_examples=50)
    @given(user_weights, user_usages)
    def test_usage_shares_sum_to_at_most_one(self, weights, usage):
        policy = PolicyTree.from_dict(dict(weights))
        tree = compute_fairshare_flat(policy, dict(usage))
        total = sum(tree.usage_share[tree.flat.leaf_index])
        assert total <= 1.0 + 1e-9

    @settings(max_examples=50)
    @given(user_weights, user_usages)
    def test_balances_in_unit_range(self, weights, usage):
        policy = PolicyTree.from_dict(dict(weights))
        tree = compute_fairshare_flat(policy, dict(usage))
        for balance in tree.balance[tree.flat.leaf_index]:
            assert 0.0 <= balance <= 1.0

    @settings(max_examples=50)
    @given(user_weights, user_usages)
    def test_zero_usage_user_dominates_its_usage_heavy_twin(self, weights, usage):
        """Among equal-weight users, one with no usage never ranks below
        one with usage."""
        weights = dict(weights)
        weights["idle"] = 1.0
        weights["busy"] = 1.0
        usage = dict(usage)
        usage.pop("idle", None)
        usage["busy"] = max(usage.get("busy", 0.0), 1.0)
        policy = PolicyTree.from_dict(weights)
        tree = compute_fairshare_flat(policy, usage)
        assert tree.node_priority("/idle") >= tree.node_priority("/busy")
