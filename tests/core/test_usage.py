"""Unit tests for usage records, histograms, and the usage roll-up."""

import pytest

from repro.core.decay import ExponentialDecay, NoDecay
from repro.core.policy import PolicyTree
from repro.core.flat import FlatPolicy
from repro.core.usage import UsageHistogram, UsageRecord


class TestUsageRecord:
    def test_charge_is_core_seconds(self):
        r = UsageRecord(user="u", site="s", start=10.0, end=70.0, cores=4)
        assert r.charge == 240.0

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            UsageRecord(user="u", site="s", start=5.0, end=4.0)

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            UsageRecord(user="u", site="s", start=0.0, end=1.0, cores=0)


class TestUsageHistogram:
    def test_single_bin_accumulation(self):
        h = UsageHistogram(interval=60.0)
        h.add_charge("u", 0.0, 30.0)
        h.add_charge("u", 30.0, 60.0)
        assert h.total("u") == pytest.approx(60.0)
        assert h.user_bins("u") == {0: pytest.approx(60.0)}

    def test_charge_split_across_bins(self):
        h = UsageHistogram(interval=60.0)
        h.add_charge("u", 30.0, 90.0)
        bins = h.user_bins("u")
        assert bins[0] == pytest.approx(30.0)
        assert bins[1] == pytest.approx(30.0)

    def test_total_conserved_regardless_of_binning(self):
        for interval in (7.0, 60.0, 3600.0):
            h = UsageHistogram(interval=interval)
            h.add_charge("u", 13.0, 1042.0, cores=3)
            assert h.total("u") == pytest.approx((1042.0 - 13.0) * 3)

    def test_zero_duration_is_noop(self):
        h = UsageHistogram()
        h.add_charge("u", 5.0, 5.0)
        assert h.total("u") == 0.0
        assert h.users == []

    def test_add_record(self):
        h = UsageHistogram(interval=100.0)
        h.add_record(UsageRecord(user="u", site="s", start=0.0, end=50.0, cores=2))
        assert h.total("u") == 100.0

    def test_decayed_total_uses_bin_midpoints(self):
        h = UsageHistogram(interval=100.0)
        h.add_charge("u", 0.0, 100.0)  # bin 0, midpoint 50
        decay = ExponentialDecay(half_life=50.0)
        # age at now=100 is 50 => weight 0.5
        assert h.decayed_total("u", now=100.0, decay=decay) == pytest.approx(50.0)

    def test_decayed_total_no_decay_equals_total(self):
        h = UsageHistogram(interval=10.0)
        h.add_charge("u", 0.0, 95.0)
        assert h.decayed_total("u", now=1000.0, decay=NoDecay()) == pytest.approx(95.0)

    def test_decayed_total_unknown_user_is_zero(self):
        assert UsageHistogram().decayed_total("ghost", now=0.0) == 0.0

    def test_decayed_totals_matches_per_user_totals(self):
        h = UsageHistogram(interval=100.0)
        h.add_charge("a", 0.0, 250.0)
        h.add_charge("b", 120.0, 480.0, cores=2)
        h.add_charge("c", 50.0, 60.0)
        decay = ExponentialDecay(half_life=200.0)
        totals = h.decayed_totals(now=500.0, decay=decay)
        assert set(totals) == {"a", "b", "c"}
        for user in totals:
            assert totals[user] == pytest.approx(
                h.decayed_total(user, now=500.0, decay=decay))

    def test_decayed_totals_empty_histogram(self):
        assert UsageHistogram().decayed_totals(now=0.0) == {}

    def test_snapshot_replace_roundtrip(self):
        h = UsageHistogram(interval=60.0)
        h.add_charge("a", 0.0, 120.0)
        h.add_charge("b", 30.0, 90.0)
        h2 = UsageHistogram(interval=60.0)
        h2.replace(h.snapshot())
        assert h2.total() == pytest.approx(h.total())
        assert h2.user_bins("a") == pytest.approx(h.user_bins("a"))

    def test_merge_adds_charges(self):
        h1 = UsageHistogram(interval=60.0)
        h1.add_charge("u", 0.0, 60.0)
        h2 = UsageHistogram(interval=60.0)
        h2.add_charge("u", 0.0, 30.0)
        h1.merge(h2)
        assert h1.total("u") == pytest.approx(90.0)

    def test_merge_interval_mismatch_rejected(self):
        with pytest.raises(ValueError):
            UsageHistogram(60.0).merge(UsageHistogram(30.0))

    def test_merged_classmethod(self):
        hs = []
        for i in range(3):
            h = UsageHistogram(interval=10.0)
            h.add_charge(f"u{i}", 0.0, 10.0)
            hs.append(h)
        merged = UsageHistogram.merged(hs)
        assert merged.total() == pytest.approx(30.0)
        assert len(merged.users) == 3

    def test_merged_requires_interval_or_source(self):
        with pytest.raises(ValueError):
            UsageHistogram.merged([])

    def test_negative_bin_charge_rejected(self):
        with pytest.raises(ValueError):
            UsageHistogram().add_bin("u", 0, -1.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            UsageHistogram(interval=0)


class TestChangeCursors:
    def test_add_charge_marks_touched_bins(self):
        h = UsageHistogram(interval=60.0)
        cur = h.register_cursor()
        h.add_charge("u", 30.0, 90.0)  # spans bins 0 and 1
        assert h.drain_cursor(cur) == {"u": {0, 1}}

    def test_drain_resets(self):
        h = UsageHistogram(interval=60.0)
        cur = h.register_cursor()
        h.add_charge("u", 0.0, 10.0)
        h.drain_cursor(cur)
        assert h.drain_cursor(cur) == {}

    def test_mutations_before_registration_invisible(self):
        h = UsageHistogram(interval=60.0)
        h.add_charge("u", 0.0, 10.0)
        cur = h.register_cursor()
        assert h.drain_cursor(cur) == {}

    def test_independent_cursors(self):
        h = UsageHistogram(interval=60.0)
        c1 = h.register_cursor()
        c2 = h.register_cursor()
        h.add_bin("a", 3, 5.0)
        assert h.drain_cursor(c1) == {"a": {3}}
        h.add_bin("b", 1, 1.0)
        assert h.drain_cursor(c1) == {"b": {1}}
        assert h.drain_cursor(c2) == {"a": {3}, "b": {1}}

    def test_released_cursor_stops_tracking(self):
        h = UsageHistogram(interval=60.0)
        cur = h.register_cursor()
        h.release_cursor(cur)
        h.add_bin("a", 0, 1.0)  # must not raise or leak

    def test_prune_marks_dropped_bins(self):
        h = UsageHistogram(interval=10.0)
        h.add_charge("u", 0.0, 10.0)
        cur = h.register_cursor()
        h.prune(now=1000.0, horizon=10.0)
        assert h.drain_cursor(cur) == {"u": {0}}

    def test_replace_marks_old_and_new_state(self):
        h = UsageHistogram(interval=10.0)
        h.add_bin("old", 2, 1.0)
        cur = h.register_cursor()
        h.replace({"new": {5: 3.0}})
        assert h.drain_cursor(cur) == {"old": {2}, "new": {5}}


class TestSetBin:
    def test_absolute_overwrite(self):
        h = UsageHistogram(interval=10.0)
        h.add_bin("u", 0, 5.0)
        h.set_bin("u", 0, 2.0)
        assert h.bin_value("u", 0) == 2.0

    def test_idempotent(self):
        h = UsageHistogram(interval=10.0)
        h.set_bin("u", 0, 2.0)
        h.set_bin("u", 0, 2.0)
        assert h.total("u") == 2.0

    def test_zero_deletes_bin_and_empty_user(self):
        h = UsageHistogram(interval=10.0)
        h.set_bin("u", 0, 2.0)
        h.set_bin("u", 0, 0.0)
        assert h.users == []
        assert h.n_bins() == 0

    def test_zero_on_absent_bin_is_noop(self):
        h = UsageHistogram(interval=10.0)
        cur = h.register_cursor()
        h.set_bin("u", 7, 0.0)
        assert h.drain_cursor(cur) == {}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UsageHistogram().set_bin("u", 0, -1.0)

    def test_marks_cursor(self):
        h = UsageHistogram(interval=10.0)
        cur = h.register_cursor()
        h.set_bin("u", 4, 1.0)
        assert h.drain_cursor(cur) == {"u": {4}}


class TestCompactArrays:
    def test_snapshot_arrays_roundtrip(self):
        h = UsageHistogram(interval=60.0)
        h.add_charge("a", 0.0, 120.0)
        h.add_charge("b", 30.0, 90.0)
        h2 = UsageHistogram(interval=60.0)
        h2.apply_arrays(*h.snapshot_arrays(), full=True)
        assert h2.snapshot() == h.snapshot()

    def test_user_names_spelled_once(self):
        h = UsageHistogram(interval=10.0)
        for b in range(5):
            h.add_bin("verylongusername", b, 1.0)
        user_table, user_idx, bin_idx, charges = h.snapshot_arrays()
        assert user_table == ["verylongusername"]
        assert user_idx == [0] * 5
        assert len(bin_idx) == len(charges) == 5

    def test_apply_delta_entries_in_place(self):
        h = UsageHistogram(interval=10.0)
        h.add_bin("a", 0, 5.0)
        h.apply_arrays(["a", "b"], [0, 1], [0, 2], [7.0, 3.0])
        assert h.bin_value("a", 0) == 7.0
        assert h.bin_value("b", 2) == 3.0

    def test_apply_zero_entry_deletes(self):
        h = UsageHistogram(interval=10.0)
        h.add_bin("a", 0, 5.0)
        h.apply_arrays(["a"], [0], [0], [0.0])
        assert h.users == []

    def test_full_apply_removes_unlisted_entries(self):
        h = UsageHistogram(interval=10.0)
        h.add_bin("gone", 0, 5.0)
        h.add_bin("kept", 1, 2.0)
        h.apply_arrays(["kept"], [0], [1], [4.0], full=True)
        assert h.users == ["kept"]
        assert h.bin_value("kept", 1) == 4.0


class TestNewestMidpoints:
    def test_newest_midpoint(self):
        h = UsageHistogram(interval=100.0)
        h.add_bin("u", 0, 1.0)
        h.add_bin("u", 4, 1.0)
        assert h.newest_midpoint("u") == pytest.approx(450.0)

    def test_unknown_user_is_none(self):
        assert UsageHistogram().newest_midpoint("ghost") is None

    def test_newest_midpoints_all_users(self):
        h = UsageHistogram(interval=10.0)
        h.add_bin("a", 2, 1.0)
        h.add_bin("b", 0, 1.0)
        assert h.newest_midpoints() == {"a": pytest.approx(25.0),
                                        "b": pytest.approx(5.0)}


def rolled_up(policy, usage):
    """The kernel's usage view: per-node usage and sibling usage shares."""
    result = FlatPolicy(policy).compute(usage)
    index = result.flat.path_index
    return ({p: float(result.usage[i]) for p, i in index.items()},
            {p: float(result.usage_share[i]) for p, i in index.items()},
            result)


class TestUsageTree:
    """How the kernel rolls leaf usage up the policy tree."""

    def test_roll_up_sums_children(self):
        policy = PolicyTree.from_dict({"g": {"u1": 1, "u2": 1}})
        usage, _, result = rolled_up(policy, {"/g/u1": 10.0, "/g/u2": 30.0})
        assert usage["/g"] == pytest.approx(40.0)
        assert result.group_usage_sum[result.flat.root_gid] == pytest.approx(40.0)

    def test_sibling_share(self):
        policy = PolicyTree.from_dict({"g": {"u1": 1, "u2": 1}})
        _, share, _ = rolled_up(policy, {"/g/u1": 10.0, "/g/u2": 30.0})
        assert share["/g/u1"] == pytest.approx(0.25)
        assert share["/g/u2"] == pytest.approx(0.75)

    def test_sibling_share_idle_group_is_zero(self):
        policy = PolicyTree.from_dict({"g": {"u1": 1, "u2": 1}})
        _, share, _ = rolled_up(policy, {"/g/u1": 0.0, "/g/u2": 0.0})
        assert share["/g/u1"] == 0.0

    def test_total_usage_share_is_product(self):
        policy = PolicyTree.from_dict({"a": {"x": 1, "y": 1}, "b": {"z": 1}})
        _, _, result = rolled_up(policy, {"/a/x": 30.0, "/a/y": 10.0,
                                          "/b/z": 60.0})
        _, usage_total = result.path_products()
        # a has 40% of total, x has 75% of a
        assert usage_total[result.flat.leaf_slot["/a/x"]] == \
            pytest.approx(0.4 * 0.75)


class TestBuildUsageTree:
    """How per-user usage keys land on policy leaves."""

    @pytest.fixture
    def policy(self) -> PolicyTree:
        return PolicyTree.from_dict({"g": (1, {"u1": 1, "u2": 1}), "solo": 1})

    def test_maps_by_leaf_path(self, policy):
        usage, _, _ = rolled_up(policy, {"/g/u1": 5.0})
        assert usage["/g/u1"] == 5.0

    def test_maps_by_leaf_name(self, policy):
        usage, _, _ = rolled_up(policy, {"u2": 7.0, "solo": 1.0})
        assert usage["/g/u2"] == 7.0
        assert usage["/solo"] == 1.0

    def test_unknown_users_ignored(self, policy):
        usage, _, _ = rolled_up(policy, {"ghost": 99.0, "/g": 5.0})
        assert sum(usage.values()) == 0.0

    def test_internal_nodes_rolled_up(self, policy):
        usage, _, _ = rolled_up(policy, {"u1": 1.0, "u2": 3.0})
        assert usage["/g"] == pytest.approx(4.0)

    def test_structure_mirrors_policy(self, policy):
        flat = FlatPolicy(policy)
        assert sorted(flat.leaf_paths) == sorted(l.path for l in policy.leaves())
        assert sorted(flat.paths) == sorted(n.path for n in policy.walk()
                                            if n.parent is not None)
