"""Property-based tests for the incremental refresh machinery (PR 7).

Three layers, each checked against its from-scratch computation:

* the policy edit journal + :meth:`FlatPolicy.recompile` splice chain —
  randomized edit schedules must end at the same compiled semantics as a
  fresh compile of the final tree;
* :meth:`FlatPolicy.compute_delta` — dirty-leaf updates chained over
  random usage churn must match a full kernel pass at 1e-9;
* the full UMS → FCS stack — after every step of a random job / weight /
  add / remove schedule a long-lived site must serve what a stack
  cold-started at that instant serves (``tests/conftest.py::cold_start``).

Plus the serve-plane invariant the PR promises: weight-only edits keep
the compiled layout (leaf row ids and leaf generation) intact.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import ExponentialDecay
from repro.core.flat import FlatPolicy
from repro.core.policy import PolicyEdit, PolicyError, PolicyTree, parse_policy
from repro.core.usage import UsageRecord
from repro.services.fcs import FairshareCalculationService
from repro.services.network import Network
from repro.services.pds import PolicyDistributionService
from repro.services.ums import UsageMonitoringService
from repro.services.uss import UsageStatisticsService
from repro.sim.engine import SimulationEngine

from ..conftest import cold_start

GROUPS = ["phys", "chem", "bio"]
USERS_PER_GROUP = 4


def base_policy() -> PolicyTree:
    policy = PolicyTree()
    for g, group in enumerate(GROUPS):
        policy.set_share(f"/{group}", float(g + 1))
        for i in range(USERS_PER_GROUP):
            policy.set_share(f"/{group}/{group}{i}", float(i + 1))
    return policy


# one randomized edit: (kind, group index, user index, weight)
edit_ops = st.tuples(
    st.sampled_from(["weight_group", "weight_user", "add_user", "remove",
                     "mount", "refresh_mount", "refresh_mount_noop",
                     "unmount"]),
    st.integers(min_value=0, max_value=len(GROUPS) - 1),
    st.integers(min_value=0, max_value=USERS_PER_GROUP + 2),
    st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
)


def apply_op(policy: PolicyTree, op) -> None:
    kind, g, i, w = op
    group = GROUPS[g]
    if kind == "weight_group":
        policy.set_share(f"/{group}", w)
    elif kind == "weight_user":
        policy.set_share(f"/{group}/{group}{i}", w)
    elif kind == "add_user":
        policy.set_share(f"/{group}/new{i}", w)
    elif kind == "remove":
        path = f"/{group}/{group}{i}"
        if policy.find(path) is not None:
            policy.remove_path(path)
    elif kind in ("mount", "refresh_mount", "refresh_mount_noop"):
        sub = parse_policy(f"/vo{i % 2} = {w!r}\n/vo{i % 2}/m{i} = 1\n")
        try:
            changed = policy.refresh_mount(f"/{group}/mnt", sub)
            if kind == "refresh_mount_noop":
                # grafting the identical subtree again must be a no-op
                rev = policy.revision
                assert policy.refresh_mount(f"/{group}/mnt",
                                            sub.copy()) is False
                assert policy.revision == rev
            del changed
        except PolicyError:
            try:
                policy.mount(f"/{group}/mnt", sub, source="remote")
            except PolicyError:
                pass  # mount point exists with non-mounted children
    elif kind == "unmount":
        try:
            policy.unmount(f"/{group}/mnt")
        except PolicyError:
            pass


def leaf_priorities(flat: FlatPolicy, usage):
    result = flat.compute(usage)
    pr = result.priority[flat.leaf_index]
    us = result.usage_share[flat.leaf_index]
    return dict(zip(flat.leaf_paths, zip(pr.tolist(), us.tolist())))


class TestRecompileEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(edit_ops, min_size=1, max_size=12),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_spliced_chain_matches_fresh_compile(self, ops, seed):
        """A maintained recompile chain ≡ compiling the final tree."""
        policy = base_policy()
        flat = FlatPolicy(policy)
        revision = policy.revision
        for op in ops:
            apply_op(policy, op)
            edits = policy.edits_since(revision)
            revision = policy.revision
            spliced = flat.recompile(policy, edits) \
                if edits is not None else None
            flat = spliced[0] if spliced is not None else FlatPolicy(policy)
        fresh = FlatPolicy(policy)
        rng = random.Random(seed)
        usage = {path: rng.uniform(0.0, 50.0) for path in fresh.leaf_paths}
        got = leaf_priorities(flat, usage)
        want = leaf_priorities(fresh, usage)
        assert set(got) == set(want)
        for path in want:
            for a, b in zip(got[path], want[path]):
                assert a == pytest.approx(b, abs=1e-9)
        # bare-name resolution must agree too (pre-order first wins)
        assert flat.by_name == fresh.by_name

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=len(GROUPS) - 1),
        st.integers(min_value=0, max_value=USERS_PER_GROUP - 1),
        st.floats(min_value=0.25, max_value=8.0, allow_nan=False)),
        min_size=1, max_size=8))
    def test_weight_only_edits_preserve_leaf_ids(self, tweaks):
        """Weight edits splice without layout change: same leaf rows."""
        policy = base_policy()
        flat = FlatPolicy(policy)
        before_paths = list(flat.leaf_paths)
        before_slots = dict(flat.leaf_slot)
        revision = policy.revision
        for g, i, w in tweaks:
            policy.set_share(f"/{GROUPS[g]}/{GROUPS[g]}{i}", w)
        edits = policy.edits_since(revision)
        spliced = flat.recompile(policy, edits)
        assert spliced is not None
        new_flat, info = spliced
        assert info["layout_changed"] is False
        assert list(new_flat.leaf_paths) == before_paths
        assert dict(new_flat.leaf_slot) == before_slots
        # and the spliced targets match a fresh compile exactly
        fresh = FlatPolicy(policy)
        usage = {path: 1.0 for path in fresh.leaf_paths}
        got = leaf_priorities(new_flat, usage)
        want = leaf_priorities(fresh, usage)
        for path in want:
            for a, b in zip(got[path], want[path]):
                assert a == pytest.approx(b, abs=1e-12)


class TestComputeDeltaEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10 ** 6),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        min_size=1, max_size=20),
        st.integers(min_value=0, max_value=2 ** 31))
    def test_delta_chain_matches_full_pass(self, churn, seed):
        policy = base_policy()
        flat = FlatPolicy(policy)
        rng = random.Random(seed)
        usage = {path: rng.uniform(0.0, 50.0) for path in flat.leaf_paths}
        result = flat.compute(usage)
        for pick, value in churn:
            path = flat.leaf_paths[pick % len(flat.leaf_paths)]
            usage[path] = value
            row = flat.leaf_slot[path]
            result = flat.compute_delta(result, [row], [value])
            full = flat.compute(usage)
            np.testing.assert_allclose(result.usage, full.usage, atol=1e-9)
            np.testing.assert_allclose(result.usage_share, full.usage_share,
                                       atol=1e-9)
            np.testing.assert_allclose(result.priority, full.priority,
                                       atol=1e-9)
            np.testing.assert_allclose(result.balance, full.balance,
                                       atol=1e-9)


def build_stack(histogram_interval=600.0):
    engine = SimulationEngine()
    network = Network(engine, base_latency=0.1)
    uss = UsageStatisticsService("a", engine, network,
                                 histogram_interval=histogram_interval,
                                 publish=False)
    ums = UsageMonitoringService("a", engine, [uss],
                                 decay=ExponentialDecay(half_life=3600.0),
                                 refresh_interval=10.0)
    pds = PolicyDistributionService("a", engine, base_policy(),
                                    refresh_interval=3600.0)
    fcs = FairshareCalculationService("a", engine, pds, ums,
                                      refresh_interval=10.0)
    return engine, uss, pds, fcs


def identity_paths(fcs):
    """The FCS identity table with each row read back as what it names:
    a spliced layout may number leaves differently from a fresh compile,
    but every identity must name the same leaf (None: an internal node)."""
    paths = fcs.flat_result().flat.leaf_paths
    return {identity: paths[row] if row < len(paths) else None
            for identity, row in fcs.identity_table().items()}


stack_ops = st.tuples(
    st.sampled_from(["job", "job", "weight", "add", "remove", "idle"]),
    st.integers(min_value=0, max_value=len(GROUPS) - 1),
    st.integers(min_value=0, max_value=USERS_PER_GROUP - 1),
    st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
)


class TestServiceStackEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(stack_ops, min_size=1, max_size=15))
    def test_incremental_stack_matches_reference(self, ops):
        """The reference is a cold start: after *every* step the
        long-lived stack (dirty-user UMS refresh, journal-spliced policy,
        dirty-segment kernel pass) equals a UMS + FCS built at that
        instant over the same USS and PDS."""
        # 20 s bins: a job's newest bin midpoint passes within a refresh
        # or two, so users move through dirty -> young -> age-shifted
        # instead of staying young (recomputed) for the whole schedule
        engine, uss, pds, fcs = build_stack(histogram_interval=20.0)

        def check():
            with cold_start(fcs.ums, fcs) as (cold_ums, cold):
                totals, want_totals = (fcs.ums.usage_totals(),
                                       cold_ums.usage_totals())
                assert set(totals) == set(want_totals)
                for user in want_totals:
                    assert totals[user] == pytest.approx(
                        want_totals[user], rel=1e-9, abs=1e-9)
                values, want = fcs.values(), cold.values()
                assert set(values) == set(want)
                for path in want:
                    assert values[path] == pytest.approx(want[path],
                                                         abs=1e-9)
                    assert fcs.priority(path) == pytest.approx(
                        cold.priority(path), abs=1e-9)
                assert identity_paths(fcs) == identity_paths(cold)

        try:
            for kind, g, i, w in ops:
                # the t = 10k refreshes (UMS, then FCS) fold in the
                # previous step's change; the cold stack sees it directly
                engine.run_until(engine.now + 10.0)
                check()
                group = GROUPS[g]
                if kind == "job":
                    t = engine.now
                    uss.record_job(UsageRecord(
                        user=f"{group}{i}", site="a",
                        start=max(0.0, t - 100.0 * (i + 1)), end=t))
                elif kind == "weight":
                    pds.set_share(f"/{group}/{group}{i}", w)
                elif kind == "add":
                    pds.set_share(f"/{group}/extra{i}", w)
                elif kind == "remove":
                    path = f"/{group}/{group}{i}"
                    if pds.policy().find(path) is not None:
                        pds.policy().remove_path(path)
            for _ in range(2):
                engine.run_until(engine.now + 10.0)
                check()
            if any(kind == "job" for kind, *_ in ops):
                assert fcs.ums.users_shifted > 0
        finally:
            fcs.stop()
            fcs.ums.stop()
            pds.stop()

    def test_weight_only_edit_keeps_leaf_generation(self):
        """The serve-plane stability promise: a pure weight change must
        not invalidate published integer leaf ids."""
        engine, uss, pds, fcs = build_stack()
        try:
            engine.run_until(20.0)
            generation = fcs.leaf_generation
            paths = list(fcs.flat_result().flat.leaf_paths)
            pds.set_share("/phys/phys0", 5.0)
            pds.set_share("/chem", 7.0)
            engine.run_until(engine.now + 10.0)
            assert fcs.leaf_generation == generation
            assert list(fcs.flat_result().flat.leaf_paths) == paths
            # the values did change (it was a real edit, not a no-op)
            assert fcs.refresh_stats.misses >= 2
            # a structural edit does bump the generation
            pds.policy().remove_path("/phys/phys1")
            pds.set_share("/bio/fresh", 1.0)
            engine.run_until(engine.now + 10.0)
            assert fcs.leaf_generation == generation + 1
        finally:
            fcs.stop()
            pds.stop()

    def test_idle_decay_refreshes_hit_the_cache(self):
        """Pure decay aging moves the UMS scale, not the fold: idle sites
        under exponential decay now hit instead of recomputing."""
        engine, uss, pds, fcs = build_stack()
        try:
            uss.record_job(UsageRecord(user="phys0", site="a",
                                       start=0.0, end=5.0))
            # settle past the bin midpoint (the young phase legitimately
            # recomputes the user each refresh until its age unclamps)
            engine.run_until(330.0)
            misses = fcs.refresh_stats.misses
            usage_before = fcs.flat_result().usage[
                fcs.flat_result().flat.path_index["/phys/phys0"]]
            engine.run_until(330.0 + 3600.0)  # one half-life of pure idling
            assert fcs.refresh_stats.misses == misses
            assert fcs.refresh_stats.hits > 0
            # ... while the absolute usage view still decayed
            usage_after = fcs.flat_result().usage[
                fcs.flat_result().flat.path_index["/phys/phys0"]]
            assert usage_after < 0.6 * usage_before
        finally:
            fcs.stop()
            pds.stop()


class TestJournalUnit:
    def test_edits_since_returns_exact_suffix(self):
        policy = PolicyTree()
        policy.set_share("/a", 1.0)
        rev = policy.revision
        policy.set_share("/a", 2.0)
        policy.set_share("/b", 3.0)
        edits = policy.edits_since(rev)
        assert edits is not None
        assert [e.kind for e in edits] == ["weight", "add"]
        assert edits[0] == PolicyEdit("weight", "/a", 2.0)
        assert policy.edits_since(policy.revision) == []

    def test_edits_since_gap_returns_none(self):
        policy = PolicyTree()
        policy.set_share("/a", 1.0)
        floor_rev = policy.revision
        for i in range(PolicyTree.JOURNAL_LIMIT + 8):
            policy.set_share("/a", float(i % 7 + 1))
        assert policy.edits_since(floor_rev) is None
        # a future revision (state from another tree) is also inexact
        assert policy.edits_since(policy.revision + 1) is None

    def test_identical_refresh_mount_is_noop(self):
        policy = PolicyTree()
        policy.set_share("/grid", 2.0)
        sub = parse_policy("/vo = 1\n/vo/alice = 2\n")
        policy.mount("/grid", sub, source="r")
        rev = policy.revision
        assert policy.refresh_mount("/grid", sub.copy()) is False
        assert policy.revision == rev
        changed = parse_policy("/vo = 1\n/vo/alice = 3\n")
        assert policy.refresh_mount("/grid", changed) is True
        assert policy.revision > rev


class TestUmsScaleUnit:
    def _stack(self):
        engine = SimulationEngine()
        network = Network(engine, base_latency=0.1)
        uss = UsageStatisticsService("a", engine, network,
                                     histogram_interval=600.0, publish=False)
        ums = UsageMonitoringService(
            "a", engine, [uss], decay=ExponentialDecay(half_life=3600.0),
            refresh_interval=10.0)
        return engine, uss, ums

    def test_idle_decay_moves_scale_not_bases(self):
        engine, uss, ums = self._stack()
        uss.record_job(UsageRecord(user="u", site="a", start=0.0, end=10.0))
        # settle past the bin midpoint so the young phase is over
        engine.run_until(320.0)
        base = dict(ums.usage_totals_base())
        scale0 = ums.usage_scale()
        engine.run_until(320.0 + 1800.0)  # half a half-life, idle
        assert dict(ums.usage_totals_base()) == base
        assert ums.usage_scale() / scale0 == pytest.approx(0.5 ** 0.5,
                                                           rel=1e-6)
        served = ums.usage_totals()
        assert served["u"] == pytest.approx(
            base["u"] * ums.usage_scale(), rel=1e-12)
        ums.stop()

    def test_totals_cursor_reports_exact_changes(self):
        engine, uss, ums = self._stack()
        cursor = ums.register_totals_cursor()
        full, changed = ums.drain_totals_changes(cursor)
        assert full is True and changed == {}
        engine.run_until(10.0)
        full, changed = ums.drain_totals_changes(cursor)
        assert full is False and changed == {}
        uss.record_job(UsageRecord(user="u", site="a", start=0.0, end=10.0))
        engine.run_until(20.0)
        full, changed = ums.drain_totals_changes(cursor)
        assert full is False
        assert set(changed) == {"u"}
        assert changed["u"] == ums.usage_totals_base()["u"]
        # flush the young phase (the bin midpoint lies ahead; the user is
        # recomputed until it passes, which legitimately moves the base)
        engine.run_until(320.0)
        ums.drain_totals_changes(cursor)
        # idle decay is invisible to the cursor
        engine.run_until(4000.0)
        full, changed = ums.drain_totals_changes(cursor)
        assert full is False and changed == {}
        ums.release_totals_cursor(cursor)
        ums.stop()
