"""Unit tests for the Fairshare Calculation Service (FCS)."""

import pytest

from repro.core.decay import NoDecay
from repro.core.distance import FairshareParameters
from repro.core.policy import PolicyTree
from repro.core.projection import DictionaryOrderingProjection
from repro.core.usage import UsageRecord
from repro.services.fcs import FairshareCalculationService
from repro.services.network import Network
from repro.services.pds import PolicyDistributionService
from repro.services.ums import UsageMonitoringService
from repro.services.uss import UsageStatisticsService
from repro.sim.engine import SimulationEngine


@pytest.fixture
def stack():
    engine = SimulationEngine()
    network = Network(engine, base_latency=0.1)
    uss = UsageStatisticsService("a", engine, network,
                                 histogram_interval=60.0, exchange_interval=5.0)
    ums = UsageMonitoringService("a", engine, sources=[uss],
                                 decay=NoDecay(), refresh_interval=5.0)
    policy = PolicyTree.from_dict({"alice": 3, "bob": 1})
    pds = PolicyDistributionService("a", engine, policy=policy,
                                    refresh_interval=100.0)
    fcs = FairshareCalculationService("a", engine, pds=pds, ums=ums,
                                      refresh_interval=5.0)
    return engine, uss, ums, pds, fcs


class TestPrecomputation:
    def test_initial_refresh_at_construction(self, stack):
        _, _, _, _, fcs = stack
        assert fcs.refreshes == 1
        assert fcs.flat_result() is not None

    def test_values_served_from_precomputed_state(self, stack):
        engine, uss, _, _, fcs = stack
        before = fcs.fairshare_value("alice")
        uss.record_job(UsageRecord(user="alice", site="a", start=0.0, end=500.0))
        # not yet refreshed: value unchanged (no real-time calculation)
        assert fcs.fairshare_value("alice") == before
        engine.run_until(11.0)  # UMS then FCS refresh
        assert fcs.fairshare_value("alice") < before

    def test_zero_usage_priorities_ordered_by_share(self, stack):
        _, _, _, _, fcs = stack
        assert fcs.priority("alice") > fcs.priority("bob")

    def test_usage_lowers_priority(self, stack):
        engine, uss, _, _, fcs = stack
        uss.record_job(UsageRecord(user="alice", site="a", start=0.0, end=1000.0))
        engine.run_until(11.0)
        assert fcs.priority("alice") < fcs.priority("bob")

    def test_vector_extraction(self, stack):
        _, _, _, _, fcs = stack
        vec = fcs.vector("alice")
        assert vec is not None and vec.depth == 1

    def test_policy_change_takes_effect_after_refresh(self, stack):
        engine, _, _, pds, fcs = stack
        pds.set_share("/carol", 10)
        assert fcs.fairshare_value("carol") == fcs.unknown_user_value
        engine.run_until(5.0)
        assert fcs.priority("carol") > fcs.priority("alice")

    def test_values_mapping_keys_are_paths(self, stack):
        _, _, _, _, fcs = stack
        assert set(fcs.values()) == {"/alice", "/bob"}


class TestIdentityResolution:
    def test_unknown_user_gets_default(self, stack):
        _, _, _, _, fcs = stack
        assert fcs.fairshare_value("ghost") == fcs.unknown_user_value
        assert fcs.priority("ghost") == fcs.unknown_user_value
        assert fcs.vector("ghost") is None

    def test_leaf_path_lookup(self, stack):
        _, _, _, _, fcs = stack
        assert fcs.fairshare_value("/alice") == fcs.fairshare_value("alice")

    def test_identity_map_aliases_dn(self, stack):
        engine, uss, _, _, fcs = stack
        dn = "/C=SE/O=Grid/CN=alice"
        fcs.register_identity(dn, "alice")
        assert fcs.fairshare_value(dn) == fcs.fairshare_value("alice")

    def test_usage_recorded_under_dn_reaches_leaf(self, stack):
        engine, uss, _, _, fcs = stack
        dn = "/C=SE/O=Grid/CN=alice"
        fcs.register_identity(dn, "alice")
        uss.record_job(UsageRecord(user=dn, site="a", start=0.0, end=1000.0))
        engine.run_until(11.0)
        assert fcs.priority("alice") < fcs.priority("bob")

    def test_register_identity_after_refresh_takes_effect(self, stack):
        engine, _, _, _, fcs = stack
        engine.run_until(11.0)  # several refreshes already done
        dn = "/C=SE/O=Grid/CN=alice"
        assert fcs.fairshare_value(dn) == fcs.unknown_user_value
        fcs.register_identity(dn, "alice")
        # lookup aliasing is live — no refresh needed for value resolution
        assert fcs.fairshare_value(dn) == fcs.fairshare_value("alice")
        assert fcs.priority(dn) == fcs.priority("alice")

    def test_alias_usage_folds_multiple_identities_onto_one_leaf(self, stack):
        engine, uss, ums, _, fcs = stack
        dn1 = "/C=SE/O=Grid/CN=alice"
        dn2 = "/C=DE/O=OtherGrid/CN=alice.b"
        fcs.register_identity(dn1, "alice")
        fcs.register_identity(dn2, "alice")
        uss.record_job(UsageRecord(user=dn1, site="a", start=0.0, end=400.0))
        uss.record_job(UsageRecord(user=dn2, site="a", start=0.0, end=600.0))
        engine.run_until(11.0)
        result = fcs.flat_result()
        share = result.usage_share[[result.flat.path_index["/alice"],
                                    result.flat.path_index["/bob"]]]
        # both identities' usage lands on /alice: 1000 of 1000 total
        assert share[0] == pytest.approx(1.0)
        assert share[1] == 0.0

    def test_unregistered_alias_usage_is_ignored(self, stack):
        engine, uss, _, _, fcs = stack
        uss.record_job(UsageRecord(user="/C=SE/CN=stranger", site="a",
                                   start=0.0, end=500.0))
        engine.run_until(11.0)
        result = fcs.flat_result()
        assert result.usage_share[result.flat.path_index["/alice"]] == 0.0


class TestProjectionSwap:
    def test_set_projection_recomputes_values(self, stack):
        _, _, _, _, fcs = stack
        percental_values = fcs.values()
        fcs.set_projection(DictionaryOrderingProjection())
        dictionary_values = fcs.values()
        assert dictionary_values != percental_values
        # order must be preserved across projections
        assert (dictionary_values["/alice"] > dictionary_values["/bob"]) == \
            (percental_values["/alice"] > percental_values["/bob"])

    def test_parameters_respected(self):
        engine = SimulationEngine()
        network = Network(engine, base_latency=0.1)
        uss = UsageStatisticsService("a", engine, network)
        ums = UsageMonitoringService("a", engine, sources=[uss], decay=NoDecay())
        pds = PolicyDistributionService(
            "a", engine, policy=PolicyTree.from_dict({"u": 12, "v": 88}))
        fcs = FairshareCalculationService(
            "a", engine, pds=pds, ums=ums,
            parameters=FairshareParameters(k=0.5))
        # zero usage: p = 0.5*(share + 1); the Figure 13b bound
        assert fcs.priority("u") == pytest.approx(0.5 * (1 + 0.12))

    def test_stop_halts_refresh(self, stack):
        engine, uss, ums, _, fcs = stack
        fcs.stop()
        ums.stop()
        uss.record_job(UsageRecord(user="alice", site="a", start=0.0, end=500.0))
        before = fcs.fairshare_value("alice")
        engine.run_until(60.0)
        assert fcs.fairshare_value("alice") == before


class TestRefreshCache:
    def test_idle_refreshes_hit_the_cache(self, stack):
        engine, _, _, _, fcs = stack
        engine.run_until(51.0)  # ten refresh periods, no usage, no policy change
        assert fcs.refreshes > 5
        # only the initial refresh computed; every periodic one was skipped
        assert fcs.refresh_stats.misses == 1
        assert fcs.refresh_stats.hits == fcs.refreshes - 1
        assert fcs.refresh_stats.hit_rate > 0.8

    def test_cache_hit_performs_no_tree_computation(self, stack):
        _, _, _, _, fcs = stack
        result_before = fcs.flat_result()
        values_before = fcs.values()
        hits_before = fcs.refresh_stats.hits
        fcs.refresh()
        assert fcs.refresh_stats.hits == hits_before + 1
        # the pre-computed state object is reused untouched
        assert fcs.flat_result() is result_before
        assert fcs.values() == values_before

    def test_usage_change_invalidates(self, stack):
        engine, uss, _, _, fcs = stack
        misses_before = fcs.refresh_stats.misses
        uss.record_job(UsageRecord(user="alice", site="a", start=0.0, end=500.0))
        engine.run_until(11.0)
        assert fcs.refresh_stats.misses > misses_before

    def test_policy_change_invalidates(self, stack):
        _, _, _, pds, fcs = stack
        misses_before = fcs.refresh_stats.misses
        pds.set_share("/carol", 10)
        fcs.refresh()
        assert fcs.refresh_stats.misses == misses_before + 1
        assert fcs.priority("carol") > fcs.priority("alice")

    def test_direct_policy_mutation_invalidates(self, stack):
        """Mutating the policy tree in place (as runtime_mount does) must be
        picked up by the next refresh even without a PDS version bump."""
        _, _, _, pds, fcs = stack
        pds.policy().set_share("/dave", 99)
        fcs.refresh()
        assert fcs.priority("dave") > fcs.priority("alice")

    def test_cache_hit_still_advances_timestamp(self, stack):
        engine, _, _, _, fcs = stack
        t0 = fcs.computed_at
        engine.run_until(11.0)
        assert fcs.computed_at > t0


class TestDuplicateLeafNames:
    @pytest.fixture
    def collision_stack(self):
        engine = SimulationEngine()
        network = Network(engine, base_latency=0.1)
        uss = UsageStatisticsService("a", engine, network,
                                     histogram_interval=60.0, exchange_interval=5.0)
        ums = UsageMonitoringService("a", engine, sources=[uss],
                                     decay=NoDecay(), refresh_interval=5.0)
        policy = PolicyTree.from_dict({"p1": {"sam": 3}, "p2": {"sam": 1}})
        pds = PolicyDistributionService("a", engine, policy=policy,
                                        refresh_interval=100.0)
        fcs = FairshareCalculationService("a", engine, pds=pds, ums=ums,
                                          refresh_interval=5.0)
        return engine, uss, fcs

    def test_collision_counter_tracks_shadowed_names(self, collision_stack):
        _, _, fcs = collision_stack
        assert fcs.name_collisions == 1

    def test_full_paths_resolve_unambiguously(self, collision_stack):
        engine, uss, fcs = collision_stack
        uss.record_job(UsageRecord(user="/p1/sam", site="a", start=0.0, end=900.0))
        engine.run_until(11.0)
        # only p1's sam consumed: its priority must drop below p2's sam
        assert fcs.priority("/p1/sam") < fcs.priority("/p2/sam")
        assert fcs.fairshare_value("/p1/sam") != fcs.fairshare_value("/p2/sam")

    def test_bare_name_maps_to_first_preorder_leaf(self, collision_stack):
        _, _, fcs = collision_stack
        assert fcs.fairshare_value("sam") == fcs.fairshare_value("/p1/sam")

    def test_no_collisions_on_unique_names(self, stack):
        _, _, _, _, fcs = stack
        assert fcs.name_collisions == 0


class TestFreshnessHorizons:
    """The FCS inherits the UMS's refresh-time horizon set on every
    refresh — cached-epoch hits included — and exports the per-origin
    staleness distribution (the paper's Fig. 11, live)."""

    def remote_stack(self):
        engine = SimulationEngine()
        network = Network(engine, base_latency=0.1)
        local = UsageStatisticsService("a", engine, network,
                                       histogram_interval=60.0,
                                       exchange_interval=5.0)
        remote = UsageStatisticsService("b", engine, network,
                                        histogram_interval=60.0,
                                        exchange_interval=5.0)
        remote.add_peer("a")
        ums = UsageMonitoringService("a", engine, sources=[local],
                                     decay=NoDecay(), refresh_interval=5.0)
        policy = PolicyTree.from_dict({"alice": 3, "bob": 1})
        pds = PolicyDistributionService("a", engine, policy=policy,
                                        refresh_interval=100.0)
        fcs = FairshareCalculationService("a", engine, pds=pds, ums=ums,
                                          refresh_interval=5.0)
        return engine, remote, fcs

    def test_horizons_present_after_refresh(self, stack):
        engine, _, _, _, fcs = stack
        engine.run_until(11.0)
        assert fcs.usage_horizons()["a"] == pytest.approx(10.0)

    def test_cached_hit_still_advances_horizons(self, stack):
        """An idle site's refresh is a cache hit, but its horizon set must
        keep moving — freshness is about time, not about changed values."""
        engine, _, _, _, fcs = stack
        engine.run_until(26.0)
        assert fcs.refresh_stats.hits > 0
        assert fcs.usage_horizons()["a"] == pytest.approx(25.0)

    def test_remote_origin_tracked_through_chain(self):
        engine, remote, fcs = self.remote_stack()
        remote.record_job(UsageRecord(user="alice", site="b",
                                      start=0.0, end=700.0))
        engine.run_until(16.0)
        horizons = fcs.usage_horizons()
        assert "b" in horizons
        # USS received b's t=10 publish at 10.1; UMS captured it at 15;
        # FCS inherited that capture at its own t=15 refresh
        assert horizons["b"] == pytest.approx(10.0)
        # and the usage actually reached the served values
        assert fcs.fairshare_value("alice") < fcs.fairshare_value("bob")

    def test_staleness_histogram_exported(self):
        from repro.obs.export import render

        engine, remote, fcs = self.remote_stack()
        remote.record_job(UsageRecord(user="alice", site="b",
                                      start=0.0, end=700.0))
        engine.run_until(30.0)
        text = render(fcs.registry)
        assert "aequus_snapshot_staleness_seconds" in text
        assert 'origin="b"' in text

    def test_stub_ums_without_horizons_is_tolerated(self):
        """Benchmark harnesses drive the FCS with minimal UMS stand-ins.
        They implement the one interface the FCS reads — a stub that
        always drains ``(True, {})`` gets a full refold per refresh — and
        one with no horizons to report leaves the set empty."""
        engine = SimulationEngine()

        class StubUMS:
            totals = {"alice": 10.0, "bob": 30.0}

            def register_totals_cursor(self):
                return 1

            def drain_totals_changes(self, cursor):
                return True, {}

            def release_totals_cursor(self, cursor):
                pass

            def usage_totals_base(self):
                return self.totals

            def usage_scale(self):
                return 1.0

            def usage_horizons(self):
                return {}

            def drain_applied_traces(self):
                return []

        policy = PolicyTree.from_dict({"alice": 1, "bob": 1})
        pds = PolicyDistributionService("a", engine, policy=policy,
                                        refresh_interval=100.0)
        stub = StubUMS()
        fcs = FairshareCalculationService("a", engine, pds=pds, ums=stub,
                                          refresh_interval=5.0)
        assert fcs.usage_horizons() == {}
        assert fcs.fairshare_value("alice") > fcs.fairshare_value("bob")
        # an unchanged refold is a cache hit; a changed one recomputes
        engine.run_until(5.0)
        assert fcs.refresh_stats.hits >= 1 and fcs.refresh_stats.misses == 1
        stub.totals = {"alice": 50.0, "bob": 30.0}
        engine.run_until(10.0)
        assert fcs.refresh_stats.misses == 2
        assert fcs.fairshare_value("alice") < fcs.fairshare_value("bob")
        fcs.stop()
