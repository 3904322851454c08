"""Unit tests for the libaequus client library."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.libaequus import LibAequus
from repro.core.policy import PolicyTree
from repro.core.usage import UsageRecord
from repro.services.irs import IdentityResolutionError
from repro.services.network import Network
from repro.services.site import AequusSite, SiteConfig
from repro.sim.engine import SimulationEngine


@pytest.fixture
def setup():
    engine = SimulationEngine()
    network = Network(engine, base_latency=0.1)
    config = SiteConfig(uss_exchange_interval=5.0, ums_refresh_interval=5.0,
                        fcs_refresh_interval=5.0, libaequus_cache_ttl=10.0)
    site = AequusSite("a", engine, network,
                      policy=PolicyTree.from_dict({"alice": 3, "bob": 1}),
                      config=config)
    site.irs.store_mapping("sys_alice", "alice")
    site.irs.store_mapping("sys_bob", "bob")
    lib = LibAequus.for_site(site)
    return engine, site, lib


class TestFairshareQueries:
    def test_returns_fcs_value(self, setup):
        engine, site, lib = setup
        assert lib.get_fairshare("sys_alice") == site.fcs.fairshare_value("alice")

    def test_value_clamped_to_unit_range(self, setup):
        _, _, lib = setup
        v = lib.get_fairshare("sys_alice")
        assert 0.0 <= v <= 1.0

    def test_caching_within_ttl(self, setup):
        engine, site, lib = setup
        v1 = lib.get_fairshare("sys_alice")
        # change the underlying state; cached value must persist within TTL
        site.uss.record_job(UsageRecord(user="alice", site="a", start=0.0, end=500.0))
        engine.run_until(9.0)  # FCS refreshed, but lib cache still warm
        assert lib.get_fairshare("sys_alice") == v1
        engine.run_until(20.0)
        assert lib.get_fairshare("sys_alice") < v1

    def test_cache_stats_track_batching(self, setup):
        _, _, lib = setup
        for _ in range(10):
            lib.get_fairshare("sys_alice")
        assert lib.fairshare_cache_stats.hits == 9
        assert lib.fairshare_cache_stats.misses == 1
        assert lib.fairshare_calls == 10


class TestIdentityResolution:
    def test_resolves_through_irs(self, setup):
        _, _, lib = setup
        assert lib.resolve_identity("sys_bob") == "bob"

    def test_identity_cached(self, setup):
        _, site, lib = setup
        lib.resolve_identity("sys_bob")
        lib.resolve_identity("sys_bob")
        assert lib.identity_cache_stats.hits == 1


class TestUsageReporting:
    def test_report_records_in_uss(self, setup):
        engine, site, lib = setup
        lib.report_usage("sys_alice", start=0.0, end=120.0)
        assert site.uss.local.total("alice") == pytest.approx(120.0)
        assert lib.usage_reports == 1

    def test_report_resolves_identity(self, setup):
        engine, site, lib = setup
        lib.report_usage("sys_bob", start=0.0, end=60.0)
        assert "bob" in site.uss.local.users

    def test_report_delay_models_delay_source_one(self, setup):
        engine, site, _ = setup
        lib = LibAequus.for_site(site, report_delay=5.0)
        lib.report_usage("sys_alice", start=0.0, end=60.0)
        assert site.uss.local.total("alice") == 0.0
        engine.run_until(5.0)
        assert site.uss.local.total("alice") == pytest.approx(60.0)

    def test_multicore_charge(self, setup):
        engine, site, lib = setup
        lib.report_usage("sys_alice", start=0.0, end=10.0, cores=8)
        assert site.uss.local.total("alice") == pytest.approx(80.0)

    def test_for_site_uses_config_ttl(self, setup):
        _, site, _ = setup
        lib = LibAequus.for_site(site)
        assert lib._fairshare_cache.ttl == site.config.libaequus_cache_ttl


class TestUniformCacheStats:
    """Both caches report the same shape, negatives included."""

    def test_stats_shape_is_symmetric(self, setup):
        _, _, lib = setup
        lib.get_fairshare("sys_alice")
        stats = lib.cache_stats()
        assert set(stats) == {"fairshare", "identity"}
        expected_keys = {"hits", "misses", "lookups", "hit_rate",
                         "negative", "entries", "ttl"}
        for side in stats.values():
            assert set(side) == expected_keys

    def test_hit_and_miss_counters_agree_with_cache(self, setup):
        _, _, lib = setup
        for _ in range(4):
            lib.get_fairshare("sys_alice")
        stats = lib.cache_stats()
        assert stats["fairshare"]["misses"] == 1
        assert stats["fairshare"]["hits"] == 3
        assert stats["fairshare"]["lookups"] == 4
        assert stats["identity"]["misses"] == 1
        assert stats["identity"]["hits"] == 3

    def test_unknown_grid_user_counts_fairshare_negative(self, setup):
        _, site, lib = setup
        # identity resolves, but the grid user is absent from the policy
        site.irs.store_mapping("sys_ghost", "ghost")
        value, known = lib.lookup_fairshare("sys_ghost")
        assert not known
        assert value == site.fcs.unknown_user_value
        assert lib.cache_stats()["fairshare"]["negative"] == 1

    def test_negative_fairshare_results_are_cached(self, setup):
        _, site, lib = setup
        site.irs.store_mapping("sys_ghost", "ghost")
        for _ in range(5):
            lib.lookup_fairshare("sys_ghost")
        # the fallback value was loaded once and served from cache after:
        # a batch of unknown-user jobs must not hammer the service
        assert lib.cache_stats()["fairshare"]["negative"] == 1
        assert lib.cache_stats()["fairshare"]["hits"] == 4

    def test_failed_resolution_counts_negative_and_is_never_cached(
            self, setup):
        _, site, lib = setup
        from repro.services.irs import IdentityResolutionError
        for _ in range(3):
            with pytest.raises(IdentityResolutionError):
                lib.resolve_identity("sys_nobody")
        assert lib.cache_stats()["identity"]["negative"] == 3
        # a mapping stored later must be picked up immediately
        site.irs.store_mapping("sys_nobody", "alice")
        assert lib.resolve_identity("sys_nobody") == "alice"

    def test_legacy_stats_properties_still_work(self, setup):
        _, _, lib = setup
        lib.get_fairshare("sys_alice")
        assert lib.fairshare_cache_stats.misses == 1
        assert lib.identity_cache_stats.misses == 1


class TestSocketTransport:
    """The same library, with every call-out crossing a real socket."""

    @pytest.fixture
    def socket_lib(self, setup):
        from repro.serve.backend import SiteBackend
        from repro.serve.client import SyncAequusClient
        from repro.serve.server import AequusServer, ServerThread

        engine, site, _ = setup
        thread = ServerThread(AequusServer(SiteBackend.for_site(site))).start()
        client = SyncAequusClient(thread.host, thread.port, timeout=5.0,
                                  retries=2, backoff_base=0.01)
        lib = LibAequus.over_socket(client, site="a", engine=engine,
                                    cache_ttl=10.0)
        try:
            yield engine, site, lib, client
        finally:
            client.close()
            thread.stop()

    def test_fairshare_matches_direct_dispatch(self, socket_lib):
        _, site, lib, _ = socket_lib
        assert lib.get_fairshare("sys_alice") == \
            site.fcs.fairshare_value("alice")

    def test_identity_resolution_over_socket(self, socket_lib):
        _, _, lib, _ = socket_lib
        assert lib.resolve_identity("sys_bob") == "bob"

    def test_cache_suppresses_round_trips(self, socket_lib):
        _, _, lib, client = socket_lib
        before = client.stats["requests"]
        for _ in range(10):
            lib.get_fairshare("sys_alice")
        # one LOOKUP_ACCOUNT answers both caches; nine cache hits
        assert client.stats["requests"] == before + 1

    def test_report_usage_lands_in_uss(self, socket_lib):
        engine, site, lib, _ = socket_lib
        before = site.uss.local.total("bob")
        lib.report_usage("sys_bob", start=engine.now, end=engine.now + 240.0)
        assert site.uss.records_enqueued >= 1
        engine.run_until(engine.now + 5.0)  # exchange tick drains ingress
        assert site.uss.local.total("bob") == pytest.approx(before + 240.0)

    def test_unknown_resolution_raises_same_error_as_direct(self, socket_lib):
        _, _, lib, _ = socket_lib
        from repro.services.irs import IdentityResolutionError
        with pytest.raises(IdentityResolutionError):
            lib.resolve_identity("sys_nobody")
        assert lib.cache_stats()["identity"]["negative"] == 1


# -- the hit path against a two-cache reference model --------------------------

#: the IRS table: mapped accounts, two accounts sharing one identity, and an
#: account mapped to an identity the policy lacks; "sys_nobody" is unmapped
MAPPINGS = {"sys_alice": "alice", "sys_bob": "bob", "sys_al2": "alice",
            "sys_ghost": "ghost"}
ACCOUNTS = sorted(MAPPINGS) + ["sys_nobody"]


class TwoCacheModel:
    """libaequus as two dict TTL caches with hit/miss/negative counters."""

    def __init__(self, ttl, lookup):
        self.ttl, self.lookup = ttl, lookup
        self.tables = {"identity": {}, "fairshare": {}}
        self.stats = {name: {"hits": 0, "misses": 0, "negative": 0}
                      for name in self.tables}

    def _get(self, name, key, now, load):
        entry = self.tables[name].get(key)
        if entry is not None and now - entry[0] < self.ttl:
            self.stats[name]["hits"] += 1
            return entry[1]
        self.stats[name]["misses"] += 1
        value = load()
        if self.ttl > 0:
            self.tables[name][key] = (now, value)
        return value

    def resolve_identity(self, account, now):
        def load():
            if account not in MAPPINGS:
                self.stats["identity"]["negative"] += 1
                raise IdentityResolutionError(account)
            return MAPPINGS[account]
        return self._get("identity", account, now, load)

    def lookup_fairshare(self, account, now):
        identity = self.resolve_identity(account, now)

        def load():
            answer = self.lookup(identity)
            self.stats["fairshare"]["negative"] += not answer[1]
            return answer
        return self._get("fairshare", identity, now, load)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def mapped_site():
    """One static site (its engine never advances) and a socket client."""
    from repro.serve.backend import SiteBackend
    from repro.serve.client import SyncAequusClient
    from repro.serve.server import AequusServer, ServerThread

    engine = SimulationEngine()
    site = AequusSite("a", engine, Network(engine),
                      policy=PolicyTree.from_dict({"alice": 3, "bob": 1}))
    site.uss.record_job(UsageRecord(user="alice", site="a",
                                    start=0.0, end=600.0))
    engine.run_until(1.0)
    for account, identity in MAPPINGS.items():
        site.irs.store_mapping(account, identity)
    thread = ServerThread(AequusServer(SiteBackend.for_site(site))).start()
    client = SyncAequusClient(thread.host, thread.port, timeout=5.0)
    try:
        yield site, client
    finally:
        client.close()
        thread.stop()


_CALLS = {
    "get": lambda lib, a: lib.get_fairshare(a),
    "lookup": lambda lib, a: lib.lookup_fairshare(a),
    "resolve": lambda lib, a: lib.resolve_identity(a),
    "report": lambda lib, a: lib.report_usage(a, 0.0, 10.0),
}
_MODEL_CALLS = {
    "get": lambda m, a, now: m.lookup_fairshare(a, now)[0],
    "lookup": lambda m, a, now: m.lookup_fairshare(a, now),
    "resolve": lambda m, a, now: m.resolve_identity(a, now),
    "report": lambda m, a, now: m.resolve_identity(a, now) and None,
}


def _outcome(call):
    try:
        return call()
    except IdentityResolutionError:
        return "unresolved"


class TestHitPathMatchesTheTwoCacheModel:
    """Values, raised errors and ``cache_stats()`` after every step equal a
    plain two-cache model's, with the clock stepping across TTL bounds."""

    @pytest.mark.parametrize("ttl", [0.0, 10.0])
    @pytest.mark.parametrize("mode", ["direct", "socket"])
    @settings(max_examples=40, deadline=None)
    @given(schedule=st.lists(
        st.tuples(st.sampled_from(sorted(_CALLS)), st.sampled_from(ACCOUNTS),
                  st.sampled_from([0.0, 1.0, 4.0, 5.0, 10.0, 11.0])),
        max_size=40))
    def test_schedule(self, mapped_site, mode, ttl, schedule):
        site, client = mapped_site
        clock = FakeClock()
        if mode == "direct":
            lib = LibAequus(fcs=site.fcs, uss=site.uss, irs=site.irs,
                            site="a", cache_ttl=ttl, clock=clock)
        else:
            lib = LibAequus.over_socket(client, site="a", cache_ttl=ttl,
                                        clock=clock)
        model = TwoCacheModel(ttl, site.fcs.lookup)
        for op, account, step in schedule:
            clock.now += step
            assert _outcome(lambda: _CALLS[op](lib, account)) == \
                _outcome(lambda: _MODEL_CALLS[op](model, account, clock.now))
            got = lib.cache_stats()
            for name, table in model.tables.items():
                assert {key: got[name][key] for key in model.stats[name]} \
                    == model.stats[name]
                assert got[name]["entries"] == len(table)
