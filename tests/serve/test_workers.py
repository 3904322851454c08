"""Sharded serve plane: worker pool over shared-memory snapshots.

Forks real worker processes (small counts, generous timeouts) and
exercises the cross-process contracts: queries answered from the mapped
snapshot over both framings, worker identity in INFO, fleet-wide stats
aggregation (``connections_active`` sums over every worker, whichever
one answers), usage ingress riding the pipe back to the parent, crash
restart, and clean shutdown with nothing left in /dev/shm.
"""

import glob
import os
import signal
import time

import pytest

from repro.serve.client import SyncAequusClient
from repro.serve.shm import ShmSnapshotWriter
from repro.serve.workers import WorkerPool
from repro.services.irs import IdentityResolutionError


def _wait(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def sharded(small_site):
    """The small site served by a 2-worker pool; usage lands in a list."""
    _, site = small_site
    usage = []
    writer = ShmSnapshotWriter(site.name)
    writer.attach_fcs(site.fcs, irs=site.irs)
    pool = WorkerPool(writer.name, 2, site=site.name,
                      usage_sink=lambda *record: usage.append(record),
                      refresh_interval=site.config.fcs_refresh_interval)
    pool.start()
    assert pool.wait_ready(15.0)
    yield site, pool, usage
    pool.stop()
    writer.close()


class TestShardedServing:
    def test_both_protocols_answer_from_shm(self, sharded, small_site):
        """Binary data ops and the JSON detail read, all from the mapped
        snapshot."""
        site, pool, _ = sharded
        expect = site.fcs.fairshare_value("alice")
        with SyncAequusClient(port=pool.port, timeout=5.0) as client:
            value, known = client.lookup_fairshare("alice")
            assert known is True and value == pytest.approx(expect)
            assert client.get_vector("alice").elements
            assert client.resolve_identity("sys_alice") == "alice"
            batch = client.batch_lookup_fairshare(["alice", "bob"])
            assert batch["bob"][1] is True
            detail = client.lookup_fairshare_detail("alice")
            assert detail["value"] == pytest.approx(expect)
            assert detail["horizons"] == site.fcs.usage_horizons()

    def test_info_carries_worker_identity(self, sharded):
        _, pool, _ = sharded
        with SyncAequusClient(port=pool.port, timeout=5.0) as client:
            server = client.info()["server"]
        assert server["mode"] == "shm"
        assert server["workers"] == 2
        assert server["worker"] in (0, 1)
        assert server["pid"] in pool.worker_pids()
        assert server["binary"] == 2

    def test_connections_active_sums_across_workers(self, sharded):
        """However the kernel spread them, INFO must report every open
        connection — the aggregation bug this PR fixes."""
        _, pool, _ = sharded
        held = [SyncAequusClient(port=pool.port, timeout=5.0)
                for _ in range(4)]
        try:
            for client in held:
                client.ping()  # force the pooled connection open

            def total():
                return held[0].info()["stats"]["connections_active"]

            assert _wait(lambda: total() >= 4, timeout=10.0), \
                f"aggregated connections_active stuck at {total()}"
        finally:
            for client in held:
                client.close()

    def test_usage_reports_reach_the_parent(self, sharded):
        _, pool, usage = sharded
        with SyncAequusClient(port=pool.port, timeout=5.0) as client:
            assert client.report_usage("alice", 100.0, 400.0, cores=2) is True
        assert _wait(lambda: len(usage) == 1, timeout=10.0)
        assert usage[0] == ("alice", 100.0, 400.0, 2)

    def test_lookup_account_answers_from_the_published_irs_table(
            self, sharded, small_site, connect):
        engine, _ = small_site
        site, pool, _ = sharded
        client = connect("127.0.0.1", pool.port, timeout=5.0)
        identity, value, known = client.lookup_account("sys_alice")
        assert (identity, known) == ("alice", True)
        assert value == pytest.approx(site.fcs.fairshare_value("alice"))
        # stored after the last publish: workers do not see it yet
        site.irs.store_mapping("sys_carol", "carol")
        with pytest.raises(IdentityResolutionError):
            client.lookup_account("sys_carol")
        engine.run_until(engine.now + site.config.fcs_refresh_interval + 1.0)
        assert client.lookup_account("sys_carol")[::2] == ("carol", True)

    def test_metrics_scrape_includes_worker_lines(self, sharded):
        _, pool, _ = sharded
        with SyncAequusClient(port=pool.port, timeout=5.0) as client:
            text = client.metrics()
        assert 'aequus_worker_requests_total{worker="' in text
        assert 'aequus_worker_connections_active{worker="' in text

    def test_crashed_worker_restarts_and_serves(self, sharded):
        _, pool, _ = sharded
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        assert _wait(lambda: pool.restarts >= 1, timeout=10.0)
        assert _wait(lambda: pool.alive() == 2, timeout=10.0)
        assert pool.wait_ready(15.0)
        with SyncAequusClient(port=pool.port, pool_size=1, retries=4,
                              backoff_base=0.05, timeout=5.0) as client:
            assert client.lookup_fairshare("bob")[1] is True
        assert victim not in pool.worker_pids()


class TestShardedLifecycle:
    def test_clean_shutdown_leaves_no_segments(self, small_site):
        _, site = small_site
        writer = ShmSnapshotWriter(site.name, token="wk1")
        writer.attach_fcs(site.fcs)
        pool = WorkerPool(writer.name, 2, site=site.name).start()
        assert pool.wait_ready(15.0)
        stats_name = pool._stats.name
        pool.stop()
        writer.close()
        assert glob.glob("/dev/shm/aqshm_wk1*") == []
        assert not os.path.exists(f"/dev/shm/{stats_name}")

    def test_daemon_workers_mode_end_to_end(self, small_site):
        from repro.serve.daemon import AequusDaemon
        engine, site = small_site
        daemon = AequusDaemon(engine, site, port=0, tick_interval=0.1,
                              workers=2).start()
        try:
            with SyncAequusClient(port=daemon.port, timeout=5.0) as client:
                assert client.lookup_fairshare("alice")[1] is True
                assert client.report_usage("alice", 0.0, 50.0) is True
                stats = client.info()["stats"]
                assert stats["workers"] == 2
            assert daemon.stats()["workers"] == 2
        finally:
            daemon.stop()
