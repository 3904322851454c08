"""End-to-end server/client tests over a real TCP connection."""

import asyncio
import os
import sys
import threading
import time

import pytest

from repro.serve.client import (AequusClient, AequusServerError,
                                AequusTransportError, SyncAequusClient)
from repro.serve.protocol import (ERR_BAD_VERSION, ERR_MALFORMED,
                                  ERR_NOT_A_LEAF, ERR_UNSUPPORTED_OP,
                                  PROTOCOL_VERSION)
from repro.services.irs import IdentityResolutionError


class TestSingleKeyOps:
    def test_get_fairshare_matches_direct_dispatch(self, served, client):
        _, site, _ = served
        assert client.get_fairshare("alice") == \
            site.fcs.fairshare_value("alice")

    def test_lookup_flags_unknown_user(self, served, client):
        _, site, _ = served
        value, known = client.lookup_fairshare("ghost")
        assert not known
        assert value == site.fcs.unknown_user_value

    def test_full_path_lookup(self, served, client):
        _, site, _ = served
        assert client.get_fairshare("/astro/carol") == \
            site.fcs.fairshare_value("carol")

    def test_get_vector_round_trips(self, served, client):
        _, site, _ = served
        assert client.get_vector("alice") == site.fcs.vector("alice")

    def test_vector_for_internal_node_is_not_a_leaf(self, served, client):
        with pytest.raises(AequusServerError) as err:
            client.get_vector("/hpc")
        assert err.value.code == ERR_NOT_A_LEAF

    def test_vector_for_internal_node_is_not_a_leaf_from_a_worker(
            self, one_worker):
        """Both backends classify an internal node through the identity
        table, so a shm worker answers what the in-process server does."""
        with SyncAequusClient(port=one_worker.port, timeout=5.0) as client:
            with pytest.raises(AequusServerError) as err:
                client.get_vector("/hpc")
            assert err.value.code == ERR_NOT_A_LEAF

    def test_resolve_identity(self, served, client):
        assert client.resolve_identity("sys_alice") == "alice"

    def test_resolve_unknown_raises_identity_error(self, served, client):
        with pytest.raises(IdentityResolutionError):
            client.resolve_identity("nobody")

    def test_report_usage_lands_in_uss_at_next_tick(self, served, client):
        engine, site, _ = served
        before = site.uss.local.total("bob")
        assert client.report_usage("bob", start=engine.now,
                                   end=engine.now + 300.0)
        assert site.uss.records_enqueued >= 1
        engine.run_until(engine.now + 5.0)  # exchange tick drains ingress
        assert site.uss.local.total("bob") == pytest.approx(before + 300.0)

    def test_ping_and_info(self, served, client):
        assert client.ping()["pong"] is True
        reply = client.info()
        assert reply["protocol"] == PROTOCOL_VERSION
        assert reply["info"]["snapshot"]["site"] == "a"
        assert reply["info"]["snapshot"]["users"] == 4


class TestRemappedAccount:
    def test_remapped_account_resolves_to_its_new_identity(self, served):
        """The IRS is not versioned by the snapshot seq: a mapping replaced
        between two publishes must be answered at once, not memoised."""
        _, site, thread = served
        site.irs.store_mapping("sys_x", "alice")
        with SyncAequusClient(thread.host, thread.port,
                              timeout=5.0) as client:
            assert client.resolve_identity("sys_x") == "alice"
            site.irs.store_mapping("sys_x", "bob")  # no publish in between
            assert client.resolve_identity("sys_x") == "bob"
            assert client.lookup_account("sys_x") == \
                ("bob", site.fcs.fairshare_value("bob"), True)
            site.irs.store_mapping("sys_x", "alice")
            assert client.lookup_account("sys_x") == \
                ("alice", site.fcs.fairshare_value("alice"), True)


class TestBatch:
    def test_batch_lookup(self, served, client):
        _, site, _ = served
        users = ["alice", "bob", "carol", "dave"]
        values = client.batch_lookup_fairshare(users)
        for user in users:
            assert values[user][0] == site.fcs.fairshare_value(user)

    def test_batch_reports_per_item_errors_in_place(self, served, client):
        replies = client.batch([
            {"op": "GET_FAIRSHARE", "user": "alice"},
            {"op": "GET_VECTOR", "user": "ghost"},
            {"op": "NO_SUCH_OP"},
        ])
        assert replies[0]["ok"] is True
        assert replies[1]["ok"] is False
        assert replies[2]["error"]["code"] == ERR_UNSUPPORTED_OP

    def test_batch_is_served_from_one_snapshot(self, served, client):
        replies = client.batch(
            [{"op": "GET_FAIRSHARE", "user": u}
             for u in ["alice", "bob", "carol", "dave"]])
        seqs = {r["seq"] for r in replies}
        assert len(seqs) == 1

    def test_nested_batch_rejected(self, served, client):
        replies = client.batch([{"op": "BATCH", "requests": []}])
        assert replies[0]["ok"] is False

    def test_mixed_batch(self, served, client):
        """Only fairshare reads batch; other items answer UNSUPPORTED_OP in
        place and never reach the server."""
        engine, site, thread = served
        before = thread.server.stats["requests"]
        replies = client.batch([
            {"op": "RESOLVE_IDENTITY", "user": "sys_bob"},
            {"op": "GET_FAIRSHARE", "user": "bob"},
            {"op": "REPORT_USAGE", "user": "bob", "start": engine.now,
             "end": engine.now + 60.0},
            {"op": "GET_FAIRSHARE"},
            {"op": "PING"},
        ])
        assert [r["ok"] for r in replies] == [False, True, False, False,
                                              False]
        assert replies[1]["value"] == site.fcs.fairshare_value("bob")
        assert replies[3]["error"]["code"] == ERR_MALFORMED
        assert {replies[i]["error"]["code"] for i in (0, 2, 4)} == \
            {ERR_UNSUPPORTED_OP}
        assert site.uss.records_enqueued == 0
        # one by-name GET to learn bob's leaf id, then the batch itself
        assert thread.server.stats["requests"] == before + 2


class TestServerBehaviour:
    def test_repeated_keys_are_each_executed(self, served, client):
        """No reply memo: each read of one key is executed and counted,
        and an identity alias added between two reads is seen at once."""
        _, site, thread = served
        before = thread.server.stats["requests"]
        for _ in range(10):
            assert client.lookup_fairshare_detail("alice")["known"] is True
        assert thread.server.stats["requests"] == before + 10
        assert client.lookup_fairshare_detail("/CN=alice")["known"] is False
        site.fcs.register_identity("/CN=alice", "alice")
        site.fcs.refresh()  # publishes the alias without a usage change
        assert client.lookup_fairshare_detail("/CN=alice")["known"] is True

    def test_bad_version_rejected(self, served):
        # the real client always stamps its own version; speak raw frames
        _, _, thread = served
        from repro.serve.protocol import encode_frame, read_frame

        async def _run():
            reader, writer = await asyncio.open_connection(
                thread.host, thread.port)
            writer.write(encode_frame({"op": "PING", "v": 99, "id": 1}))
            await writer.drain()
            reply = await read_frame(reader)
            writer.close()
            return reply

        reply = asyncio.run(_run())
        assert reply["ok"] is False
        assert reply["error"]["code"] == ERR_BAD_VERSION

    def test_pipelined_requests_all_answered(self, served):
        _, site, thread = served

        async def _run():
            async with AequusClient(thread.host, thread.port) as c:
                return await asyncio.gather(*[
                    c.get_fairshare("alice") for _ in range(200)])

        values = asyncio.run(_run())
        assert len(values) == 200
        assert set(values) == {site.fcs.fairshare_value("alice")}

    def test_snapshot_seq_advances_for_clients(self, served, client):
        engine, _, _ = served
        first = client.batch([{"op": "GET_FAIRSHARE", "user": "alice"}])
        engine.run_until(engine.now + 5.0)  # next FCS refresh
        second = client.batch([{"op": "GET_FAIRSHARE", "user": "alice"}])
        assert second[0]["seq"] > first[0]["seq"]


class TestTransportResilience:
    def test_unreachable_server_raises_transport_error(self):
        with SyncAequusClient("127.0.0.1", 1, timeout=0.2, retries=1,
                              backoff_base=0.01) as client:
            with pytest.raises(AequusTransportError):
                client.ping()

    def test_stats_track_requests(self, served, client):
        client.ping()
        client.ping()
        assert client.stats["requests"] >= 2
        assert client.stats["transport_errors"] == 0


class TestFreshnessSurface:
    """GET_FAIRSHARE with horizons, INFO usage_horizons, detail client."""

    def test_plain_lookup_omits_horizons(self, served, client):
        (reply,) = client.batch([{"op": "GET_FAIRSHARE", "user": "alice"}])
        assert "horizons" not in reply and "staleness" not in reply

    def test_detail_lookup_reports_horizons(self, served, client):
        _, site, _ = served
        reply = client.lookup_fairshare_detail("alice")
        assert reply["known"] is True
        assert reply["value"] == site.fcs.fairshare_value("alice")
        assert reply["horizons"] == site.fcs.usage_horizons()
        assert set(reply["staleness"]) == set(reply["horizons"])
        assert all(v >= 0.0 for v in reply["staleness"].values())

    def test_detail_bypasses_coalescing(self, served, client):
        """A detail read right after a plain read of the same key still
        carries its annotations: nothing answers it from a memo."""
        (plain,) = client.batch([{"op": "GET_FAIRSHARE", "user": "alice"}])
        detail = client.lookup_fairshare_detail("alice")
        assert "horizons" not in plain
        assert "horizons" in detail and detail["value"] == plain["value"]

    def test_info_reports_usage_horizons(self, served, client):
        _, site, _ = served
        info = client.info()["info"]
        horizons = info["usage_horizons"]
        assert set(horizons) == set(site.fcs.usage_horizons())
        for entry in horizons.values():
            assert entry["staleness"] >= 0.0
            assert entry["horizon"] <= info["time"]

    def test_async_detail_lookup(self, served):
        _, site, thread = served

        async def go():
            async with AequusClient(thread.host, thread.port) as c:
                return await c.lookup_fairshare_detail("alice")

        reply = asyncio.run(go())
        assert reply["horizons"] == site.fcs.usage_horizons()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestBlockingClientOwnsNoThreadOrLoop:
    def test_use_starts_no_thread_and_no_event_loop(self, served,
                                                    monkeypatch):
        _, site, thread = served

        def forbidden(*args, **kwargs):
            raise AssertionError("the blocking client must not need this")

        monkeypatch.setattr(threading.Thread, "start", forbidden)
        monkeypatch.setattr(asyncio, "new_event_loop", forbidden)
        with SyncAequusClient(thread.host, thread.port) as client:
            assert client.get_fairshare("alice") == \
                site.fcs.fairshare_value("alice")
            assert client.batch_lookup_fairshare(["alice", "bob"])
            assert "aequus_requests_total" in client.metrics()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc to count descriptors")
    def test_create_use_close_cycles_leak_nothing(self, served):
        _, _, thread = served
        with SyncAequusClient(thread.host, thread.port) as warm:
            warm.get_fairshare("alice")  # one-off lazy imports, caches
        threads, fds = threading.active_count(), _open_fds()
        for _ in range(200):
            client = SyncAequusClient(thread.host, thread.port)
            client.get_fairshare("alice")
            client.close()
            client.close()  # idempotent
        with pytest.raises(ValueError):
            SyncAequusClient(thread.host, thread.port, pool_size=0)
        unreachable = SyncAequusClient("127.0.0.1", 1, timeout=0.2,
                                       retries=0)
        with pytest.raises(AequusTransportError):
            unreachable.ping()
        unreachable.close()  # safe after a connect that never succeeded
        assert threading.active_count() == threads
        # the in-process server drops its ends of the 200 sockets a moment
        # after the client does
        deadline = time.monotonic() + 5.0
        while _open_fds() > fds and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _open_fds() <= fds

    def test_a_closed_client_redials_on_the_next_request(self, served):
        _, site, thread = served
        client = SyncAequusClient(thread.host, thread.port)
        client.close()  # before any connection existed
        assert client.get_fairshare("alice") == \
            site.fcs.fairshare_value("alice")
        client.close()
        assert client.get_fairshare("alice") == \
            site.fcs.fairshare_value("alice")
        client.close()


class TestThreadsSharingOneBlockingClient:
    def test_concurrent_gets_equal_batch_and_requests_are_exact(self,
                                                                served):
        _, _, thread = served
        users = ["alice", "bob", "carol", "dave"]
        n_threads, per_thread = 8, 2000
        with SyncAequusClient(thread.host, thread.port,
                              timeout=30.0) as client:
            # the site is quiescent: one snapshot seq for the whole test
            seq = client.lookup_fairshare_detail("alice")["seq"]
            expected = client.batch_lookup_fairshare(users)
            before = client.stats["requests"]
            wrong = []

            def hammer(k):
                for i in range(per_thread):
                    user = users[(i + k) % len(users)]
                    got = client.lookup_fairshare(user)
                    if got != expected[user]:
                        wrong.append((user, got))

            workers = [threading.Thread(target=hammer, args=(k,))
                       for k in range(n_threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # provoke interleavings
            try:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
            assert wrong == []
            # a lost update on the shared counter, or a request retried
            # behind the caller's back, would break the exact count
            assert client.stats["requests"] - before == \
                n_threads * per_thread
            assert client.stats["retries"] == 0
            assert client.lookup_fairshare_detail("alice")["seq"] == seq
