"""Binary (v2) wire protocol: one data plane, frames, recovery.

The contract: every data op travels binary from a connection's first
request — no HELLO, no negotiation — and the JSON plane answers only the
admin ops and the annotated detail read (any other JSON op answers
``UNSUPPORTED_OP``).  Malformed binary frames get structured error
statuses, and a leaf-table recompile invalidates cached ids via
EPOCH_CHANGED, which clients recover from by re-resolving names.
"""

import asyncio
import random

import pytest

from repro.client.libaequus import LibAequus
from repro.serve import server as server_module
from repro.serve.backend import SiteBackend
from repro.serve.client import (AequusServerError, AequusTransportError,
                                SyncAequusClient)
from repro.serve.protocol import (BF_BY_ID, BIN_FS_REPLY, BIN_HEADER,
                                  BIN_REQ_MAGIC, BOP_BATCH_FAIRSHARE,
                                  BOP_GET_FAIRSHARE, BOP_LOOKUP_ACCOUNT,
                                  BOP_PING, BST_BAD_BATCH, BST_MALFORMED,
                                  BST_OK, BST_OVERSIZED, BST_UNSUPPORTED_OP,
                                  ERR_UNSUPPORTED_OP, OPS, bin_error,
                                  bin_lookup_account, bin_request,
                                  encode_frame, read_bin_reply)
from repro.serve.server import AequusServer, ServerThread
from repro.services.irs import IdentityResolutionError

from .conftest import read_request, scripted_server
from .test_robustness import raw_exchange

#: JSON ops the plane no longer has: their binary forms answer them
RETIRED_JSON_OPS = [
    {"op": "GET_VECTOR", "user": "alice"},
    {"op": "RESOLVE_IDENTITY", "user": "sys_alice"},
    {"op": "REPORT_USAGE", "user": "alice", "start": 0.0, "end": 1.0},
    {"op": "BATCH", "requests": [{"op": "PING"}]},
]


def _bin_exchange(host, port, frames, expect_replies):
    """Open a raw connection, send frames, read binary replies."""

    async def _run():
        reader, writer = await asyncio.open_connection(host, port)
        for frame in frames:
            writer.write(frame)
        await writer.drain()
        replies = []
        try:
            for _ in range(expect_replies):
                replies.append(await asyncio.wait_for(
                    read_bin_reply(reader), 5.0))
        finally:
            writer.close()
        return replies

    return asyncio.run(_run())


class TestNegotiationMatrix:
    def test_binary_client_binary_server_upgrades(self, served, client):
        """Binary from the first request: no HELLO, no JSON frame."""
        _, _, thread = served
        value, known = client.lookup_fairshare("alice")
        assert known is True
        client.lookup_fairshare("alice")  # second hit goes by leaf id
        assert thread.server.stats["binary_requests"] == \
            thread.server.stats["requests"] == 2

    def test_json_data_ops_answer_unsupported_op(self, served):
        """The JSON plane is the admin ops plus the detail read; the data
        ops it used to carry answer UNSUPPORTED_OP in place."""
        _, site, thread = served
        assert OPS == {"HELLO", "INFO", "METRICS", "TRACE_EXPORT", "PING",
                       "GET_FAIRSHARE"}
        frames = [encode_frame(dict(op, id=i))
                  for i, op in enumerate(RETIRED_JSON_OPS)]
        replies = raw_exchange(thread.host, thread.port, frames,
                               len(frames))
        assert [r["error"]["code"] for r in replies] == \
            [ERR_UNSUPPORTED_OP] * len(frames)
        assert site.uss.records_enqueued == 0

    def test_binary_client_pre_hello_server_falls_back(self, served,
                                                       monkeypatch):
        """A server without the HELLO op serves the client unchanged: the
        client never needs it."""
        _, _, thread = served
        monkeypatch.setattr(
            server_module, "OPS",
            frozenset(op for op in server_module.OPS if op != "HELLO"))
        with SyncAequusClient(thread.host, thread.port,
                              timeout=5.0) as client:
            value, known = client.lookup_fairshare("alice")
            assert known is True
        assert thread.server.stats["errors"] == 0

    def test_json_client_binary_server_unmodified(self, served):
        """A JSON-speaking consumer (CLI probe, fleet collector, scraper)
        still gets every admin op and the detail read as JSON frames."""
        _, site, thread = served
        frames = [encode_frame({"op": op, "id": i}) for i, op in
                  enumerate(("HELLO", "PING", "INFO", "METRICS"))]
        frames.append(encode_frame({"op": "GET_FAIRSHARE", "id": 4,
                                    "user": "alice"}))
        replies = raw_exchange(thread.host, thread.port, frames, 5)
        assert [r["id"] for r in replies] == [0, 1, 2, 3, 4]
        assert all(r["ok"] for r in replies)
        assert replies[0]["binary"] == 2
        assert replies[4]["value"] == site.fcs.fairshare_value("alice")
        assert replies[4]["horizons"] == site.fcs.usage_horizons()
        assert thread.server.stats["binary_requests"] == 0


class TestMalformedBinaryFrames:
    def test_unknown_opcode_is_structured_error(self, served):
        _, _, thread = served
        replies = _bin_exchange(
            thread.host, thread.port,
            [bin_request(99, 1, b""), bin_request(BOP_PING, 2, b"hi")],
            expect_replies=2)
        status, _, rid, _ = replies[0]
        assert (status, rid) == (BST_UNSUPPORTED_OP, 1)
        # the connection survived: the PING after it still answered
        status, _, rid, body = replies[1]
        assert (status, rid, body) == (BST_OK, 2, b"hi")

    def test_bad_by_id_body_is_malformed(self, served):
        _, _, thread = served
        replies = _bin_exchange(
            thread.host, thread.port,
            [bin_request(BOP_GET_FAIRSHARE, 7, b"\x01\x02", flags=BF_BY_ID)],
            expect_replies=1)
        assert replies[0][0] == BST_MALFORMED

    def test_non_utf8_name_is_malformed(self, served):
        _, _, thread = served
        replies = _bin_exchange(
            thread.host, thread.port,
            [bin_request(BOP_GET_FAIRSHARE, 8, b"\xff\xfe\xfd")],
            expect_replies=1)
        assert replies[0][0] == BST_MALFORMED

    def test_batch_without_by_id_flag_rejected(self, served):
        _, _, thread = served
        replies = _bin_exchange(
            thread.host, thread.port,
            [bin_request(BOP_BATCH_FAIRSHARE, 9, b"\x00" * 8, flags=0)],
            expect_replies=1)
        assert replies[0][0] == BST_BAD_BATCH

    def test_oversized_binary_frame_errors_and_closes(self, small_site):
        from repro.serve.backend import SiteBackend
        _, site = small_site
        thread = ServerThread(AequusServer(SiteBackend.for_site(site),
                                           max_frame=1024)).start()
        try:
            header = BIN_HEADER.pack(BIN_REQ_MAGIC, BOP_GET_FAIRSHARE, 0,
                                     3, 1 << 20)

            async def _run():
                reader, writer = await asyncio.open_connection(
                    thread.host, thread.port)
                writer.write(header)
                await writer.drain()
                status, _, rid, _ = await asyncio.wait_for(
                    read_bin_reply(reader), 5.0)
                # ...and the server hangs up rather than buffering 1MiB
                eof = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                return status, rid, eof

            status, rid, eof = asyncio.run(_run())
            assert (status, rid, eof) == (BST_OVERSIZED, 3, b"")
        finally:
            thread.stop()


class TestEpochChangedRecovery:
    def test_cached_leaf_id_survives_policy_recompile(self, served, client):
        engine, site, thread = served
        before = client.lookup_fairshare("alice")
        assert before[1] is True
        assert client.lookup_fairshare("alice") == before  # id-cached now
        # grow the policy tree: the FCS recompiles its flat table on the
        # next refresh and every old leaf id is invalidated
        site.pds.set_share("/hpc/eve", 5)
        engine.run_until(engine.now
                         + site.config.fcs_refresh_interval + 1.0)
        value, known = client.lookup_fairshare("alice")
        assert known is True
        assert client.stats["epoch_changes"] >= 1
        # the re-minted id works and subsequent lookups stay binary
        assert client.lookup_fairshare("alice") == (value, known)
        assert client.lookup_fairshare("eve")[1] is True

    def test_batch_recovers_from_recompile(self, served, client):
        engine, site, _ = served
        users = ["alice", "bob", "carol", "dave"]
        first = client.batch_lookup_fairshare(users)
        assert all(first[u][1] for u in users)
        site.pds.set_share("/astro/fred", 2)
        engine.run_until(engine.now
                         + site.config.fcs_refresh_interval + 1.0)
        second = client.batch_lookup_fairshare(users)
        assert all(second[u][1] for u in users)


class TestFullJitterBackoff:
    def test_backoff_is_full_jitter_within_cap(self):
        from repro.serve.client import AequusClient
        client = AequusClient(backoff_base=0.05, backoff_max=1.0,
                              rng=random.Random(7))
        for attempt in range(8):
            cap = min(1.0, 0.05 * 2 ** attempt)
            samples = [client._backoff(attempt) for _ in range(300)]
            assert all(0.0 <= s <= cap for s in samples)
            # uniform over [0, cap]: actually spread out, not clustered
            # at the exponential mark the way pre-jitter backoff was
            assert len(set(samples)) > 100
            assert max(samples) > 0.7 * cap
            assert min(samples) < 0.3 * cap

    def test_backoff_cap_never_exceeds_max(self):
        from repro.serve.client import AequusClient
        client = AequusClient(backoff_base=0.5, backoff_max=2.0,
                              rng=random.Random(3))
        samples = [client._backoff(30) for _ in range(100)]
        assert all(0.0 <= s <= 2.0 for s in samples)
        assert max(samples) > 1.0  # the cap (not the base) is in force


class TestBothDrivers:
    """The protocol logic is written once; the blocking and the pipelining
    driver must walk the same matrix (``connect`` yields each in turn)."""

    def test_binary_server_upgrades_and_goes_by_leaf_id(self, served,
                                                        connect):
        _, site, thread = served
        client = connect(thread.host, thread.port, timeout=5.0)
        first = client.lookup_fairshare("alice")
        assert first == (site.fcs.fairshare_value("alice"), True)
        assert set(client.leaf_ids) == {"alice"}
        assert client.lookup_fairshare("alice") == first  # by leaf id now
        assert client.get_vector("alice") == site.fcs.vector("alice")
        assert client.report_usage("bob", 0.0, 10.0) is True
        assert thread.server.stats["binary_requests"] >= 4
        with pytest.raises(TypeError):
            client.leaf_ids["mallory"] = (0, 0)  # a view, not the cache

    def test_every_data_op_goes_binary(self, served, connect):
        """Every public data op answers over binary frames only; JSON
        frames on the wire are the admin ops the caller asked for."""
        _, site, thread = served
        client = connect(thread.host, thread.port, timeout=5.0)
        assert client.lookup_fairshare("alice")[1] is True
        assert client.get_vector("alice").elements
        assert client.report_usage("alice", 0.0, 10.0) is True
        assert client.resolve_identity("sys_bob") == "bob"
        assert client.lookup_account("sys_alice")[0] == "alice"
        assert client.batch_lookup_fairshare(
            ["alice", "bob"])["bob"][1] is True
        (item,) = client.batch([{"op": "GET_FAIRSHARE", "user": "carol"}])
        assert item["value"] == site.fcs.fairshare_value("carol")
        stats = thread.server.stats
        assert stats["requests"] == stats["binary_requests"] > 0
        client.ping()
        assert stats["requests"] == stats["binary_requests"] + 1

    def test_pre_hello_server_falls_back(self, served, connect, monkeypatch):
        """Without HELLO in the server's op table nothing changes: the
        client never sends it."""
        _, _, thread = served
        monkeypatch.setattr(
            server_module, "OPS",
            frozenset(op for op in server_module.OPS if op != "HELLO"))
        client = connect(thread.host, thread.port, timeout=5.0)
        assert client.lookup_fairshare("alice")[1] is True
        assert thread.server.stats["errors"] == 0

    def test_epoch_changed_re_resolves_the_leaf_id(self, served, connect):
        engine, site, thread = served
        client = connect(thread.host, thread.port, timeout=5.0)
        client.lookup_fairshare("alice")
        stale = client.leaf_ids["alice"]
        site.pds.set_share("/hpc/eve", 5)  # recompile: every old id dies
        engine.run_until(engine.now
                         + site.config.fcs_refresh_interval + 1.0)
        assert client.lookup_fairshare("alice") == \
            (site.fcs.fairshare_value("alice"), True)
        assert client.stats["epoch_changes"] == 1
        assert client.leaf_ids["alice"][0] != stale[0]
        assert client.lookup_fairshare("eve")[1] is True

    def test_batch_recovers_from_recompile(self, served, connect):
        engine, site, thread = served
        client = connect(thread.host, thread.port, timeout=5.0)
        users = ["alice", "bob", "carol", "dave"]
        assert all(known for _, known in
                   client.batch_lookup_fairshare(users).values())
        site.pds.set_share("/astro/fred", 2)
        engine.run_until(engine.now
                         + site.config.fcs_refresh_interval + 1.0)
        second = client.batch_lookup_fairshare(users)
        assert second == {u: (site.fcs.fairshare_value(u), True)
                          for u in users}
        assert client.stats["epoch_changes"] >= 1

    def test_retries_sleep_full_jitter_draws(self, connect):
        """Every retry waits a uniform draw from [0, min(max, base * 2^k)]
        — observed through the injected rng, whichever driver sleeps."""
        draws = []

        class Recording(random.Random):
            def uniform(self, low, high):
                draws.append((low, high))
                return 0.0  # do not actually wait

        client = connect("127.0.0.1", 1, timeout=0.2, retries=6,
                         backoff_base=0.05, backoff_max=1.0,
                         rng=Recording())
        with pytest.raises(AequusTransportError):
            client.ping()
        assert draws == [(0.0, min(1.0, 0.05 * 2 ** k)) for k in range(6)]
        assert client.stats["retries"] == 6
        assert client.stats["transport_errors"] == 1


class TestLookupAccount:
    """LOOKUP_ACCOUNT answers a cold owner in one round trip, and is the
    only way identities resolve over the wire."""

    def test_one_round_trip_answers_identity_value_and_leaf(self, served,
                                                            connect):
        _, site, thread = served
        client = connect(thread.host, thread.port, timeout=5.0)
        client.ping()  # dial outside the count
        before = client.stats["requests"]
        expected = ("alice", site.fcs.fairshare_value("alice"), True)
        assert client.lookup_account("sys_alice") == expected
        assert client.stats["requests"] == before + 1
        # the identity's leaf id is remembered, as a by-name lookup does
        assert set(client.leaf_ids) == {"alice"}
        assert client.lookup_fairshare("alice") == expected[1:]

    def test_resolve_identity_rides_lookup_account(self, served, connect):
        """resolve_identity is one LOOKUP_ACCOUNT round trip; an account
        that does not resolve raises, over either entry point."""
        _, site, thread = served
        client = connect(thread.host, thread.port, timeout=5.0)
        assert client.resolve_identity("sys_bob") == "bob"
        assert thread.server.stats["binary_requests"] == 1
        assert set(client.leaf_ids) == {"bob"}
        with pytest.raises(IdentityResolutionError):
            client.resolve_identity("sys_nobody")
        with pytest.raises(IdentityResolutionError):
            client.lookup_account("sys_nobody")

    def test_pre_hello_server_falls_back_to_the_same_answer(
            self, served, connect, monkeypatch):
        """Without HELLO in the server's op table the triple is the same."""
        _, site, thread = served
        monkeypatch.setattr(
            server_module, "OPS",
            frozenset(op for op in server_module.OPS if op != "HELLO"))
        client = connect(thread.host, thread.port, timeout=5.0)
        assert client.lookup_account("sys_alice") == \
            ("alice", site.fcs.fairshare_value("alice"), True)

    def test_unsupported_opcode_is_raised_not_fallen_back(self, connect):
        """A server that does not know the opcode: the client raises its
        UNSUPPORTED_OP on every call and the connection stays usable."""
        opcodes = []

        def script(index, sock):
            while (request := read_request(sock)) is not None:
                opcode, rid, _body = request
                opcodes.append(opcode)
                sock.sendall(bin_error(BST_UNSUPPORTED_OP, rid, "?"))

        with scripted_server(script) as (host, port):
            client = connect(host, port, timeout=5.0, pool_size=1)
            for _ in range(3):
                with pytest.raises(AequusServerError) as err:
                    client.lookup_account("sys_alice")
                assert err.value.code == ERR_UNSUPPORTED_OP
            assert client.stats["reconnects"] == 0
            client.close()
        assert opcodes == [BOP_LOOKUP_ACCOUNT] * 3

    def test_unknown_account_raises_is_counted_and_never_cached(
            self, served, connect):
        _, site, thread = served
        client = connect(thread.host, thread.port, timeout=5.0)
        lib = LibAequus.over_socket(client, cache_ttl=60.0)
        for _ in range(3):
            with pytest.raises(IdentityResolutionError):
                lib.get_fairshare("sys_nobody")
        stats = lib.cache_stats()
        assert stats["identity"]["negative"] == 3
        assert stats["identity"]["entries"] == stats["fairshare"]["entries"] \
            == 0
        # a mapping stored later is picked up at once
        site.irs.store_mapping("sys_nobody", "dave")
        assert lib.lookup_fairshare("sys_nobody") == \
            (site.fcs.fairshare_value("dave"), True)

    def test_malformed_bodies_keep_the_connection_usable(self, served):
        _, _, thread = served
        replies = _bin_exchange(
            thread.host, thread.port,
            [bin_request(BOP_LOOKUP_ACCOUNT, 1, b"\xff\xfe\xfd"),
             bin_request(BOP_LOOKUP_ACCOUNT, 2, b""),
             bin_lookup_account(3, "sys_bob")],
            expect_replies=3)
        assert [(status, rid) for status, _, rid, _ in replies] == \
            [(BST_MALFORMED, 1), (BST_MALFORMED, 2), (BST_OK, 3)]
        assert replies[2][3][BIN_FS_REPLY.size:] == b"bob"
