"""Protocol robustness: garbage input, restarts, slow clients.

These are the failure modes the serve plane must survive: a broken peer
sending garbage or giant frames, aequusd restarting under a client with
requests in flight, and a client that stops reading while the server keeps
producing replies.
"""

import asyncio
import socket
import time

import pytest

from repro.serve.backend import SiteBackend
from repro.serve.client import AequusTransportError, SyncAequusClient
from repro.serve.protocol import (BIN_HEADER, BIN_REP_MAGIC, ERR_MALFORMED,
                                  ERR_OVERSIZED, HEADER, MAX_FRAME_BYTES,
                                  encode_frame, ok_reply, read_frame)
from repro.serve.server import AequusServer, ServerThread

from .conftest import read_json_request, scripted_server


def raw_exchange(host, port, blobs, expect_replies, timeout=5.0):
    """Write raw bytes, then read up to ``expect_replies`` frames."""

    async def _run():
        reader, writer = await asyncio.open_connection(host, port)
        for blob in blobs:
            writer.write(blob)
        await writer.drain()
        replies = []
        for _ in range(expect_replies):
            try:
                replies.append(await asyncio.wait_for(read_frame(reader),
                                                      timeout))
            except Exception as exc:
                replies.append(exc)
                break
        writer.close()
        return replies

    return asyncio.run(_run())


class TestMalformedFrames:
    def test_malformed_payload_gets_structured_error(self, served):
        _, _, thread = served
        body = b"this is not json {"
        replies = raw_exchange(thread.host, thread.port,
                               [HEADER.pack(len(body)) + body], 1)
        assert replies[0]["ok"] is False
        assert replies[0]["error"]["code"] == ERR_MALFORMED

    def test_connection_survives_malformed_frame(self, served):
        # framing was intact, only the payload was garbage: the next valid
        # request on the same connection must still be answered
        _, _, thread = served
        body = b"[]"
        replies = raw_exchange(
            thread.host, thread.port,
            [HEADER.pack(len(body)) + body,
             encode_frame({"op": "PING", "id": 2})], 2)
        assert replies[0]["error"]["code"] == ERR_MALFORMED
        assert replies[1] == {"id": 2, "ok": True, "pong": True}

    def test_malformed_frames_counted(self, served):
        _, _, thread = served
        body = b"nope"
        raw_exchange(thread.host, thread.port,
                     [HEADER.pack(len(body)) + body], 1)
        assert thread.server.stats["malformed_frames"] >= 1


class TestOversizedFrames:
    def test_oversized_frame_rejected_and_connection_closed(self, small_site):
        _, site = small_site
        server = AequusServer(SiteBackend.for_site(site), max_frame=1024)
        thread = ServerThread(server).start()
        try:
            replies = raw_exchange(
                thread.host, thread.port,
                [HEADER.pack(1 << 20)], 2)  # 1 MiB declared, cap is 1 KiB
            assert replies[0]["ok"] is False
            assert replies[0]["error"]["code"] == ERR_OVERSIZED
            # the stream is no longer frame-aligned: server must close
            assert len(replies) == 1 or not isinstance(replies[1], dict)
            assert server.stats["oversized_frames"] == 1
        finally:
            thread.stop()

    def test_server_never_buffers_the_declared_payload(self, small_site):
        # the reply must arrive although the declared payload never does:
        # proof the server rejected on the prefix instead of buffering
        _, site = small_site
        server = AequusServer(SiteBackend.for_site(site), max_frame=1024)
        thread = ServerThread(server).start()
        try:
            replies = raw_exchange(thread.host, thread.port,
                                   [HEADER.pack(2 ** 31)], 1)
            assert replies[0]["error"]["code"] == ERR_OVERSIZED
        finally:
            thread.stop()


class TestServerRestart:
    def test_client_retries_through_a_restart_mid_batch(self, small_site):
        _, site = small_site
        backend = SiteBackend.for_site(site)
        thread = ServerThread(AequusServer(backend)).start()
        port = thread.port
        users = ["alice", "bob", "carol", "dave"]
        # pool_size=1 forces the follow-up batch onto the connection the
        # restart killed, so the client must notice and re-dial
        with SyncAequusClient(thread.host, port, timeout=2.0, retries=5,
                              backoff_base=0.02, pool_size=1) as client:
            first = client.batch_lookup_fairshare(users)
            assert len(first) == 4
            # kill the daemon under the client's warm pooled connection...
            thread.stop()
            # ...and bring a fresh one up on the same port
            thread2 = ServerThread(AequusServer(backend, port=port)).start()
            try:
                second = client.batch_lookup_fairshare(users)
                assert second == first
                # the dead connection healed either out-of-band (the reader
                # task saw EOF before the next call: a silent reconnect) or
                # in-band (the call failed mid-flight: a counted retry)
                assert client.stats["reconnects"] + \
                    client.stats["retries"] >= 1
            finally:
                thread2.stop()

    def test_requests_in_flight_at_kill_time_are_retried(self, small_site):
        _, site = small_site
        backend = SiteBackend.for_site(site)
        thread = ServerThread(AequusServer(backend)).start()
        port = thread.port
        with SyncAequusClient(thread.host, port, timeout=2.0, retries=8,
                              backoff_base=0.05) as client:
            client.ping()  # warm the pool

            results = []

            def hammer():
                for _ in range(40):
                    results.append(client.get_fairshare("alice"))

            import threading
            worker = threading.Thread(target=hammer)
            worker.start()
            thread.stop()  # rip the server out mid-stream
            thread2 = ServerThread(AequusServer(backend, port=port)).start()
            worker.join(30.0)
            try:
                assert not worker.is_alive()
                assert len(results) == 40
                assert set(results) == {site.fcs.fairshare_value("alice")}
            finally:
                thread2.stop()


class TestSlowClientBackpressure:
    def test_server_bounds_memory_for_a_non_reading_client(self, small_site):
        _, site = small_site
        max_inflight = 8
        server = AequusServer(SiteBackend.for_site(site),
                              max_inflight=max_inflight,
                              write_buffer_limit=4096)
        thread = ServerThread(server).start()
        n_requests = 400
        # PING echoes its payload, so each reply is ~8 KiB: 400 of them is
        # ~3 MiB, far beyond what the write buffer + socket buffers can hide
        payload = encode_frame({"op": "PING", "id": 1, "payload": "x" * 8192})
        # shrink our receive window BEFORE connecting (after the handshake
        # the advertised window is already negotiated and the option is moot)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect((thread.host, thread.port))
        try:
            sock.settimeout(10.0)
            blob = payload * n_requests
            sent = 0
            # send without ever reading; our own send may block once the
            # server stops consuming, so use a short timeout and give up
            sock.settimeout(0.5)
            try:
                while sent < len(blob):
                    sent += sock.send(blob[sent:sent + 65536])
            except socket.timeout:
                pass
            time.sleep(1.0)
            processed = server.stats["requests"]
            # the server must have stalled its reader: far fewer requests
            # executed than the client pushed at it, bounded by the reply
            # queue + write buffer + socket buffers, not by our send volume
            assert processed < n_requests
            # now drain: every processed request's reply must still arrive
            sock.settimeout(10.0)
            received = bytearray()
            while True:
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    break
                if not chunk:
                    break
                received.extend(chunk)
                if server.stats["requests"] >= min(sent // len(payload),
                                                   n_requests):
                    # keep reading until the pipe goes quiet
                    sock.settimeout(0.5)
            assert len(received) > 0
        finally:
            sock.close()
            thread.stop()

    def test_inflight_cap_limits_unanswered_requests(self, small_site):
        # with the client reading normally, the queue bound is invisible:
        # everything completes
        _, site = small_site
        server = AequusServer(SiteBackend.for_site(site), max_inflight=4)
        thread = ServerThread(server).start()
        try:
            with SyncAequusClient(thread.host, thread.port) as client:
                values = [client.get_fairshare("alice") for _ in range(50)]
            assert len(values) == 50
        finally:
            thread.stop()


def _pong(request):
    """The reply a healthy aequusd gives a PING (payload echoed)."""
    return encode_frame(ok_reply(request["id"], pong=True,
                                 payload=request.get("payload")))


def _answer_pings(sock):
    while (request := read_json_request(sock)) is not None:
        sock.sendall(_pong(request))


class TestFaultyRepliesBothDrivers:
    """Reply-side faults against a scripted server, walked by the blocking
    and the pipelining driver alike (``connect`` yields each in turn).

    The ops driven here (PING, METRICS) are JSON frames.
    """

    KWARGS = dict(pool_size=1, retries=2, backoff_base=0.01)

    @pytest.mark.parametrize("garbage", [
        HEADER.pack(9) + b"not json{",
        HEADER.pack(MAX_FRAME_BYTES + 1),
        BIN_HEADER.pack(BIN_REP_MAGIC, 0, 0, 1, MAX_FRAME_BYTES + 1),
    ], ids=["malformed", "oversized-json", "oversized-binary"])
    def test_garbage_reply_breaks_the_connection_and_is_retried(
            self, connect, garbage):
        def script(index, sock):
            if index == 0:
                read_json_request(sock)
                sock.sendall(garbage)
                read_json_request(sock)  # hold open until the client leaves
            else:
                _answer_pings(sock)

        with scripted_server(script) as (host, port):
            client = connect(host, port, timeout=2.0, **self.KWARGS)
            assert client.ping("x")["payload"] == "x"
            assert client.stats["ambiguous_retries"] == 1
            assert client.stats["reconnects"] == 1
            assert client.stats["transport_errors"] == 0
            client.close()

    def test_timeout_redials_and_counts_the_ambiguity(self, connect):
        def script(index, sock):
            if index == 0:
                read_json_request(sock)
                read_json_request(sock)  # never answers; waits for the hangup
            else:
                _answer_pings(sock)

        with scripted_server(script) as (host, port):
            client = connect(host, port, timeout=0.2, **self.KWARGS)
            started = time.monotonic()
            assert client.ping()["pong"] is True
            assert time.monotonic() - started >= 0.2
            assert client.stats["requests"] == 1
            assert client.stats["retries"] == 1
            assert client.stats["ambiguous_retries"] == 1
            assert client.stats["reconnects"] == 1
            client.close()

    def test_late_reply_is_never_taken_for_the_next_request(self, connect):
        def script(index, sock):
            if index == 0:
                request = read_json_request(sock)
                time.sleep(0.5)  # past the client's timeout
                sock.sendall(_pong(dict(request, payload="late")))
            _answer_pings(sock)

        with scripted_server(script) as (host, port):
            client = connect(host, port, timeout=0.2, **self.KWARGS)
            assert client.ping("first")["payload"] == "first"
            time.sleep(0.5)  # the late frame is on the wire by now
            assert client.ping("second")["payload"] == "second"
            assert client.stats["ambiguous_retries"] == 1
            client.close()

    def test_reply_is_matched_by_id_not_by_arrival(self, connect):
        def script(index, sock):
            while (request := read_json_request(sock)) is not None:
                stale = dict(request, id=request["id"] + 1000,
                             payload="stale")
                sock.sendall(_pong(stale) + _pong(request))

        with scripted_server(script) as (host, port):
            client = connect(host, port, timeout=2.0, **self.KWARGS)
            for word in ("one", "two", "three"):
                assert client.ping(word)["payload"] == word
            assert client.stats["retries"] == 0
            client.close()

    def test_multi_chunk_reply_is_bounded_by_one_deadline(self, connect):
        """A reply trickling in faster than one timeout per chunk, but for
        longer than one timeout in all, must time out (METRICS is the op
        whose reply spans many reads)."""
        text = "x" * 400

        def script(index, sock):
            request = read_json_request(sock)
            frame = encode_frame(ok_reply(request["id"], text=text))
            for i in range(0, len(frame), 8):  # ~2.5 s in all
                sock.sendall(frame[i:i + 8])
                time.sleep(0.05)

        with scripted_server(script) as (host, port):
            client = connect(host, port, timeout=0.3,
                             **dict(self.KWARGS, retries=0))
            started = time.monotonic()
            with pytest.raises(AequusTransportError):
                client.metrics()
            assert time.monotonic() - started < 1.5
            assert client.stats["ambiguous_retries"] == 1
            client.close()


class TestRestartUnderLoadBothDrivers:
    def test_requests_in_flight_at_kill_time_are_retried(self, small_site,
                                                         connect):
        import threading
        _, site = small_site
        backend = SiteBackend.for_site(site)
        thread = ServerThread(AequusServer(backend)).start()
        port = thread.port
        client = connect(thread.host, port, timeout=2.0, retries=8,
                         backoff_base=0.05)
        client.ping()  # warm the pool
        results = []

        def hammer():
            for _ in range(40):
                results.append(client.get_fairshare("alice"))

        worker = threading.Thread(target=hammer)
        worker.start()
        thread.stop()  # rip the server out mid-stream
        thread2 = ServerThread(AequusServer(backend, port=port)).start()
        try:
            worker.join(30.0)
            assert not worker.is_alive()
            assert results == [site.fcs.fairshare_value("alice")] * 40
            assert client.stats["transport_errors"] == 0
            client.close()
        finally:
            thread2.stop()
