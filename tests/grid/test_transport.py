"""TcpUssTransport: delivery, pump semantics, reconnect, accounting."""

import time

import pytest

from repro.grid.transport import TcpUssTransport
from repro.services.messages import UsageDeltaMessage


def delta(seq, site="a", **kwargs):
    kwargs.setdefault("sent_at", float(seq))
    kwargs.setdefault("interval", 1.0)
    return UsageDeltaMessage(site=site, seq=seq, full=(seq == 1), **kwargs)


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def pair():
    a = TcpUssTransport("a").start()
    b = TcpUssTransport("b").start()
    a.add_peer("uss:b", "127.0.0.1", b.port)
    b.add_peer("uss:a", "127.0.0.1", a.port)
    yield a, b
    a.close()
    b.close()


class TestDelivery:
    def test_send_pump_dispatch(self, pair):
        a, b = pair
        received = []
        b.connect("uss:b", received.append)
        message = delta(1)
        assert a.send("uss:a", "uss:b", message)
        assert wait_for(lambda: b.pending() > 0)
        # nothing is dispatched until the owning thread pumps
        assert received == []
        assert b.pump() == 1
        assert received == [message]
        assert b.stats.delivered == 1

    def test_many_frames_in_order(self, pair):
        a, b = pair
        received = []
        b.connect("uss:b", received.append)
        messages = [delta(seq) for seq in range(1, 21)]
        for message in messages:
            a.send("uss:a", "uss:b", message)
        assert wait_for(lambda: b.pending() == 20)
        b.pump()
        assert received == messages

    def test_pump_limit(self, pair):
        a, b = pair
        received = []
        b.connect("uss:b", received.append)
        for seq in range(1, 6):
            a.send("uss:a", "uss:b", delta(seq))
        assert wait_for(lambda: b.pending() == 5)
        assert b.pump(limit=2) == 2
        assert len(received) == 2
        assert b.pump() == 3

    def test_loopback_same_transport(self, pair):
        a, _ = pair
        received = []
        a.connect("uss:a", received.append)
        message = delta(1, site="x")
        assert a.send("uss:x", "uss:a", message)
        assert a.pump() == 1
        assert received == [message]

    def test_unknown_destination_dropped(self, pair):
        a, _ = pair
        before = a.stats.dropped
        assert not a.send("uss:a", "uss:nowhere", delta(1))
        assert a.stats.dropped == before + 1

    def test_send_accounts_wire_model(self, pair):
        a, b = pair
        b.connect("uss:b", lambda m: None)
        message = delta(1, user_table=["u"], user_idx=[0], bin_idx=[0],
                        charges=[1.0])
        a.send("uss:a", "uss:b", message)
        assert a.stats.sent == 1
        assert a.stats.payload_bytes == message.wire_bytes()


class TestEndpoints:
    def test_connect_disconnect(self, pair):
        a, b = pair
        b.connect("uss:b", lambda m: None)
        with pytest.raises(ValueError):
            b.connect("uss:b", lambda m: None)
        b.disconnect("uss:b")
        b.disconnect("uss:b")  # idempotent
        b.connect("uss:b", lambda m: None)

    def test_pump_without_handler_drops(self, pair):
        a, b = pair
        a.send("uss:a", "uss:b", delta(1))
        assert wait_for(lambda: b.pending() > 0)
        before = b.stats.dropped
        assert b.pump() == 0
        assert b.stats.dropped == before + 1

    def test_duplicate_peer_rejected(self, pair):
        a, _ = pair
        with pytest.raises(ValueError):
            a.add_peer("uss:b", "127.0.0.1", 1)


class TestResilience:
    def test_reconnect_after_peer_restart(self, pair):
        a, b = pair
        received = []
        b.connect("uss:b", received.append)
        a.send("uss:a", "uss:b", delta(1))
        assert wait_for(lambda: b.pending() > 0)
        b.pump()
        port = b.port
        b.close()
        time.sleep(0.1)
        # queued while the peer is down; retained across the reconnect
        survivor = delta(2)
        a.send("uss:a", "uss:b", survivor)
        time.sleep(0.2)
        b2 = TcpUssTransport("b", port=port).start()
        try:
            received2 = []
            b2.connect("uss:b", received2.append)

            def arrived():
                b2.pump()
                return survivor in received2

            assert wait_for(arrived)
            reconnects = sum(c.value for _k, c in a._reconnects.items())
            assert reconnects >= 1
        finally:
            b2.close()

    def test_backlog_overflow_drops_and_counts(self):
        a = TcpUssTransport("a", max_backlog=4)
        a.start()
        try:
            # peer that will never answer: a bound-but-unserved port
            import socket
            gate = socket.socket()
            gate.bind(("127.0.0.1", 0))
            gate.listen(1)  # accepts nothing beyond the backlog
            a.add_peer("uss:b", "127.0.0.1", gate.getsockname()[1])
            for seq in range(1, 40):
                a.send("uss:a", "uss:b", delta(seq))

            def overflowed():
                return any(k[0] == "backlog" and c.value > 0
                           for k, c in a._frames_dropped.items())

            assert wait_for(overflowed, timeout=5.0)
            gate.close()
        finally:
            a.close()

    def test_inconsistent_delta_between_good_frames_is_dropped(self):
        """A well-framed delta whose arrays disagree used to reach the USS:
        it advanced ``_recv_seq`` and the horizon, then ``apply_arrays``
        raised on the engine thread inside ``pump``.  Now the frame dies at
        the wire boundary, is counted once, and leaves the receiver exactly
        where the good frames alone put it."""
        import json
        import socket
        import struct

        from repro.grid.wire import encode_frame
        from repro.services.network import Network
        from repro.services.uss import UsageStatisticsService
        from repro.sim.engine import SimulationEngine

        def good(seq, charge, horizon):
            return UsageDeltaMessage(
                site="a", sent_at=horizon, interval=60.0, seq=seq,
                full=(seq == 1), user_table=["u"], user_idx=[0], bin_idx=[0],
                charges=[charge], horizon=horizon, boot="b1")

        first, last = good(1, 10.0, 5.0), good(2, 20.0, 15.0)
        payload = json.dumps({
            "v": 1, "src": "uss:a", "dst": "uss:b",
            "type": "UsageDeltaMessage",
            "data": dict(last.__dict__, user_table=["x"], user_idx=[5],
                         horizon=99.0)}).encode()
        bad = struct.pack(">I", len(payload)) + payload

        engine = SimulationEngine()
        transport = TcpUssTransport("b").start()
        try:
            uss = UsageStatisticsService("b", engine, transport,
                                         histogram_interval=60.0)
            with socket.create_connection(("127.0.0.1",
                                           transport.port)) as sock:
                sock.sendall(encode_frame("uss:a", "uss:b", first) + bad
                             + encode_frame("uss:a", "uss:b", last))
                assert wait_for(lambda: transport.pending() == 2)
            assert transport.pump() == 2   # must not raise
            dropped = {k[0]: c.value
                       for k, c in transport._frames_dropped.items()}
            assert dropped["decode_error"] == 1

            sim = SimulationEngine()
            expected = UsageStatisticsService("b", sim, Network(sim),
                                              histogram_interval=60.0)
            expected._on_message(first)
            expected._on_message(last)
            assert uss._recv_seq == expected._recv_seq == {"a": 2}
            assert uss.usage_horizons(True)["a"] \
                == expected.usage_horizons(True)["a"] == 15.0
            assert uss.remote["a"].snapshot() \
                == expected.remote["a"].snapshot() == {"u": {0: 20.0}}
            assert uss.exchanges_received == 2
        finally:
            transport.close()

    def test_close_idempotent(self):
        a = TcpUssTransport("a").start()
        a.close()
        a.close()

    def test_send_after_close_refused(self):
        a = TcpUssTransport("a").start()
        a.close()
        assert not a.send("uss:a", "uss:b", delta(1))

    def test_grid_metrics_registered(self, pair):
        from repro.obs.export import render
        a, _ = pair
        text = render(a.registry)
        for family in ("aequus_grid_reconnects_total",
                       "aequus_grid_frames_total",
                       "aequus_grid_frames_dropped_total",
                       "aequus_grid_peer_bytes_total",
                       "aequus_grid_link_up"):
            assert family in text
