"""The METRICS op, the metrics CLI, snapshot staleness, and the
connections_active gauge under abnormal-disconnect churn."""

import socket
import time

import pytest

from repro.cli import main
from repro.obs.export import render_many
from repro.serve.backend import SiteBackend
from repro.serve.protocol import HEADER, encode_frame
from repro.serve.server import AequusServer, ServerThread
from repro.serve.snapshot import SnapshotStore

from .test_robustness import raw_exchange


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestMetricsOp:
    def test_scrape_is_prometheus_exposition(self, served, client):
        client.lookup_fairshare("alice")
        text = client.metrics()
        assert text.endswith("\n")
        # server, FCS, USS/UMS and cache series in one scrape (the site
        # registry is shared across the service stack)
        assert "# TYPE aequus_requests_total counter" in text
        assert "# TYPE aequus_request_seconds histogram" in text
        assert "aequus_fcs_refreshes_total" in text
        assert "aequus_refresh_seconds_bucket" in text
        assert "aequus_uss_records_total" in text
        assert "aequus_ums_refreshes_total" in text
        assert "aequus_cache_lookups_total" in text
        assert "aequus_connections_active" in text

    def test_scrape_carries_content_type(self, served):
        _, _, thread = served
        (reply,) = raw_exchange(thread.host, thread.port,
                                [encode_frame({"op": "METRICS", "id": 1})], 1)
        assert reply["ok"] is True
        assert reply["content_type"] == "text/plain; version=0.0.4"

    def test_scrape_matches_direct_render_byte_for_byte(self, served, client):
        _, _, thread = served
        client.ping()
        client.lookup_fairshare("alice")
        text = client.metrics()
        server = thread.server
        # nothing ran since the scrape (engine parked, connection idle), so
        # a direct render of the same registries must agree exactly
        assert text == render_many([server.registry,
                                    server.backend.registry])

    def test_scrape_observes_itself_exactly_once(self, served, client):
        _, _, thread = served
        before = thread.server.stats["requests"]
        text = client.metrics()
        assert thread.server.stats["requests"] == before + 1
        # ...and the reply already includes its own request
        assert f"aequus_requests_total" in text
        line = next(l for l in text.splitlines()
                    if l.startswith("aequus_requests_total"))
        assert line.rsplit(" ", 1)[1] == str(before + 1)

    def test_metrics_op_is_never_latency_timed(self, served, client):
        _, _, thread = served
        client.metrics()
        client.metrics()
        hist = thread.server._op_latency["METRICS"]
        assert hist.count == 0


class TestMetricsCli:
    def test_cli_prints_the_scrape(self, served, capsys):
        _, _, thread = served
        rc = main(["metrics", "--host", thread.host,
                   "--port", str(thread.port)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE aequus_requests_total counter" in out
        assert "aequus_refresh_seconds_bucket" in out

    def test_cli_unreachable_daemon_exits_nonzero(self, capsys):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        rc = main(["metrics", "--port", str(port), "--timeout", "0.5"])
        assert rc == 2
        assert "unreachable" in capsys.readouterr().err


class TestSnapshotStaleness:
    def test_info_reports_age_and_staleness(self, client):
        info = client.info()["info"]
        assert info["snapshot_age"] >= 0.0
        assert info["staleness"] == "fresh"

    def test_staleness_degrades_with_age(self, small_site):
        engine, site = small_site
        backend = SiteBackend.for_site(site)
        site.fcs.stop()  # refresh loop gone: the snapshot only ages
        interval = backend.refresh_interval
        now = site.fcs.computed_at
        assert backend.store.staleness(now + interval, interval) == "fresh"
        assert backend.store.staleness(now + 2 * interval, interval) == "stale"
        assert backend.store.staleness(now + 4 * interval, interval) == "dead"

    def test_empty_store_has_no_age_or_verdict(self):
        store = SnapshotStore()
        assert store.age(100.0) is None
        assert store.staleness(100.0, 30.0) is None

    def test_store_age_tracks_current_snapshot(self, small_site):
        _, site = small_site
        store = SnapshotStore.for_fcs(site.fcs)
        t0 = store.current().computed_at
        assert store.age(t0) == 0.0
        assert store.age(t0 + 7.5) == 7.5


class TestConnectionGaugeChurn:
    """Satellite: no disconnect path may leak connections_active."""

    def _gauge(self, server):
        return server.stats["connections_active"]

    def test_clean_connect_disconnect(self, served):
        _, _, thread = served
        for _ in range(3):
            raw_exchange(thread.host, thread.port,
                         [encode_frame({"op": "PING", "id": 1})], 1)
        assert wait_until(lambda: self._gauge(thread.server) == 0)
        assert thread.server.stats["connections"] >= 3

    def test_oversized_frame_abort_releases_the_gauge(self, small_site):
        _, site = small_site
        server = AequusServer(SiteBackend.for_site(site), max_frame=1024)
        thread = ServerThread(server).start()
        try:
            for _ in range(5):
                raw_exchange(thread.host, thread.port,
                             [HEADER.pack(1 << 20)], 2)
            assert wait_until(lambda: self._gauge(server) == 0)
            assert self._gauge(server) == 0  # and never negative
        finally:
            thread.stop()

    def test_malformed_frame_then_abrupt_close(self, served):
        _, _, thread = served
        body = b"garbage {"
        for _ in range(5):
            # close without reading the error reply
            sock = socket.create_connection((thread.host, thread.port))
            sock.sendall(HEADER.pack(len(body)) + body)
            sock.close()
        assert wait_until(lambda: self._gauge(thread.server) == 0)

    def test_partial_frame_then_close(self, served):
        _, _, thread = served
        for _ in range(5):
            sock = socket.create_connection((thread.host, thread.port))
            sock.sendall(HEADER.pack(4096) + b"only-a-prefix")
            sock.close()
        assert wait_until(lambda: self._gauge(thread.server) == 0)

    def test_non_reading_client_killed_under_backpressure(self, small_site):
        # fill the bounded reply queue (writer blocked on a dead socket),
        # then vanish: the reader must still unwind and drop the gauge
        _, site = small_site
        server = AequusServer(SiteBackend.for_site(site), max_inflight=4,
                              write_buffer_limit=4096)
        thread = ServerThread(server).start()
        try:
            payload = encode_frame(
                {"op": "PING", "id": 1, "payload": "x" * 8192})
            for _ in range(3):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.connect((thread.host, thread.port))
                sock.settimeout(0.5)
                try:
                    for _ in range(100):
                        sock.sendall(payload)
                except socket.timeout:
                    pass
                # abort (RST) instead of FIN: the writer dies mid-drain
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                b"\x01\x00\x00\x00\x00\x00\x00\x00")
                sock.close()
            assert wait_until(lambda: self._gauge(server) == 0, timeout=10.0)
        finally:
            thread.stop()

    def test_gauge_matches_live_connections(self, served, client):
        _, _, thread = served
        client.ping()  # the pooled connection is dialed lazily
        assert wait_until(lambda: self._gauge(thread.server) == 1)
        total = thread.server.stats["connections"]
        assert total >= 1
