"""The JSON plane is admin-only, and the bench's GET==BATCH oracle bites.

* A JSON ``BATCH`` is not an op: it must not fan out admin ops — render
  the METRICS exposition once per item while counting one request, or
  drain the tracer ring from inside a batch — on either backend.
* ``bench.serveload.check_get_batch_agree`` only compares pairs served at
  one snapshot seq and never fails on zero compared; against a quiet
  server every pair must compare, and agree.
"""

import pytest

from bench.serveload import check_get_batch_agree
from repro.obs import trace
from repro.serve import server as server_module
from repro.serve.backend import SiteBackend
from repro.serve.client import SyncAequusClient
from repro.serve.protocol import ERR_UNSUPPORTED_OP, encode_frame
from repro.serve.server import AequusServer, ServerThread
from repro.serve.shm import ShmSnapshotWriter
from repro.serve.workers import WorkerPool

from .test_robustness import raw_exchange

FAN_OUT = {"op": "BATCH", "id": 1,
           "requests": [{"op": "METRICS"}] * 10 + [{"op": "TRACE_EXPORT"}]}
IDENTITIES = ["alice", "bob", "carol", "dave", "/astro/carol", "ghost"]


@pytest.fixture
def renders(tmp_path, monkeypatch):
    """Every METRICS render, logged to a file (forked workers inherit the
    patch, and their appends land in the same file)."""
    log = tmp_path / "renders"
    log.write_text("")
    real = server_module.render_many

    def logged(registries):
        with open(log, "a") as out:
            out.write("render\n")
        return real(registries)

    monkeypatch.setattr(server_module, "render_many", logged)
    return lambda: log.read_text().count("render")


@pytest.fixture
def quiet_pool(small_site, tmp_path):
    """The small site behind a 1-worker pool, with a spool of trace events
    for its TRACE_EXPORT."""
    _, site = small_site
    spool = trace.TraceSpool(str(tmp_path / "spool.jsonl"))
    spool.append([{"name": "spooled", "ph": "X", "pid": 1, "ts": 0}])
    writer = ShmSnapshotWriter(site.name)
    writer.attach_fcs(site.fcs, irs=site.irs)
    pool = WorkerPool(writer.name, 1, site=site.name, trace_spool=spool.path)
    pool.start()
    try:
        assert pool.wait_ready(15.0)
        yield pool, spool
    finally:
        pool.stop()
        writer.close()


def _batch_then_ping(port):
    replies = raw_exchange("127.0.0.1", port,
                           [encode_frame(FAN_OUT),
                            encode_frame({"op": "PING", "id": 2})], 2)
    assert replies[0]["ok"] is False
    assert replies[0]["error"]["code"] == ERR_UNSUPPORTED_OP
    # the PING's pong is the very next frame: the batch answered once
    assert replies[1]["id"] == 2 and replies[1]["pong"] is True


class TestJsonBatchDoesNotFanOut:
    def test_site_backend_server(self, small_site, renders):
        _, site = small_site
        tracer = trace.Tracer(enabled=True)
        previous = trace.set_default_tracer(tracer)
        thread = ServerThread(AequusServer(SiteBackend.for_site(site))).start()
        try:
            with tracer.span("recorded"):
                pass
            _batch_then_ping(thread.port)
            assert renders() == 0
            assert [e["name"] for e in tracer.events()] == ["recorded"]
        finally:
            thread.stop()
            trace.set_default_tracer(previous)

    def test_one_worker_pool(self, quiet_pool, renders):
        pool, spool = quiet_pool
        _batch_then_ping(pool.port)
        assert renders() == 0
        assert [e["name"] for e in spool.drain()] == ["spooled"]


class TestGetBatchOracle:
    """The bench oracle is not vacuous: every pair compares, none differ."""

    def test_in_process_server(self, served):
        _, _, thread = served
        with SyncAequusClient(thread.host, thread.port,
                              timeout=5.0) as client:
            compared, wrong = check_get_batch_agree(client, IDENTITIES)
        assert (compared, wrong) == (len(IDENTITIES), 0)

    def test_one_worker_pool(self, quiet_pool):
        pool, _ = quiet_pool
        with SyncAequusClient(port=pool.port, timeout=5.0) as client:
            compared, wrong = check_get_batch_agree(client, IDENTITIES)
        assert (compared, wrong) == (len(IDENTITIES), 0)
