"""Shared fixtures for serve-plane tests: one small served site per test,
either client driver behind one factory, and a scriptable fake server."""

import asyncio
import contextlib
import socket
import threading

import pytest

from repro.core.policy import PolicyTree
from repro.core.usage import UsageRecord
from repro.serve.backend import SiteBackend
from repro.serve.client import AequusClient, SyncAequusClient
from repro.serve.protocol import (BIN_HEADER, BIN_REQ_MAGIC, HEADER,
                                  decode_payload)
from repro.serve.server import AequusServer, ServerThread
from repro.serve.shm import ShmSnapshotWriter
from repro.serve.workers import WorkerPool
from repro.services.network import Network
from repro.services.site import AequusSite, SiteConfig
from repro.sim.engine import SimulationEngine


@pytest.fixture
def small_site():
    """A two-VO site with usage folded in and a published FCS refresh."""
    engine = SimulationEngine()
    network = Network(engine)
    policy = PolicyTree.from_dict({
        "hpc": {"alice": 3, "bob": 1},
        "astro": {"carol": 2, "dave": 2},
    })
    site = AequusSite("a", engine, network, policy=policy,
                      config=SiteConfig(histogram_interval=10.0,
                                        uss_exchange_interval=5.0,
                                        ums_refresh_interval=5.0,
                                        fcs_refresh_interval=5.0))
    site.irs.store_mapping("sys_alice", "alice")
    site.irs.store_mapping("sys_bob", "bob")
    site.uss.record_job(UsageRecord(user="alice", site="a",
                                    start=0.0, end=900.0))
    site.uss.record_job(UsageRecord(user="carol", site="a",
                                    start=0.0, end=300.0))
    engine.run_until(11.0)
    return engine, site


@pytest.fixture
def served(small_site):
    """The small site behind a live aequusd on an ephemeral port."""
    engine, site = small_site
    backend = SiteBackend.for_site(site)
    thread = ServerThread(AequusServer(backend)).start()
    yield engine, site, thread
    thread.stop()


@pytest.fixture
def one_worker(small_site):
    """The small site served by a one-worker pool over shared memory."""
    _, site = small_site
    writer = ShmSnapshotWriter(site.name)
    writer.attach_fcs(site.fcs, irs=site.irs)
    pool = WorkerPool(writer.name, 1, site=site.name).start()
    assert pool.wait_ready(15.0)
    yield pool
    pool.stop()
    writer.close()


@pytest.fixture
def client(served):
    _, _, thread = served
    with SyncAequusClient(thread.host, thread.port, timeout=5.0,
                          retries=2, backoff_base=0.01) as c:
        yield c


class LoopDriven:
    """The pipelining :class:`AequusClient` behind blocking calls (its loop
    runs on the calling thread), so one test body drives either client."""

    def __init__(self, host, port, **kwargs):
        self._loop = asyncio.new_event_loop()
        self._client = AequusClient(host, port, **kwargs)
        self.stats = self._client.stats
        self.leaf_ids = self._client.leaf_ids

    def __getattr__(self, name):
        op = getattr(self._client, name)
        return lambda *args, **kwargs: self._loop.run_until_complete(
            op(*args, **kwargs))

    def close(self):
        if not self._loop.is_closed():
            self._loop.run_until_complete(self._client.aclose())
            self._loop.close()


@pytest.fixture(params=["blocking", "pipelining"])
def connect(request):
    """``connect(host, port, **client_kwargs)`` for each of the two client
    drivers in turn; whatever it handed out is closed at teardown."""
    driver = SyncAequusClient if request.param == "blocking" else LoopDriven
    made = []

    def _connect(host, port, **kwargs):
        made.append(driver(host, port, **kwargs))
        return made[-1]

    yield _connect
    for made_client in made:
        made_client.close()


def _recv_exactly(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def read_json_request(sock):
    """One JSON request frame off a blocking socket (None at EOF)."""
    head = _recv_exactly(sock, HEADER.size)
    body = head and _recv_exactly(sock, HEADER.unpack(head)[0])
    return decode_payload(body) if body else None


def read_request(sock):
    """One request frame of either framing (None at EOF): the JSON
    payload, or ``(opcode, rid, body)`` for a binary frame."""
    first = sock.recv(1, socket.MSG_PEEK)
    if not first:
        return None
    if first[0] != BIN_REQ_MAGIC:
        return read_json_request(sock)
    head = _recv_exactly(sock, BIN_HEADER.size)
    _, opcode, _flags, rid, body_len = BIN_HEADER.unpack(head)
    return opcode, rid, _recv_exactly(sock, body_len)


@contextlib.contextmanager
def scripted_server(script):
    """A listener that runs ``script(index, sock)`` on a thread for its
    ``index``-th connection (then closes it); yields ``(host, port)``.

    For faults no real aequusd produces on demand: garbage, late or
    trickled replies, an opcode the server does not know.  Admin ops
    (PING, METRICS) arrive as JSON frames :func:`read_json_request` can
    read; :func:`read_request` reads both framings.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stopping = threading.Event()
    handlers = []

    def _handle(index, sock):
        with sock:
            try:
                script(index, sock)
            except OSError:
                pass  # the client hung up on a script still talking

    def _accept():
        while not stopping.is_set():
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            sock.settimeout(5.0)
            handlers.append(threading.Thread(
                target=_handle, args=(len(handlers), sock), daemon=True))
            handlers[-1].start()

    acceptor = threading.Thread(target=_accept, daemon=True)
    acceptor.start()
    try:
        yield listener.getsockname()
    finally:
        stopping.set()
        acceptor.join(5.0)
        listener.close()
        for handler in handlers:
            handler.join(5.0)
        assert not acceptor.is_alive()
        assert not any(handler.is_alive() for handler in handlers)
