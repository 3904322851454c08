"""Per-core worker pool for the sharded serve plane.

One parent process owns the site stack (engine, FCS, USS) and publishes
every refresh into shared memory via
:class:`~repro.serve.shm.ShmSnapshotWriter`.  :class:`WorkerPool` forks N
worker processes; each one attaches the segment read-only
(:class:`~repro.serve.shm.ShmSnapshotReader` / ``ShmBackend``) and runs a
full :class:`~repro.serve.server.AequusServer` on its *own*
``SO_REUSEPORT`` listening socket, so the kernel load-balances accepted
connections across workers and no worker ever touches the parent heap on
the query path.

The only upstream traffic is usage ingress: workers forward REPORT_USAGE
records over a shared pipe as length-prefixed JSON (kept under
``PIPE_BUF`` so concurrent writers never interleave), and a parent drain
thread feeds them to the site's usage service.

Cross-worker observability runs over a second, tiny shared-memory block:
each worker heartbeats its counters into a fixed 16-slot u64 row, so any
single worker can answer INFO/METRICS with fleet-wide aggregates (the
``connections_active`` a client sees is the sum over all rows, not the
one worker it happened to dial), and the parent monitor republishes the
same rows into the site registry.  The monitor also restarts crashed
workers: the listening socket lives in the parent, so a restart re-forks
onto the same fd and in-flight siblings are unaffected.

All sockets are bound in the parent *before* the first fork — port 0
works (the first bind learns the port, the rest reuse it) — and the pool
must be started before the daemon's tick thread, so no forked child ever
holds a copy of a running thread's locks.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional

from ..obs import trace
from .server import AequusServer
from .shm import ShmBackend, ShmSnapshotReader, _attach

__all__ = ["WorkerPool", "WorkerStatsBlock"]

#: u64 slots per worker row in the stats block
STATS_SLOTS = 16
ROW_BYTES = STATS_SLOTS * 8
_ROW = struct.Struct("=%dQ" % STATS_SLOTS)

# row slot indices (stable: `aequus-repro probe` and tests read these;
# slot 5 is unused)
S_PID = 0
S_HEARTBEAT = 1
S_REQUESTS = 2
S_BINARY_REQUESTS = 3
S_ERRORS = 4
S_BATCHES = 6
S_BATCH_ITEMS = 7
S_CONNECTIONS = 8
S_CONNECTIONS_ACTIVE = 9
S_OVERSIZED = 10
S_MALFORMED = 11

#: aggregate dict keys, in row order (pid/heartbeat excluded)
_AGG_KEYS = (
    ("requests", S_REQUESTS),
    ("binary_requests", S_BINARY_REQUESTS),
    ("errors", S_ERRORS),
    ("batches", S_BATCHES),
    ("batch_items", S_BATCH_ITEMS),
    ("connections", S_CONNECTIONS),
    ("connections_active", S_CONNECTIONS_ACTIVE),
    ("oversized_frames", S_OVERSIZED),
    ("malformed_frames", S_MALFORMED),
)

#: one usage record must fit a single atomic pipe write
_PIPE_MSG_MAX = 3500
_PIPE_LEN = struct.Struct(">I")


class WorkerStatsBlock:
    """Fixed-size shared-memory stats table: one 16-u64 row per worker.

    Rows are written wholesale by their owning worker (a torn read of
    monitoring counters is harmless — every slot is an independent u64)
    and read by anyone: sibling workers aggregating for INFO, the parent
    monitor, tests.
    """

    def __init__(self, shm: shared_memory.SharedMemory, n_workers: int,
                 owner: bool):
        self.shm = shm
        self.n_workers = n_workers
        self._owner = owner

    @classmethod
    def create(cls, n_workers: int) -> "WorkerStatsBlock":
        shm = shared_memory.SharedMemory(create=True,
                                         size=n_workers * ROW_BYTES)
        shm.buf[:] = bytes(n_workers * ROW_BYTES)
        return cls(shm, n_workers, owner=True)

    @classmethod
    def attach(cls, name: str, n_workers: int) -> "WorkerStatsBlock":
        return cls(_attach(name), n_workers, owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    def write_row(self, worker_id: int, values: Dict[int, int]) -> None:
        row = [0] * STATS_SLOTS
        for slot, value in values.items():
            row[slot] = max(0, int(value))
        _ROW.pack_into(self.shm.buf, worker_id * ROW_BYTES, *row)

    def read_row(self, worker_id: int) -> tuple:
        return _ROW.unpack_from(self.shm.buf, worker_id * ROW_BYTES)

    def zero_row(self, worker_id: int) -> None:
        at = worker_id * ROW_BYTES
        self.shm.buf[at:at + ROW_BYTES] = bytes(ROW_BYTES)

    def rows(self) -> List[tuple]:
        return [self.read_row(i) for i in range(self.n_workers)]

    def aggregate(self) -> Dict[str, int]:
        """Fleet-wide sums over every live (pid != 0) row."""
        totals = {key: 0 for key, _ in _AGG_KEYS}
        workers = 0
        for row in self.rows():
            if row[S_PID] == 0:
                continue
            workers += 1
            for key, slot in _AGG_KEYS:
                totals[key] += row[slot]
        totals["workers"] = workers
        return totals

    def render_metrics(self) -> str:
        """Per-worker Prometheus lines (appended to METRICS scrapes)."""
        lines = [
            "# HELP aequus_worker_requests_total Requests executed per "
            "worker process",
            "# TYPE aequus_worker_requests_total counter",
        ]
        active = [
            "# HELP aequus_worker_connections_active Open connections per "
            "worker process",
            "# TYPE aequus_worker_connections_active gauge",
        ]
        for i, row in enumerate(self.rows()):
            if row[S_PID] == 0:
                continue
            label = 'worker="%d",pid="%d"' % (i, row[S_PID])
            lines.append("aequus_worker_requests_total{%s} %d"
                         % (label, row[S_REQUESTS]))
            active.append("aequus_worker_connections_active{%s} %d"
                          % (label, row[S_CONNECTIONS_ACTIVE]))
        return "\n".join(lines + active) + "\n"

    def close(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # a live view pins the mmap; leave it to exit
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def _server_row(server: AequusServer) -> Dict[int, int]:
    stats = server.stats
    return {
        S_PID: os.getpid(),
        S_REQUESTS: stats["requests"],
        S_BINARY_REQUESTS: stats["binary_requests"],
        S_ERRORS: stats["errors"],
        S_BATCHES: stats["batches"],
        S_BATCH_ITEMS: stats["batch_items"],
        S_CONNECTIONS: stats["connections"],
        S_CONNECTIONS_ACTIVE: stats["connections_active"],
        S_OVERSIZED: stats["oversized_frames"],
        S_MALFORMED: stats["malformed_frames"],
    }


async def _worker_serve(server: AequusServer, stats: WorkerStatsBlock,
                        worker_id: int, heartbeat: float) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    await server.start()
    beats = 0
    while not stop.is_set():
        beats += 1
        row = _server_row(server)
        row[S_HEARTBEAT] = beats
        stats.write_row(worker_id, row)
        try:
            await asyncio.wait_for(stop.wait(), heartbeat)
        except asyncio.TimeoutError:
            pass
    await server.stop()


def _worker_main(worker_id: int, n_workers: int, shm_name: str,
                 stats_name: str, socks: List[socket.socket],
                 usage_wfd: int, site: str, refresh_interval: float,
                 heartbeat: float,
                 trace_spool: Optional[str],
                 trace_meta: Optional[Dict[str, Any]],
                 server_kwargs: Dict[str, Any]) -> None:
    """Forked worker entry point: serve the shm plane on socks[worker_id].

    Runs only child-owned state — the parent heap it inherited (engine,
    FCS, registry) is never touched, so copy-on-write keeps the workers
    cheap and the parent's threads can never deadlock a child.
    """
    # siblings' listening sockets were inherited by the fork; close them so
    # a crashed sibling's accept queue never strands connections here
    for i, sock in enumerate(socks):
        if i != worker_id:
            sock.close()
    # the fork copied the parent tracer's ring: discard the stale events
    # now so nothing in this process can ever export them a second time
    # (the parent still owns the originals and spools them itself)
    trace.default_tracer().clear()
    if trace_spool is not None:
        spool = trace.TraceSpool(trace_spool)
        meta = dict(trace_meta or {})

        def trace_export() -> Dict[str, Any]:
            # exactly-once fleet-wide: the flock-guarded drain empties the
            # parent's spool no matter which worker the client dialed
            body = dict(meta)
            body["events"] = spool.drain()
            body["dropped"] = 0
            body["worker"] = worker_id
            return body

        server_kwargs = dict(server_kwargs, trace_export=trace_export)
    stats = WorkerStatsBlock.attach(stats_name, n_workers)
    reader = ShmSnapshotReader(shm_name)

    def usage_sink(user: str, start: float, end: float, cores: int) -> bool:
        payload = json.dumps({"u": user, "s": start, "e": end,
                              "c": cores}).encode("utf-8")
        if len(payload) > _PIPE_MSG_MAX:
            return False
        # one write, under PIPE_BUF: atomic even with N workers writing
        os.write(usage_wfd, _PIPE_LEN.pack(len(payload)) + payload)
        return True

    backend = ShmBackend(reader, site=site, usage_sink=usage_sink,
                         refresh_interval=refresh_interval)

    def aggregator() -> Dict[str, int]:
        # refresh our own row first so INFO is exact for the answering
        # worker and at most one heartbeat stale for its siblings
        stats.write_row(worker_id, _server_row(server))
        return stats.aggregate()

    server = AequusServer(
        backend, sock=socks[worker_id],
        identity={"worker": worker_id, "workers": n_workers, "mode": "shm"},
        stats_aggregator=aggregator,
        extra_metrics=stats.render_metrics,
        **server_kwargs)
    try:
        asyncio.run(_worker_serve(server, stats, worker_id, heartbeat))
    except KeyboardInterrupt:
        pass
    finally:
        reader.close()
        stats.close()


class WorkerPool:
    """Fork, supervise, and aggregate N shm-serving worker processes."""

    def __init__(self, shm_name: str, n_workers: int,
                 host: str = "127.0.0.1", port: int = 0,
                 site: str = "",
                 usage_sink: Optional[Callable[[str, float, float, int],
                                               Any]] = None,
                 registry=None,
                 refresh_interval: float = 30.0,
                 heartbeat: float = 0.25,
                 trace_spool: Optional[str] = None,
                 trace_meta: Optional[Dict[str, Any]] = None,
                 **server_kwargs: Any):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.shm_name = shm_name
        self.n_workers = n_workers
        self.host = host
        self.port = port
        self.site = site
        self.usage_sink = usage_sink
        self.refresh_interval = refresh_interval
        self.heartbeat = heartbeat
        self.trace_spool = trace_spool
        self.trace_meta = trace_meta
        self.server_kwargs = server_kwargs
        self.restarts = 0
        self._ctx = multiprocessing.get_context("fork")
        self._socks: List[socket.socket] = []
        self._procs: List[Optional[Any]] = [None] * n_workers
        self._stats: Optional[WorkerStatsBlock] = None
        self._usage_rfd: Optional[int] = None
        self._usage_wfd: Optional[int] = None
        self._drain: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._started = False
        self._g_alive = None
        self._g_restarts = None
        if registry is not None:
            self._g_alive = registry.gauge(
                "aequus_workers_alive",
                "Worker processes currently serving").labels()
            self._g_restarts = registry.counter(
                "aequus_worker_restarts_total",
                "Workers restarted after a crash").labels()

    # -- lifecycle -----------------------------------------------------------

    def _bind_socket(self, port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, port))
        sock.listen(1024)
        return sock

    def start(self) -> "WorkerPool":
        if self._started:
            return self
        # bind every listening socket pre-fork: port 0 resolves on the
        # first bind and the rest SO_REUSEPORT onto the learned port
        first = self._bind_socket(self.port)
        self.port = first.getsockname()[1]
        self._socks = [first] + [self._bind_socket(self.port)
                                 for _ in range(self.n_workers - 1)]
        self._stats = WorkerStatsBlock.create(self.n_workers)
        self._usage_rfd, self._usage_wfd = os.pipe()
        self._stopping.clear()
        for i in range(self.n_workers):
            self._procs[i] = self._spawn(i)
        self._drain = threading.Thread(target=self._drain_usage,
                                       name="aequus-usage-drain", daemon=True)
        self._drain.start()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="aequus-worker-monitor",
                                         daemon=True)
        self._monitor.start()
        self._started = True
        if self._g_alive is not None:
            self._g_alive.set(self.n_workers)
        return self

    def _spawn(self, worker_id: int):
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self.n_workers, self.shm_name,
                  self._stats.name, self._socks, self._usage_wfd,
                  self.site, self.refresh_interval, self.heartbeat,
                  self.trace_spool, self.trace_meta, self.server_kwargs),
            name=f"aequus-worker-{worker_id}", daemon=True)
        proc.start()
        return proc

    def stop(self) -> None:
        if not self._started:
            return
        self._stopping.set()
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for i, proc in enumerate(self._procs):
            if proc is not None:
                proc.join(5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(1.0)
                self._procs[i] = None
        if self._monitor is not None:
            self._monitor.join(2.0)
            self._monitor = None
        # closing the last write end EOFs the drain thread (children's
        # inherited copies died with them)
        if self._usage_wfd is not None:
            os.close(self._usage_wfd)
            self._usage_wfd = None
        if self._drain is not None:
            self._drain.join(2.0)
            self._drain = None
        for sock in self._socks:
            sock.close()
        self._socks = []
        if self._stats is not None:
            self._stats.close()
            self._stats.unlink()
            self._stats = None
        self._started = False
        if self._g_alive is not None:
            self._g_alive.set(0)

    # -- parent-side threads ---------------------------------------------------

    def _drain_usage(self) -> None:
        rfile = os.fdopen(self._usage_rfd, "rb")
        self._usage_rfd = None  # ownership moved to the file object
        try:
            while True:
                head = rfile.read(_PIPE_LEN.size)
                if len(head) < _PIPE_LEN.size:
                    return  # EOF: every writer closed
                (length,) = _PIPE_LEN.unpack(head)
                payload = rfile.read(length)
                if len(payload) < length:
                    return
                try:
                    record = json.loads(payload)
                    if self.usage_sink is not None:
                        self.usage_sink(record["u"], float(record["s"]),
                                        float(record["e"]),
                                        int(record.get("c", 1)))
                except Exception:
                    continue  # one bad record must not kill ingress
        finally:
            rfile.close()

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.heartbeat):
            alive = 0
            for i, proc in enumerate(self._procs):
                if proc is None:
                    continue
                if proc.is_alive():
                    alive += 1
                    continue
                proc.join(0.1)
                if self._stopping.is_set():
                    break
                # crash: zero the stale row (its connections are gone) and
                # re-fork onto the same listening socket
                self.restarts += 1
                if self._g_restarts is not None:
                    self._g_restarts.inc()
                self._stats.zero_row(i)
                self._procs[i] = self._spawn(i)
                alive += 1
            if self._g_alive is not None:
                self._g_alive.set(alive)

    # -- observability ---------------------------------------------------------

    def aggregate(self) -> Dict[str, int]:
        """Fleet-wide counters (same shape workers serve in INFO)."""
        if self._stats is None:
            return {"workers": 0}
        totals = self._stats.aggregate()
        totals["restarts"] = self.restarts
        return totals

    def worker_pids(self) -> List[int]:
        return [proc.pid for proc in self._procs if proc is not None]

    def alive(self) -> int:
        return sum(1 for proc in self._procs
                   if proc is not None and proc.is_alive())

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until every worker has heartbeat at least once."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._stats is not None and all(
                    row[S_PID] != 0 and row[S_HEARTBEAT] > 0
                    for row in self._stats.rows()):
                return True
            time.sleep(0.02)
        return False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
