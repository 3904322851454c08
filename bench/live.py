"""The live systems and their open-loop update driver.

``GridSystem`` boots real ``grid-node`` daemons through the repo's own
:class:`~repro.grid.harness.GridHarness`; ``DaemonSystem`` launches one
``AequusDaemon`` (shm workers included) as a subprocess of the benchmark.
Both are observed through the front door only — the serve port.

The update driver is an **open loop**: job completions are reported on a
schedule fixed before the run, whatever the system does, and each delay is
timed from the moment the report was *due*, so a stall also costs the
reports queued behind it; how late the generator itself ran is reported
beside the delays.

When does a served priority "reflect" a report?  Under the percental
projection a user's value falls only when *their own* usage share grows:
everyone else's reports shrink it and push the value up.  Each in-flight
report goes to its own probe user, and the first poll that serves that
user a *lower* value than the poll before is the first reply that
reflects the report — exact even with several reports in flight.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.grid.harness import GridHarness, GridSpec, parse_metrics
from repro.serve.client import AequusClient, SyncAequusClient
from repro.serve.protocol import (BIN_ACCEPTED, BIN_HEADER, BST_OK,
                                  bin_report_usage)

from . import sitegen
from .spans import traced_slot
from .spec import WorkloadSpec

__all__ = ["GOLDEN", "stratified_schedule", "phase_sweep", "Injection",
           "UpdateResult", "GridSystem", "DaemonSystem", "drive_updates",
           "UsageWriter"]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: mean wall seconds between open-loop reports, and the remote poll period
INJECTION_SPACING = 0.05
POLL_INTERVAL = 0.005
#: a served value must fall by more than this to count as a fall
VALUE_EPS = 1e-10
#: an injection not reflected after this long has failed
UPDATE_TIMEOUT = 10.0
SRC_ROOT = Path(__file__).resolve().parents[1] / "src"
REPO_ROOT = Path(__file__).resolve().parents[1]


def stratified_schedule(n: int, spacing: float, period: float) -> List[float]:
    """Due times (seconds from start) of ``n`` open-loop injections.

    Injection *i* is due at the first instant at or after ``i * spacing``
    whose phase within the system's ``period`` (its exchange tick) is
    ``frac(i * golden ratio)`` — the lowest-discrepancy sequence there is,
    so any prefix of the schedule covers the tick phase evenly and the
    median delay does not depend on where the ticks happen to fall.
    """
    due = []
    for i in range(n):
        phase = (i * GOLDEN) % 1.0
        periods = math.ceil(i * spacing / period - phase)
        due.append((periods + phase) * period)
    # with spacing < period, neighbours can swap places: send in time order
    return sorted(due)


def phase_sweep(exchange: float, refresh: float) -> float:
    """Seconds over which two tick trains of these periods pass through
    every relative phase (their beat period); infinite for equal periods,
    whose relative phase never moves.  The injection window is cut to
    whole sweeps when it holds one."""
    if exchange == refresh:
        return math.inf
    return round(exchange * refresh / abs(exchange - refresh), 9)


@dataclass
class Injection:
    index: int
    origin: str
    target: str
    user: str
    due: float
    sent: float = 0.0
    accepted: float = 0.0
    detected: Optional[float] = None
    traced: bool = False
    drained: Optional[float] = None


@dataclass
class UpdateResult:
    injections: List[Injection] = field(default_factory=list)
    poll_us: List[float] = field(default_factory=list)
    refused: int = 0
    #: times a driver client re-resolved its leaf ids after EPOCH_CHANGED
    epoch_changes: int = 0
    scrapes: Dict[str, Tuple[Dict[str, float], Dict[str, float]]] = \
        field(default_factory=dict)


def _child_env(workdir: Path) -> Dict[str, str]:
    """Children import ``repro`` from src/ and keep temp files in-tree."""
    env = dict(os.environ)
    paths = [str(SRC_ROOT), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(workdir)
    return env


class _LiveBase:
    """What the drivers need from a system reachable only by its ports."""

    host = "127.0.0.1"
    #: (origin, target) pairs an update travels
    pairs: List[Tuple[str, str]]
    #: probe users per origin site
    probes: Dict[str, List[str]]
    #: scheduler account -> grid identity (identity map when no IRS)
    accounts: Dict[str, str]
    has_irs: bool

    def port(self, site: str) -> int:
        raise NotImplementedError

    @property
    def serve_port(self) -> int:
        return self.port(self.pairs[0][1])

    def _sync_clock(self) -> None:
        """Estimate the daemons' virtual clock offset from wall time."""
        with SyncAequusClient(self.host, self.serve_port) as client:
            wall = time.time()
            self._vnow_offset = float(client.info()["info"]["time"]) - wall

    def vnow(self) -> float:
        return time.time() + self._vnow_offset

    def probe_job(self, rng: np.random.Generator) -> Tuple[float, float, int]:
        """(start, end, cores) of the job a probe report carries: ended at
        least half a histogram bin ago, like every job the bench reports."""
        record = sitegen.job_record("probe", "", self.vnow(), rng)
        return record.start, record.end, 1


class GridSystem(_LiveBase):
    """Real ``grid-node`` daemons under the repo's GridHarness."""

    has_irs = False

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.grid_spec = GridSpec(
            sites=2, users=spec.users, seed=seed, proxies=False,
            exchange_interval=spec.exchange_interval,
            refresh_interval=spec.refresh_interval,
            histogram_interval=sitegen.HISTOGRAM_INTERVAL)
        self.harness: Optional[GridHarness] = None

    def build(self) -> "GridSystem":
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.harness = GridHarness(self.grid_spec,
                                   workdir=str(self.workdir)).start()
        names = self.grid_spec.site_names()
        self.harness.wait_converged(
            max_staleness=4 * self.spec.exchange_interval, timeout=30.0)
        policy = sitegen.grid_policy(self.spec.users, self.seed)
        slices = sitegen.site_slices(policy, len(names))
        self.probes = dict(zip(names, slices))
        self.pairs = [(a, b) for a in names for b in names if a != b]
        everyone = [u for part in slices for u in part]
        self.accounts = {u: u for u in everyone[:sitegen.PASS_USERS]}
        self._sync_clock()
        self._preload(names, slices)
        # the harness's sync clients are closed so only the drivers' own
        # connections stay open during the measured phases
        for name in names:
            self.harness._drop_client(name)
        return self

    def _preload(self, names: List[str], slices: List[List[str]]) -> None:
        """Usage history: one job per user, reported at the user's site.

        A grid-node seeds itself with five sub-second jobs, so without
        this the first probe reports would *be* the grid's usage and a
        probe user's share would swing on every other report.  Setup ends
        when both sites serve every user the same converged value.
        """
        rng = np.random.default_rng([self.seed, 4])
        for name, users in zip(names, slices):
            client = self.harness.client(name)
            for user in users:
                start, end, cores = self.probe_job(rng)
                if not client.report_usage(user, start, end, cores):
                    raise RuntimeError(f"{name} refused preload usage")
        everyone = [u for part in slices for u in part]
        deadline = time.monotonic() + 30.0
        while True:
            views = [self.harness.client(n).batch_lookup_fairshare(everyone)
                     for n in names]
            base = views[0]
            moved = len({v for v, _k in base.values()}) > 1
            same = all(abs(view[u][0] - base[u][0]) <= 1e-9
                       for view in views[1:] for u in everyone)
            if moved and same and all(k for _v, k in base.values()):
                # hold for one more exchange so no delta is still in flight
                time.sleep(self.spec.exchange_interval)
                again = self.harness.client(names[0]).batch_lookup_fairshare(
                    everyone)
                if again == base:
                    return
            if time.monotonic() > deadline:
                raise TimeoutError("grid never converged on preload usage")
            time.sleep(0.05)

    def port(self, site: str) -> int:
        return self.harness.serve_ports[site]

    def probe_job(self, rng: np.random.Generator) -> Tuple[float, float, int]:
        # a grid-node's virtual clock starts at zero when the harness
        # boots it, so there is no past to report into: a short wide job
        # that ended a moment ago, inside the first histogram bin like the
        # usage the node seeded itself with
        end = max(0.5, self.vnow() - 0.25)
        return end - 0.5, end, 32

    def pids(self) -> List[int]:
        return [p.pid for p in self.harness.procs.values()]

    def close(self) -> None:
        if self.harness is not None:
            self.harness.stop()
            self.harness = None


class DaemonSystem(_LiveBase):
    """One bench-launched ``AequusDaemon`` with shm-serving workers."""

    has_irs = True

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self._log = None
        #: per-layer figures the daemon wrote about itself as it exited
        self.layer_report: Dict[str, float] = {}

    def build(self) -> "DaemonSystem":
        spec = self.spec
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._log = open(self.workdir / "daemon.log", "ab")
        cmd = [sys.executable, "-m", "bench.daemon_main",
               "--users", str(spec.users), "--seed", str(self.seed),
               "--exchange-interval", str(spec.exchange_interval),
               "--refresh-interval", str(spec.refresh_interval),
               "--layers-out", str(self.workdir / "layers.json")]
        self.proc = subprocess.Popen(
            cmd, env=_child_env(self.workdir), cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=self._log)
        line = self._read_ready(60.0)
        ready = json.loads(line)
        self.site = ready["site"]
        self._port = int(ready["port"])
        self.worker_pids = [int(p) for p in ready["worker_pids"]]
        self.accounts = dict(ready["accounts"])
        self.probes = {self.site: list(ready["probes"])}
        self.writers = list(ready["writers"])
        self.pairs = [(self.site, self.site)]
        # "until the first converged snapshot is served"
        with SyncAequusClient(self.host, self._port, timeout=30.0) as client:
            deadline = time.monotonic() + 30.0
            while not client.lookup_fairshare(ready["witness"])[1]:
                if time.monotonic() > deadline:
                    raise TimeoutError("daemon never served its snapshot")
                time.sleep(0.02)
        self._sync_clock()
        return self

    def _read_ready(self, timeout: float) -> str:
        """The child's one JSON line, or its death, whichever is first."""
        box: List[bytes] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(timeout)
        if not box or not box[0]:
            self.close()
            raise RuntimeError(
                f"daemon failed to boot (see {self.workdir / 'daemon.log'})")
        return box[0].decode("utf-8")

    def port(self, site: str) -> int:
        return self._port

    def pids(self) -> List[int]:
        return [self.proc.pid, *self.worker_pids]

    def close(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(15.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(10.0)
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.proc = None
            report = self.workdir / "layers.json"
            if report.is_file():
                self.layer_report = json.loads(report.read_text())
        if self._log is not None:
            self._log.close()
            self._log = None


# -- background writer --------------------------------------------------------

class UsageWriter:
    """Reports job completions at a fixed rate on its own connection, from
    its own thread, for as long as the reader's phases run (open loop: a
    slow reply does not thin the schedule, it makes the writer late).

    It speaks pre-packed binary REPORT_USAGE frames over a bare socket, as
    a C ``libaequus`` would: the thread spends its time blocked in the
    kernel, not holding this process's interpreter lock against the
    reader whose latency is being measured.
    """

    def __init__(self, system: _LiveBase, rate: float, seed: int):
        self.system = system
        self.rate = rate
        self.rng = np.random.default_rng([seed, 3])
        self.sent = 0
        self.refused = 0
        self.late_ms: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-writer",
                                        daemon=True)

    def start(self) -> "UsageWriter":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(15.0)

    def _run(self) -> None:
        system = self.system
        site = system.pairs[0][0]
        users = system.writers
        interval = 1.0 / self.rate
        head = BIN_HEADER.size
        with socket.create_connection((system.host, system.port(site)),
                                      timeout=10.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            t0 = time.perf_counter()
            k = 0
            while True:
                due = t0 + k * interval
                if self._stop.wait(max(0.0, due - time.perf_counter())):
                    break
                user = users[int(self.rng.integers(0, len(users)))]
                record = sitegen.job_record(user, site, system.vnow(),
                                            self.rng)
                frame = bin_report_usage(k + 1, user, record.start,
                                         record.end, 1)
                self.late_ms.append((time.perf_counter() - due) * 1e3)
                ok = False
                try:
                    sock.sendall(frame)
                    reply = b""
                    while len(reply) < head + BIN_ACCEPTED.size:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        reply += chunk
                    if len(reply) >= head + BIN_ACCEPTED.size:
                        status = BIN_HEADER.unpack_from(reply, 0)[1]
                        ok = status == BST_OK and bool(
                            BIN_ACCEPTED.unpack_from(reply, head)[0])
                except OSError:
                    ok = False
                self.sent += 1
                if not ok:
                    self.refused += 1
                k += 1


# -- the open-loop update driver ---------------------------------------------

class _UpdateDriver:
    """State of one open-loop update phase (one event loop, one thread)."""

    def __init__(self, system: _LiveBase, trace: bool,
                 rng: np.random.Generator):
        self.system = system
        self.trace = trace
        self.rng = rng
        self.result = UpdateResult()
        sites = sorted({s for pair in system.pairs for s in pair})
        self.clients = {s: AequusClient(system.host, system.port(s),
                                        pool_size=1, timeout=5.0, retries=1)
                        for s in sites}
        #: probe users with no report in flight, per origin
        self.free: Dict[str, Deque[str]] = {o: deque(system.probes[o])
                                            for o, _ in system.pairs}
        targets = sorted({t for _, t in system.pairs})
        #: the value each in-flight probe user was last served, per target
        self.last: Dict[str, Dict[str, float]] = {t: {} for t in targets}
        self.inflight: Dict[str, Dict[str, Injection]] = {t: {}
                                                          for t in targets}
        #: (time, drained count) of the previous INFO poll, per origin
        self.info_prev: Dict[str, Tuple[float, int]] = {}

    def pending(self) -> List[Injection]:
        return [inj for t in self.inflight.values() for inj in t.values()]

    async def inject(self, index: int, due: float) -> bool:
        """Send report ``index``; False when every probe user is in flight."""
        system = self.system
        origin, target = system.pairs[index % len(system.pairs)]
        if not self.free[origin]:
            return False
        user = self.free[origin].popleft()
        inj = Injection(index, origin, target, user, due,
                        traced=self.trace and traced_slot(index))
        start, end, cores = system.probe_job(self.rng)
        # what the target serves this user now: any later fall in it can
        # only be this report's doing
        self.last[target][user] = (
            await self.clients[target].lookup_fairshare(user))[0]
        inj.sent = time.perf_counter()
        try:
            ok = await self.clients[origin].report_usage(user, start, end,
                                                         cores)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            ok = False
        inj.accepted = time.perf_counter()
        self.result.injections.append(inj)
        if ok:
            self.inflight[target][user] = inj
        else:
            self.result.refused += 1
        return True

    async def poll(self) -> None:
        """Each target: one BATCH, one snapshot, every probe user with a
        report in flight; a fallen value is a reflected report."""
        for target, flying in self.inflight.items():
            if not flying:
                continue
            t_poll = time.perf_counter()
            values = await self.clients[target].batch_lookup_fairshare(
                list(flying))
            t_reply = time.perf_counter()
            self.result.poll_us.append((t_reply - t_poll) * 1e6)
            seen = self.last[target]
            for user, (value, _known) in values.items():
                if value < seen[user] - VALUE_EPS:
                    inj = flying.pop(user)
                    inj.detected = t_reply
                    self.free[inj.origin].append(user)
                seen[user] = value

    async def poll_ingress(self) -> None:
        """INFO at each origin with a traced report in flight: when did
        its ingress queue drain into the histogram?"""
        waiting = [i for i in self.pending() if i.traced and i.drained is None]
        for origin in {i.origin for i in waiting}:
            reply = await self.clients[origin].info()
            t_info = time.perf_counter()
            drained = int(reply["info"].get("usage_ingress", {})
                          .get("drained", 0))
            prev = self.info_prev.get(origin)
            self.info_prev[origin] = (t_info, drained)
            if prev is None or drained <= prev[1]:
                continue
            # the queue drained between two polls: everything accepted
            # before the earlier poll was in it
            for inj in waiting:
                if inj.origin == origin and prev[0] >= inj.accepted:
                    inj.drained = t_info

    def expire(self, now: float) -> None:
        """Give up on reports never reflected (they count as failures)."""
        for flying in self.inflight.values():
            for user, inj in list(flying.items()):
                if now - inj.accepted > UPDATE_TIMEOUT:
                    del flying[user]

    async def scrape(self) -> Dict[str, Dict[str, float]]:
        return {site: parse_metrics(await client.metrics())
                for site, client in self.clients.items()}

    async def run(self, seconds: float, warmup: int) -> UpdateResult:
        spec = self.system.spec
        period = spec.exchange_interval
        window = max(period, seconds - 2.5 * period)
        sweep = phase_sweep(period, spec.refresh_interval)
        if window >= sweep:
            window = math.floor(window / sweep) * sweep
        n = max(1, int(window / INJECTION_SPACING))
        due = stratified_schedule(n + warmup, INJECTION_SPACING, period)
        try:
            # warm the connections and the clients' leaf-id caches
            for origin, target in self.system.pairs:
                await self.clients[target].batch_lookup_fairshare(
                    self.system.probes[origin])
            before = await self.scrape()
            t0 = time.perf_counter() + 0.05
            k = 0
            next_poll = t0
            while True:
                while k < len(due) and time.perf_counter() >= t0 + due[k] \
                        and await self.inject(k, t0 + due[k]):
                    k += 1
                await self.poll()
                if self.trace:
                    await self.poll_ingress()
                now = time.perf_counter()
                self.expire(now)
                if k >= len(due) and not self.pending():
                    break
                next_poll = max(now, next_poll + POLL_INTERVAL)
                await asyncio.sleep(next_poll - now)
            after = await self.scrape()
            self.result.scrapes = {s: (before[s], after[s]) for s in before}
            self.result.epoch_changes = sum(
                c.stats["epoch_changes"] for c in self.clients.values())
        finally:
            for client in self.clients.values():
                await client.aclose()
        self.result.injections = [i for i in self.result.injections
                                  if i.index >= warmup]
        return self.result


def drive_updates(system: _LiveBase, seconds: float, warmup: int,
                  trace: bool, rng: np.random.Generator) -> UpdateResult:
    """Run the open-loop update phase on this thread's own event loop."""
    return asyncio.run(_UpdateDriver(system, trace, rng).run(seconds, warmup))
