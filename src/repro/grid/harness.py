"""Testbed-in-a-box: boot, break, and measure a real multi-daemon grid.

:class:`GridHarness` turns "run the paper's testbed" into one object: it
writes a shared policy spec, boots N ``aequus-repro grid-node``
subprocesses on loopback ports, and (by default) threads every directed
USS link through a :class:`~repro.grid.proxy.LinkProxy` owned by the
harness process — so tests and benchmarks can add latency, cut links,
partition sites, and kill/restart whole daemons while the survivors keep
serving.  Pure ``subprocess`` + loopback: no root, no containers, runs
in CI.

Observation goes through the front door only: each node's serve plane
(INFO for per-origin usage horizons and staleness, METRICS for the full
registry including the grid transport counters).  The harness never
reaches into a node's memory — whatever it can measure, an operator of a
real deployment can measure the same way.

Typical shape (see ``tests/grid`` and ``benchmarks/test_grid_scaling``)::

    spec = GridSpec(sites=3, users=30, exchange_interval=0.5)
    with GridHarness(spec) as grid:
        grid.wait_converged(max_staleness=5.0, timeout=30.0)
        grid.partition("a", "b")          # split one link pair
        ...
        grid.heal("a", "b")
        grid.kill("c"); grid.restart("c") # daemon crash + resync
        grid.wait_converged(max_staleness=5.0, timeout=30.0)
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..obs.collector import FleetCollector
from ..serve.client import SyncAequusClient
from ..serve.daemon import build_grid_policy
from .proxy import LinkProxy

__all__ = ["GridSpec", "GridHarness", "parse_metrics"]


def _free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Ask the kernel for ``count`` distinct free TCP ports.

    All probe sockets stay open until every port is reserved — closing
    them one at a time lets the kernel hand the same ephemeral port out
    twice within a single grid boot, which surfaces as a node failing to
    bind a port the harness promised it.
    """
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition -> ``{'name{labels}': value}``.

    Label order inside the braces is preserved as the server printed it;
    callers match by prefix (``name{``) or sum families rather than
    reconstructing exact label strings.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, value = line.rsplit(None, 1)
            out[key] = float(value)
        except ValueError:
            continue
    return out


@dataclass
class GridSpec:
    """Shape and tempo of one harness-booted grid."""

    sites: int = 3
    users: int = 30
    seed: int = 0
    #: jobs of seeded local usage per node (sliced per site, so every
    #: node holds usage its peers can only learn over the wire)
    usage_jobs: int = 5
    exchange_interval: float = 0.5
    histogram_interval: float = 5.0
    refresh_interval: float = 0.5
    tick_interval: float = 0.05
    time_factor: float = 1.0
    #: thread every directed USS link through a LinkProxy (the fault
    #: plane); False wires daemons directly for minimum-overhead benches
    proxies: bool = True
    latency: float = 0.0
    jitter: float = 0.0
    host: str = "127.0.0.1"
    #: seconds to wait for daemon boot / convergence poll steps
    boot_timeout: float = 30.0

    def site_names(self) -> List[str]:
        return [f"s{i}" for i in range(self.sites)]


class GridHarness:
    """Boot N grid daemons on loopback, with a fault plane per link."""

    def __init__(self, spec: GridSpec, workdir: Optional[str] = None,
                 collector: Optional[bool] = None,
                 collector_interval: float = 1.0):
        self.spec = spec
        self._own_workdir = workdir is None
        self.workdir = Path(workdir) if workdir else Path(
            tempfile.mkdtemp(prefix="aequus-grid-"))
        self.policy_path = self.workdir / "policy.conf"
        self.procs: Dict[str, subprocess.Popen] = {}
        self.uss_ports: Dict[str, int] = {}
        self.serve_ports: Dict[str, int] = {}
        #: (src, dst) -> the proxy src dials to reach dst's USS listener
        self.proxies: Dict[Tuple[str, str], LinkProxy] = {}
        self._clients: Dict[str, SyncAequusClient] = {}
        self._logs: Dict[str, object] = {}
        self._epoch: float = 0.0
        self._started = False
        #: fleet telemetry: collector=True boots a FleetCollector against
        #: every node's serve port once the grid is up, and the fault
        #: plane annotates partitions/heals/kills into its merged trace
        self._want_collector = bool(collector)
        self._collector_interval = collector_interval
        self.collector: Optional[FleetCollector] = None

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "GridHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "GridHarness":
        if self._started:
            return self
        self._started = True
        spec = self.spec
        names = spec.site_names()
        self.workdir.mkdir(parents=True, exist_ok=True)
        policy = build_grid_policy(spec.users, seed=spec.seed)
        self.policy_path.write_text(policy.dumps(), encoding="utf-8")
        ports = iter(_free_ports(2 * len(names), spec.host))
        for name in names:
            self.uss_ports[name] = next(ports)
            self.serve_ports[name] = next(ports)
        if spec.proxies:
            for src, dst in itertools.permutations(names, 2):
                proxy = LinkProxy(spec.host, self.uss_ports[dst],
                                  listen_host=spec.host,
                                  latency=spec.latency, jitter=spec.jitter)
                self.proxies[(src, dst)] = proxy
        # one shared wall-clock epoch: every node starts its virtual clock
        # at (wall - epoch) * factor, so cross-daemon staleness reads true
        self._epoch = time.time()
        for name in names:
            self._spawn(name)
        self.wait_ready()
        if self._want_collector:
            self.collector = FleetCollector(
                {name: (spec.host, self.serve_ports[name])
                 for name in names},
                interval=self._collector_interval,
                virtual_epoch=self._epoch).start()
        return self

    def _peer_addr(self, src: str, dst: str) -> Tuple[str, int]:
        proxy = self.proxies.get((src, dst))
        if proxy is not None:
            return proxy.listen_host, proxy.listen_port
        return self.spec.host, self.uss_ports[dst]

    def _spawn(self, name: str) -> None:
        spec = self.spec
        names = spec.site_names()
        index = names.index(name)
        cmd = [sys.executable, "-m", "repro.cli", "grid-node",
               "--site", name,
               "--policy", str(self.policy_path),
               "--listen-host", spec.host,
               "--listen-port", str(self.uss_ports[name]),
               "--host", spec.host,
               "--port", str(self.serve_ports[name]),
               "--site-index", str(index),
               "--site-count", str(spec.sites),
               "--usage-jobs", str(spec.usage_jobs),
               "--seed", str(spec.seed),
               "--exchange-interval", str(spec.exchange_interval),
               "--histogram-interval", str(spec.histogram_interval),
               "--refresh-interval", str(spec.refresh_interval),
               "--tick-interval", str(spec.tick_interval),
               "--time-factor", str(spec.time_factor),
               "--virtual-epoch", repr(self._epoch)]
        for peer in names:
            if peer == name:
                continue
            host, port = self._peer_addr(name, peer)
            cmd += ["--peer", f"{peer}={host}:{port}"]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        log = open(self.workdir / f"{name}.log", "ab")
        self._logs[name] = log
        self.procs[name] = subprocess.Popen(
            cmd, env=env, stdout=log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: Optional[float] = None) -> None:
        """Block until every daemon answers PING on its serve port."""
        deadline = time.monotonic() + (timeout or self.spec.boot_timeout)
        for name in list(self.procs):
            while True:
                proc = self.procs[name]
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"grid node {name!r} exited with {proc.returncode} "
                        f"during boot (log: {self.workdir / (name + '.log')})")
                try:
                    self.client(name).ping()
                    break
                except (ConnectionError, OSError):
                    self._drop_client(name)
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"grid node {name!r} not serving within "
                        f"{timeout or self.spec.boot_timeout:.0f}s")
                time.sleep(0.1)

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self.collector is not None:
            self.collector.stop()
            self.collector = None
        for name in list(self._clients):
            self._drop_client(name)
        for name, proc in self.procs.items():
            if proc.poll() is None:
                proc.terminate()
        for name, proc in self.procs.items():
            try:
                proc.wait(10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(10.0)
        self.procs.clear()
        for proxy in self.proxies.values():
            proxy.close()
        self.proxies.clear()
        for log in self._logs.values():
            log.close()
        self._logs.clear()

    # -- clients -------------------------------------------------------------

    def client(self, site: str) -> SyncAequusClient:
        client = self._clients.get(site)
        if client is None:
            client = SyncAequusClient(self.spec.host, self.serve_ports[site],
                                      timeout=5.0, retries=1)
            self._clients[site] = client
        return client

    def _drop_client(self, site: str) -> None:
        client = self._clients.pop(site, None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    # -- fault plane ---------------------------------------------------------

    def _note_fault(self, name: str, **args) -> None:
        if self.collector is not None:
            self.collector.note_event(name, **args)

    def partition(self, a: str, b: str) -> None:
        """Cut both directions of the a<->b link (requires proxies)."""
        self._link(a, b).partition()
        self._link(b, a).partition()
        self._note_fault("fault.partition", a=a, b=b)

    def heal(self, a: str, b: str) -> None:
        self._link(a, b).heal()
        self._link(b, a).heal()
        self._note_fault("fault.heal", a=a, b=b)

    def _link(self, src: str, dst: str) -> LinkProxy:
        try:
            return self.proxies[(src, dst)]
        except KeyError:
            raise RuntimeError(
                "fault injection needs GridSpec(proxies=True)") from None

    def kill(self, site: str, grace: float = 0.0) -> None:
        """Stop one daemon (SIGTERM, escalating to SIGKILL)."""
        proc = self.procs[site]
        self._drop_client(site)
        if proc.poll() is None:
            self._note_fault("fault.kill", site=site)
            proc.terminate()
            try:
                proc.wait(grace if grace > 0 else 5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(10.0)

    def restart(self, site: str) -> None:
        """Boot a fresh incarnation of a killed daemon on the same ports.

        The new process mints a new USS boot id; peers detect the
        incarnation change on its first publish and resync, which is the
        recovery path the restart tests pin down.
        """
        self.kill(site)
        self._spawn(site)
        self.wait_ready()
        self._note_fault("fault.restart", site=site)

    # -- measurement ---------------------------------------------------------

    def info(self, site: str) -> Dict:
        return self.client(site).info().get("info", {})

    def staleness(self, site: str) -> Dict[str, float]:
        """Per-origin usage staleness as this site's FCS reports it."""
        horizons = self.info(site).get("usage_horizons") or {}
        return {origin: float(entry.get("staleness", float("inf")))
                for origin, entry in horizons.items()}

    def remote_staleness(self, site: str) -> Dict[str, float]:
        return {origin: lag for origin, lag in self.staleness(site).items()
                if origin and origin != site}

    def metrics(self, site: str) -> Dict[str, float]:
        return parse_metrics(self.client(site).metrics())

    def metric_sum(self, site: str, family: str) -> float:
        """Sum one metric family across all its label combinations."""
        values = self.metrics(site)
        return sum(v for k, v in values.items()
                   if k == family or k.startswith(family + "{"))

    def wire_bytes(self, site: str) -> float:
        """Modeled exchange payload bytes this site has put on the wire."""
        return self.metric_sum(site, "aequus_network_payload_bytes_total")

    def converged(self, max_staleness: float,
                  expect_origins: Optional[int] = None) -> bool:
        """Every live site sees every peer origin fresher than the bound."""
        expected = self.spec.sites - 1 if expect_origins is None \
            else expect_origins
        for site in self.spec.site_names():
            proc = self.procs.get(site)
            if proc is None or proc.poll() is not None:
                continue  # a deliberately killed node does not gate
            try:
                remote = self.remote_staleness(site)
            except (ConnectionError, OSError):
                return False
            if len(remote) < expected:
                return False
            if any(lag > max_staleness for lag in remote.values()):
                return False
        return True

    def wait_converged(self, max_staleness: float, timeout: float = 30.0,
                       expect_origins: Optional[int] = None) -> float:
        """Poll until :meth:`converged`; returns seconds waited."""
        start = time.monotonic()
        deadline = start + timeout
        while True:
            if self.converged(max_staleness, expect_origins):
                return time.monotonic() - start
            if time.monotonic() > deadline:
                lags = {site: self.remote_staleness(site)
                        for site in self.spec.site_names()
                        if self.procs.get(site) is not None
                        and self.procs[site].poll() is None}
                raise TimeoutError(
                    f"grid not converged to {max_staleness:.1f}s within "
                    f"{timeout:.0f}s: {lags}")
            time.sleep(0.2)

    def staleness_samples(self, duration: float,
                          interval: float = 0.25) -> List[float]:
        """Sample every live site's worst remote staleness for a window."""
        samples: List[float] = []
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline:
            for site in self.spec.site_names():
                proc = self.procs.get(site)
                if proc is None or proc.poll() is not None:
                    continue
                try:
                    remote = self.remote_staleness(site)
                except (ConnectionError, OSError):
                    continue
                if remote:
                    samples.append(max(remote.values()))
            time.sleep(interval)
        return samples
