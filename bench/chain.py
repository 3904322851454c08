"""The ``chain`` system: two sites in this process, lock-step over real TCP.

Each site is a full :class:`~repro.services.site.AequusSite` on its own
engine with a real loopback :class:`~repro.grid.transport.TcpUssTransport`
under its USS.  s0 takes usage reports through an ``AequusServer``; s1
publishes every refresh through a ``ShmSnapshotWriter`` and answers GETs
from shared memory, as a sharded daemon's workers do.

One round is one tick of each daemon, in causal order, driven the way
``AequusDaemon._tick_loop`` drives a site (``pump -> engine.run_until ->
pump``).  The UMS and FCS refresh intervals are pushed past the run
horizon and the bench calls ``ums.refresh()``, ``fcs.refresh()`` and the
two publish listeners' bodies itself, in the order the engine would fire
them — so each layer's call can be timed from outside, and s0's own
refresh (off the critical path in a real grid, where s1 is already
working while s0 refreshes) can be run after the round's delay is taken.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.usage import UsageRecord
from repro.grid.transport import TcpUssTransport
from repro.grid.wire import decode_frame, encode_frame
from repro.obs.export import render
from repro.obs.registry import MetricsRegistry
from repro.grid.harness import parse_metrics
from repro.serve.backend import SiteBackend
from repro.serve.client import SyncAequusClient
from repro.serve.server import AequusServer, ServerThread
from repro.serve.shm import ShmBackend, ShmSnapshotWriter
from repro.serve.snapshot import SnapshotStore, snapshot_from_fcs
from repro.services.site import AequusSite, SiteConfig
from repro.services.transport import UssTransport
from repro.sim.engine import SimulationEngine

from . import sitegen
from .spans import Tracer
from .spec import WorkloadSpec

__all__ = ["TimedTransport", "ChainSystem", "RoundSample"]

#: a refresh interval no run reaches: the bench calls refresh() itself
FAR = 1e12
#: longest a frame may take from send() to the peer's inbound buffer
WIRE_TIMEOUT = 20.0


class TimedTransport(UssTransport):
    """Stamps ``send()`` and wraps the registered handler; otherwise the
    wrapped transport, unchanged."""

    def __init__(self, inner: TcpUssTransport):
        self.inner = inner
        self.stats = inner.stats
        #: (enter, exit, message) per send / per handled inbound message
        self.sends: List[Tuple[float, float, Any]] = []
        self.handled: List[Tuple[float, float, Any]] = []

    def connect(self, name: str, handler: Callable[[Any], None]) -> None:
        def timed(message: Any) -> None:
            t0 = time.perf_counter()
            handler(message)
            self.handled.append((t0, time.perf_counter(), message))
        self.inner.connect(name, timed)

    def disconnect(self, name: str) -> None:
        self.inner.disconnect(name)

    def send(self, src: str, dst: str, message: Any) -> bool:
        t0 = time.perf_counter()
        ok = self.inner.send(src, dst, message)
        self.sends.append((t0, time.perf_counter(), message))
        return ok

    def pump(self, limit: int = 0) -> int:
        return self.inner.pump(limit)

    def close(self) -> None:
        self.inner.close()


@dataclass
class RoundSample:
    """What one lock-step round yielded."""
    delay_ms: float
    ok: bool
    why: str = ""
    traced: bool = False
    dirtied: int = 0
    recomputed: int = 0
    delta_entries: int = 0
    frame_bytes: int = 0
    payload_bytes: int = 0
    encodes: int = 0
    #: traced rounds only: encode_frame / decode_frame on the captured
    #: delta (seconds), and the FCS's dirty-fraction gauge after the round
    encode_s: float = 0.0
    decode_s: float = 0.0
    dirty_fraction: float = 0.0


class ChainSystem:
    """Two in-process sites; see the module docstring."""

    host = "127.0.0.1"
    #: s1 publishes its IRS table through shm, as a sharded daemon does
    has_irs = True

    def __init__(self, spec: WorkloadSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])
        self.engines: List[SimulationEngine] = []
        self.transports: List[TimedTransport] = []
        self.sites: List[AequusSite] = []
        self.stores: List[SnapshotStore] = []
        self.servers: List[ServerThread] = []
        self.clients: List[SyncAequusClient] = []
        self.writer: Optional[ShmSnapshotWriter] = None
        self.shm_backend: Optional[ShmBackend] = None
        #: every usage record any site was given, for the sim-plane oracle
        self.records: List[UsageRecord] = []
        self.now = sitegen.START
        self.rounds = 0
        self.last_probe_value: Optional[float] = None
        self._bytes_seen = 0

    # -- boot -----------------------------------------------------------------

    def build(self) -> "ChainSystem":
        spec = self.spec
        policy = sitegen.grid_policy(spec.users, self.seed)
        slices = sitegen.site_slices(policy, 2)
        names = ["s0", "s1"]
        for name in names:
            engine = SimulationEngine(start_time=sitegen.START)
            registry = MetricsRegistry(constant_labels={"site": name},
                                       clock=lambda e=engine: e.now)
            transport = TimedTransport(
                TcpUssTransport(name, registry=registry).start())
            self.engines.append(engine)
            self.transports.append(transport)
        for i, t in enumerate(self.transports):
            peer = self.transports[1 - i].inner
            t.inner.add_peer(f"uss:{names[1 - i]}", "127.0.0.1", peer.port)
        config = SiteConfig(histogram_interval=sitegen.HISTOGRAM_INTERVAL,
                            uss_exchange_interval=spec.exchange_interval,
                            ums_refresh_interval=FAR,
                            fcs_refresh_interval=FAR)
        for i, name in enumerate(names):
            site = AequusSite(name, self.engines[i], self.transports[i],
                              policy=policy, config=config,
                              registry=self.transports[i].inner.registry)
            site.uss.add_peer(names[1 - i])
            self.sites.append(site)
        self.active: List[List[str]] = []
        self.idle: List[List[str]] = []
        for i, site in enumerate(self.sites):
            records, active, idle = sitegen.history_records(
                slices[i], site.name, self.rng)
            for record in records:
                site.uss.record_job(record)
            self.records.extend(records)
            self.active.append(active)
            self.idle.append(idle)
        sitegen.assert_history_in_past(
            {s.name: s.uss.local for s in self.sites}, sitegen.START)
        #: the user whose served priority times every round
        self.probe = self.idle[0][0]
        # the scheduler's local accounts, mapped back to grid identities
        self.accounts = sitegen.scheduler_accounts(slices[0] + slices[1],
                                                   self.rng)
        for account, identity in self.accounts.items():
            self.sites[1].irs.store_mapping(account, identity)
        # serve planes: s0 from the in-process store, s1 from shm
        s0, s1 = self.sites
        self.stores = [SnapshotStore(), SnapshotStore()]
        backend0 = SiteBackend(s0.name, s0.fcs, s0.irs, s0.uss,
                               store=self.stores[0])
        # s1's usage ingress is its in-process backend's, as a worker's
        # report pipe ends in the parent's SiteBackend.report_usage
        ingress = SiteBackend(s1.name, s1.fcs, s1.irs, s1.uss,
                              store=self.stores[1])
        self.writer = ShmSnapshotWriter(s1.name)
        self.shm_backend = ShmBackend.attach(
            self.writer.name, site=s1.name, usage_sink=ingress.report_usage,
            refresh_interval=spec.refresh_interval)
        self.servers = [
            ServerThread(AequusServer(backend0, registry=s0.registry)).start(),
            ServerThread(AequusServer(self.shm_backend,
                                      registry=s1.registry)).start()]
        self.clients = [SyncAequusClient(port=srv.port, timeout=30.0)
                        for srv in self.servers]
        for t in self.transports:
            if not t.inner.wait_connected(10.0):
                raise RuntimeError("loopback USS links never came up")
        # converge: two empty rounds carry both full snapshots across
        quiet = Tracer(enabled=False)
        for _ in range(2):
            self._tick(0, quiet)
            self._await_inbound(1)
            self._tick(1, quiet)
            self._await_inbound(0)
            self.now += spec.exchange_interval
        witness = self.active[0][0]
        v1, known = self.clients[1].lookup_fairshare(witness)
        v0, _ = self.clients[0].lookup_fairshare(witness)
        if not known or abs(v0 - v1) > 1e-9:
            raise RuntimeError(f"chain never converged: s0={v0} s1={v1}")
        self.last_probe_value = self.clients[1].lookup_fairshare(self.probe)[0]
        self._frame_bytes_sent()
        return self

    @property
    def serve_port(self) -> int:
        return self.servers[1].port

    def pids(self) -> List[int]:
        """Processes of the system under test: this one."""
        return [os.getpid()]

    # -- one daemon tick ------------------------------------------------------

    def _publish(self, i: int, tracer: Tracer) -> None:
        """What the daemon's two refresh listeners do, in their order."""
        site = self.sites[i]
        with tracer.span("snapshot.build"):
            self.stores[i].publish(snapshot_from_fcs(site.fcs))
        if i == 1:
            with tracer.span("shm.publish"):
                self.writer.set_irs_table(site.irs.known_users())
                self.writer.publish(snapshot_from_fcs(site.fcs))

    def _refresh(self, i: int, tracer: Tracer) -> None:
        site = self.sites[i]
        with tracer.span("ums.refresh"):
            site.ums.refresh()
        with tracer.span("fcs.refresh"):
            site.fcs.refresh()
        self._publish(i, tracer)

    def _exchange(self, i: int, tracer: Tracer
                  ) -> Optional[Tuple[float, float, Any]]:
        """pump -> run_until: apply what arrived, fire the exchange tick.

        Returns the (enter, exit, message) stamp of the tick's first send,
        or None when the site published nothing.
        """
        transport = self.transports[i]
        transport.handled.clear()
        transport.sends.clear()
        transport.pump()
        for enter, leave, _msg in transport.handled:
            tracer.add("uss.apply", enter, leave)
        start = time.perf_counter()
        self.engines[i].run_until(self.now + self.spec.exchange_interval)
        if not transport.sends:
            return None
        tracer.add("uss.publish", start, transport.sends[0][0])
        return transport.sends[0]

    def _tick(self, i: int, tracer: Tracer) -> None:
        """One whole daemon tick: exchange, the refresh chain, pump."""
        sent = self._exchange(i, tracer)
        if sent is not None:
            tracer.add("grid.wire", sent[0], sent[1])
        self._refresh(i, tracer)
        self.transports[i].pump()

    def _await_inbound(self, i: int) -> None:
        """Block until a frame sent to site ``i`` sits in its inbound buffer."""
        inner = self.transports[i].inner
        deadline = time.monotonic() + WIRE_TIMEOUT
        while inner.pending() == 0:
            if time.monotonic() > deadline:
                raise TimeoutError(f"no frame reached s{i} within "
                                   f"{WIRE_TIMEOUT:.0f}s")
            time.sleep(0.0001)

    # -- one measured round ---------------------------------------------------

    def dirty_users(self) -> List[str]:
        active = self.active[0]
        if self.spec.dirty == "active":
            return list(active)
        count = max(1, int(round(
            float(self.spec.dirty) * (len(active) + len(self.idle[0])))))
        picks = self.rng.choice(len(active), size=min(count, len(active)),
                                replace=False)
        return [active[int(k)] for k in picks]

    def round(self, tracer: Tracer) -> RoundSample:
        spec = self.spec
        s0, s1 = self.sites
        t0 = self.transports[0]
        # generated inputs (outside the timed region)
        users = self.dirty_users()
        jobs = [sitegen.job_record(u, s0.name, self.now, self.rng)
                for u in users]
        probe = sitegen.job_record(self.probe, s0.name, self.now, self.rng)
        recomputed_before = s1.ums.users_recomputed
        tracer.round_id = self.rounds
        for job in jobs:
            s0.uss.record_job(job)
        self.records.extend(jobs)
        self.records.append(probe)

        root = tracer.begin("round")
        with tracer.span("serve.ingest"):
            accepted = self.clients[0].report_usage(
                probe.user, probe.start, probe.end)
        t_accept = time.perf_counter()
        with tracer.span("uss.drain"):
            s0.uss.drain_ingest()
        # s0's tick, minus its own refresh (deferred: off the critical path)
        sent = self._exchange(0, tracer)
        if sent is None:
            tracer.end(root)
            return RoundSample(0.0, False, "s0 published nothing")
        send_enter, _send_exit, message = sent
        t0.pump()
        # encode, socket transit and the peer's decode, as one interval: in
        # one process the three interleave under the GIL (the loop threads
        # read and decode while send() is still returning), so they are
        # split afterwards by timing encode/decode on the captured message
        wire = tracer.begin("grid.wire", at=send_enter)
        try:
            self._await_inbound(1)
        except TimeoutError as exc:
            tracer.end(wire)
            tracer.end(root)
            return RoundSample(0.0, False, str(exc))
        tracer.end(wire)
        self._tick(1, tracer)
        with tracer.span("serve.get"):
            value, known = self.clients[1].lookup_fairshare(self.probe)
        t_served = time.perf_counter()
        tracer.end(root)

        # off the clock: s0 catches up (its refresh, s1's heartbeat), then
        # the per-sample oracle
        self.now += spec.exchange_interval
        self.rounds += 1
        self._refresh(0, Tracer(enabled=False))
        self._await_inbound(0)
        expected, _ = self.clients[0].lookup_fairshare(self.probe)
        sample = RoundSample(
            delay_ms=(t_served - t_accept) * 1e3, ok=True,
            traced=tracer.enabled,
            dirtied=len(users) + 1,
            recomputed=s1.ums.users_recomputed - recomputed_before,
            delta_entries=message.wire_entries(),
            payload_bytes=message.wire_bytes(),
            frame_bytes=self._frame_bytes_sent(),
            encodes=len(t0.sends))
        if tracer.enabled:
            t_enc = time.perf_counter()
            frame = encode_frame("uss:s0", "uss:s1", message)
            t_dec = time.perf_counter()
            decode_frame(frame[4:])
            sample.encode_s = t_dec - t_enc
            sample.decode_s = time.perf_counter() - t_dec
            sample.dirty_fraction = float(s1.registry.gauge(
                "aequus_refresh_dirty_fraction").labels().value)
        if not accepted or not known:
            sample.ok, sample.why = False, "report refused or probe unknown"
        elif abs(value - expected) > 1e-9:
            sample.ok = False
            sample.why = f"s1 served {value!r}, s0 serves {expected!r}"
        elif value == self.last_probe_value:
            sample.ok, sample.why = False, "served value did not move"
        self.last_probe_value = value
        return sample

    # -- counters -------------------------------------------------------------

    def _frame_bytes_sent(self) -> int:
        """Framed bytes s0's transport wrote to s1 since the last call."""
        child = self.sites[0].registry.counter(
            "aequus_grid_peer_bytes_total", labelnames=("peer", "direction")
        ).labels(peer="uss:s1", direction="out")
        total = int(child.value)
        delta = total - self._bytes_seen
        self._bytes_seen = total
        return delta

    def scrape(self, i: int) -> Dict[str, float]:
        """The site's registry as a METRICS scrape would return it."""
        return parse_metrics(render(self.sites[i].registry))

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        for client in self.clients:
            client.close()
        for server in self.servers:
            server.stop()
        if self.shm_backend is not None:
            self.shm_backend.reader.close()
        for site in self.sites:
            site.stop()
        for transport in self.transports:
            transport.close()
        if self.writer is not None:
            self.writer.close()
        self.clients, self.servers = [], []
