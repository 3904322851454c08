"""Usage Statistics Service (USS).

Gathers per-job usage results of the local site and produces per-user
histograms for configurable time intervals (paper Section II-A).  The USS
is also the *only* inter-site channel: Aequus instances "communicate only
by exchanging data through the USS services", relaying per-user histogram
snapshots rather than individual job records.

Exchange protocol (DESIGN.md §7) — there is one: each publish carries
only the (user, bin) entries that changed since the previous publish, as
absolute bin values in the compact array format of
:class:`~repro.services.messages.UsageDeltaMessage`.  Publishes are
numbered consecutively (``seq``); the first publish — and every resync
reply — is a ``full=True`` complete-state snapshot.  A receiver applies a
delta only when it extends its last applied sequence by exactly one;
older messages are dropped as stale (network jitter can reorder them;
ordering is by ``seq`` alone, never by the sender's clock) and a gap
(partition, drop, late join, restart) triggers a
:class:`~repro.services.messages.UsageResyncRequest`, answered with a full
snapshot.  The reference the protocol is tested against is the sender
itself: once traffic has quiesced, a peer's ``remote[site].snapshot()``
equals that site's ``local.snapshot()`` exactly.

Participation is asymmetric by design: a site may publish without
consuming or vice versa — the partial-participation experiment
(Section IV-A.4) exercises exactly those modes.

Freshness watermarks (DESIGN.md §10).  Every publish — full, delta,
heartbeat, resync reply — is stamped with the sender's *usage horizon*:
the virtual time up to which its local usage is reflected in the payload.
The receiver keeps a per-origin high-watermark, advanced by every applied
message *and* by heartbeats confirming the current sequence (an idle peer
still proves freshness), but never across a sequence gap — missing data
must not look fresh.  :meth:`UsageStatisticsService.usage_horizons` is the
base of the causal chain UMS → FCS → snapshot that turns the paper's
Fig. 11 update delay into the continuously exported
``aequus_usage_staleness_seconds`` histogram.
"""

from __future__ import annotations

import itertools
import os
import time
import uuid
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Set

from ..core.decay import DecayFunction
from ..core.usage import UsageHistogram, UsageRecord
from ..obs import trace
from ..obs.registry import AGE_BUCKETS, MetricsRegistry, metric_property
from ..sim.engine import PeriodicTask, SimulationEngine
from .messages import UsageDeltaMessage, UsageResyncRequest
from .network import Network

__all__ = ["UsageStatisticsService"]


class UsageStatisticsService:
    """Per-site usage aggregation and inter-site exchange."""

    def __init__(self, site: str, engine: SimulationEngine, network: Network,
                 histogram_interval: float = 60.0,
                 exchange_interval: float = 30.0,
                 publish: bool = True,
                 prune_horizon: Optional[float] = None,
                 start_offset: float = 0.0,
                 registry: Optional[MetricsRegistry] = None,
                 boot_id: Optional[str] = None):
        self.site = site
        self.engine = engine
        self.network = network
        self.publish = publish
        self.exchange_interval = exchange_interval
        #: optional history horizon: bins entirely older than this are
        #: dropped at each exchange tick (bounds long-run memory)
        self.prune_horizon = prune_horizon
        self.charge_pruned = 0.0
        self.local = UsageHistogram(histogram_interval)
        self.remote: Dict[str, UsageHistogram] = {}
        #: serve-plane ingress: records enqueued from other threads (deque
        #: appends are atomic), folded into the histogram on the service's
        #: own thread at the next exchange tick or explicit drain
        self._ingest: Deque[UsageRecord] = deque()
        self.registry = registry if registry is not None else MetricsRegistry(
            constant_labels={"site": site}, clock=lambda: engine.now)
        records = self.registry.counter(
            "aequus_uss_records_total",
            "Usage records by ingress event", ("event",))
        exchanges = self.registry.counter(
            "aequus_uss_exchanges_total",
            "Exchange messages by outcome", ("event",))
        resyncs = self.registry.counter(
            "aequus_uss_resyncs_total",
            "Full-snapshot resyncs requested from / served to peers",
            ("event",))
        self._metrics = {
            "records_received": records.labels(event="received"),
            "records_enqueued": records.labels(event="enqueued"),
            "records_drained": records.labels(event="drained"),
            "exchanges_sent": exchanges.labels(event="sent"),
            "exchanges_received": exchanges.labels(event="received"),
            "exchanges_stale": exchanges.labels(event="stale"),
            "exchanges_skipped": exchanges.labels(event="skipped"),
            "interval_mismatch": exchanges.labels(event="interval_mismatch"),
            "resyncs_requested": resyncs.labels(event="requested"),
            "resyncs_served": resyncs.labels(event="served"),
            "peer_restarts": self.registry.counter(
                "aequus_uss_peer_restarts_total",
                "Peer incarnation changes observed (their sequence space "
                "reset; repaired via full resync)").labels(),
        }
        self._exchange_hist = self.registry.histogram(
            "aequus_uss_exchange_seconds",
            "Wall time of one USS exchange tick (drain, prune, publish)"
        ).labels()
        self._staleness_family = self.registry.histogram(
            "aequus_usage_staleness_seconds",
            "Per-origin usage-horizon age (virtual seconds) observed at "
            "each exchange tick — the receive-side update-delay "
            "distribution of the paper's Fig. 11", ("origin",),
            buckets=AGE_BUCKETS)
        self._staleness_children: Dict[str, object] = {}
        self.peers: List[str] = []
        #: incarnation id stamped on every publish: a fresh one per USS
        #: instance lets peers tell a *restarted* site (sequence space
        #: reset) from stale reordered traffic.  Only compared for
        #: equality, so the draw does not perturb seeded sim streams.
        self.boot_id = boot_id if boot_id is not None else uuid.uuid4().hex[:12]
        #: sender state: consecutive publish sequence number (0 = never)
        self._seq = 0
        #: publish event counter, distinct from ``_seq`` (heartbeats reuse
        #: the sequence number but are separate publish *events* and get
        #: their own trace id)
        self._pub_count = 0
        #: trace ids of messages applied to remote histograms since the
        #: last :meth:`drain_applied_traces` — the hop that hands a wire
        #: delta's causal identity on to the UMS→FCS→snapshot chain.
        #: Bounded: if nobody drains (no daemon/collector), ids just age
        #: out instead of leaking.
        self._applied_traces: Deque[str] = deque(maxlen=256)
        self._exchange_cursor: Optional[int] = None
        if publish:
            self._exchange_cursor = self.local.register_cursor()
        #: receiver state per remote site
        self._recv_seq: Dict[str, int] = {}
        self._recv_boot: Dict[str, str] = {}
        #: per-origin usage high-watermark (virtual time) — advanced by
        #: applied messages and current-seq heartbeats, never across gaps
        self._recv_horizon: Dict[str, float] = {}
        #: UMS-facing dirty-user cursors: cursor id -> histogram-cursor map
        #: keyed by histogram owner ("" = local, else remote site name)
        self._usage_cursors: Dict[int, Dict[str, int]] = {}
        self._usage_cursor_remote: Dict[int, bool] = {}
        self._usage_cursor_ids = itertools.count()
        self._endpoint = f"uss:{site}"
        network.connect(self._endpoint, self._on_message)
        self._task: Optional[PeriodicTask] = engine.periodic(
            exchange_interval, self._exchange, start_offset=start_offset)

    records_received = metric_property("records_received")
    records_enqueued = metric_property("records_enqueued")
    records_drained = metric_property("records_drained")
    exchanges_sent = metric_property("exchanges_sent")
    exchanges_received = metric_property("exchanges_received")
    #: reordered/duplicate usage messages dropped (jitter can deliver an
    #: older message after a newer one; applying it would roll state back)
    exchanges_stale = metric_property("exchanges_stale")
    #: publish ticks with no changed entries — only a sequence-number
    #: heartbeat goes out, letting silent peers detect missed deltas
    exchanges_skipped = metric_property("exchanges_skipped")
    #: usage messages dropped for a foreign histogram interval (a
    #: misconfigured peer would otherwise just look partitioned)
    interval_mismatch = metric_property("interval_mismatch")
    resyncs_requested = metric_property("resyncs_requested")
    resyncs_served = metric_property("resyncs_served")
    #: peer incarnation changes detected (daemon restarts with reset seq)
    peer_restarts = metric_property("peer_restarts")

    # -- local recording -------------------------------------------------

    def record_job(self, record: UsageRecord) -> None:
        """Ingest a completed job's usage (from libaequus call-outs)."""
        self._metrics["records_received"].inc()
        self.local.add_record(record)

    def enqueue_record(self, record: UsageRecord) -> None:
        """Thread-safe usage ingress for the serve plane (aequusd).

        Server threads may not touch the histogram directly — every
        mutation must happen on the thread driving this service.  They
        append here instead (``deque.append`` is atomic under the GIL);
        the record lands in the histogram at the next :meth:`drain_ingest`,
        which the exchange tick runs automatically.
        """
        self._metrics["records_enqueued"].inc()
        self._ingest.append(record)

    def drain_ingest(self) -> int:
        """Fold all enqueued records into the local histogram (owner thread)."""
        drained = 0
        while True:
            try:
                record = self._ingest.popleft()
            except IndexError:
                break
            self.record_job(record)
            drained += 1
        self._metrics["records_drained"].inc(drained)
        return drained

    # -- peering -----------------------------------------------------------

    def add_peer(self, site: str) -> None:
        if site == self.site:
            raise ValueError("a USS does not peer with itself")
        if site not in self.peers:
            self.peers.append(site)

    # -- publishing --------------------------------------------------------

    def _exchange(self) -> None:
        timed = self.registry.enabled
        t0 = time.perf_counter() if timed else 0.0
        with trace.span("uss.exchange", site=self.site):
            self._exchange_tick()
        if timed:
            self._exchange_hist.observe(time.perf_counter() - t0)

    def _exchange_tick(self) -> None:
        self.drain_ingest()
        if self.prune_horizon is not None:
            self.charge_pruned += self.local.prune(self.engine.now,
                                                   self.prune_horizon)
            for hist in self.remote.values():
                hist.prune(self.engine.now, self.prune_horizon)
        if self.registry.enabled and self._recv_horizon:
            now = self.engine.now
            for origin, horizon in self._recv_horizon.items():
                child = self._staleness_children.get(origin)
                if child is None:
                    child = self._staleness_family.labels(origin=origin)
                    self._staleness_children[origin] = child
                child.observe(max(0.0, now - horizon))
        if not self.publish or not self.peers:
            return
        message = self._build_delta()
        tctx = message.tctx
        if tctx is None:
            self._send_to_peers(message)
        else:
            # the origin end of the cross-daemon causal chain: collectors
            # match this span's trace id against the remote uss.apply
            with trace.span("uss.publish", trace=tctx["id"],
                            origin=self.site, seq=tctx["seq"],
                            peers=len(self.peers)):
                self._send_to_peers(message)
        self._metrics["exchanges_sent"].inc()

    def _send_to_peers(self, message) -> None:
        for peer in self.peers:
            self.network.send(self._endpoint, f"uss:{peer}", message)

    def _make_tctx(self) -> Optional[Dict[str, Any]]:
        """The compact per-publish trace context (DESIGN.md §14).

        ``None`` when tracing is off — the message then carries (and
        costs) exactly what a pre-trace sender's did.  ``mono`` is the
        origin's monotonic clock (duration alignment), ``vts`` its
        virtual timestamp (fleet alignment via the shared epoch).
        """
        if not trace.default_tracer().enabled:
            return None
        self._pub_count += 1
        return {
            "id": f"{self.site}-{self.boot_id[:6]}-{self._pub_count}",
            "origin": self.site,
            "seq": self._seq,
            "pid": os.getpid(),
            "mono": time.monotonic(),
            "vts": self.engine.now,
        }

    def _build_delta(self) -> UsageDeltaMessage:
        """Next publish: a full snapshot first, then changed entries only.

        A tick with no changes publishes an empty **heartbeat** carrying the
        current sequence number without advancing it: a receiver that is
        behind (a delta was lost to a partition while the sender then went
        idle) detects the gap from the heartbeat and requests a resync —
        without it, loss followed by silence would never be repaired.
        """
        dirty = self.local.drain_cursor(self._exchange_cursor)
        if self._seq == 0:
            self._seq = 1
            return self._full_message()
        if not dirty:
            self._metrics["exchanges_skipped"].inc()
            return UsageDeltaMessage(
                site=self.site, sent_at=self.engine.now,
                interval=self.local.interval, seq=self._seq, full=False,
                horizon=self.engine.now, boot=self.boot_id,
                tctx=self._make_tctx())
        user_table: List[str] = []
        user_idx: List[int] = []
        bin_idx: List[int] = []
        charges: List[float] = []
        for user, bins in dirty.items():
            ui = len(user_table)
            user_table.append(user)
            for b in bins:
                user_idx.append(ui)
                bin_idx.append(b)
                # absolute current value; 0.0 propagates a pruned/deleted bin
                charges.append(self.local.bin_value(user, b))
        self._seq += 1
        return UsageDeltaMessage(
            site=self.site, sent_at=self.engine.now,
            interval=self.local.interval, seq=self._seq, full=False,
            user_table=user_table, user_idx=user_idx, bin_idx=bin_idx,
            charges=charges, horizon=self.engine.now, boot=self.boot_id,
            tctx=self._make_tctx())

    def _full_message(self) -> UsageDeltaMessage:
        user_table, user_idx, bin_idx, charges = self.local.snapshot_arrays()
        return UsageDeltaMessage(
            site=self.site, sent_at=self.engine.now,
            interval=self.local.interval, seq=self._seq, full=True,
            user_table=user_table, user_idx=user_idx, bin_idx=bin_idx,
            charges=charges, horizon=self.engine.now, boot=self.boot_id,
            tctx=self._make_tctx())

    # -- receiving ---------------------------------------------------------

    def _on_message(self, message) -> None:
        if isinstance(message, UsageResyncRequest):
            self._serve_resync(message)
            return
        if message.interval != self.local.interval:
            # Sites must agree on the histogram interval for bins to align;
            # mismatched configurations are dropped, and counted
            self._metrics["interval_mismatch"].inc()
            return
        self._on_delta(message)

    def _remote_histogram(self, site: str) -> UsageHistogram:
        """The persistent per-site histogram, created on first contact.

        Deltas are applied *in place*, so the object must outlive any one
        message; UMS dirty-user cursors attach to it the moment it exists.
        """
        hist = self.remote.get(site)
        if hist is None:
            hist = UsageHistogram(self.local.interval)
            self.remote[site] = hist
            for cursor, per_hist in self._usage_cursors.items():
                if self._usage_cursor_remote[cursor]:
                    per_hist[site] = hist.register_cursor()
        return hist

    def _note_horizon(self, origin: str, horizon: float) -> None:
        """Advance (never roll back) an origin's usage high-watermark."""
        if horizon > self._recv_horizon.get(origin, float("-inf")):
            self._recv_horizon[origin] = horizon

    def _note_boot(self, site: str, boot: Optional[str]) -> bool:
        """Track a peer's incarnation; True when it changed (restart).

        A restarted peer's sequence numbers start over, so the
        receiver-side sequence cursor for it is reset — otherwise its
        publishes would compare as stale against the dead incarnation's
        high-watermark and be dropped forever.  The normal
        gap logic then repairs state: a non-full first contact triggers a
        :class:`~repro.services.messages.UsageResyncRequest`, a full
        snapshot applies directly.
        """
        if boot is None:
            return False
        known = self._recv_boot.get(site)
        self._recv_boot[site] = boot
        if known is None or known == boot:
            return False
        self._metrics["peer_restarts"].inc()
        self._recv_seq[site] = 0
        return True

    def _on_delta(self, message: UsageDeltaMessage) -> None:
        self._note_boot(message.site, message.boot)
        last = self._recv_seq.get(message.site, 0)
        heartbeat = not message.full and not message.charges
        if message.full:
            if message.seq < last:
                self._metrics["exchanges_stale"].inc()
                return
        else:
            if message.seq <= last:
                if not heartbeat:
                    self._metrics["exchanges_stale"].inc()
                elif message.seq == last:
                    # heartbeat confirming our exact state: nothing changed
                    # at the origin up to its horizon, so our copy is
                    # complete up to that time — freshness advances even
                    # though no data moved
                    self._note_horizon(message.site, message.usage_horizon)
                return  # heartbeat at (or behind) our state: already current
            if heartbeat or last == 0 or message.seq != last + 1:
                # missed at least one publish (partition, drop, late join):
                # state can no longer be patched — ask for a full snapshot.
                # A heartbeat never advances the applied sequence, so the
                # resync reply remains the only way to catch up.
                self._metrics["resyncs_requested"].inc()
                self.network.send(
                    self._endpoint, f"uss:{message.site}",
                    UsageResyncRequest(site=self.site,
                                       sent_at=self.engine.now,
                                       target=message.site))
                return
        self._recv_seq[message.site] = message.seq
        self._note_horizon(message.site, message.usage_horizon)
        self._metrics["exchanges_received"].inc()
        tctx = message.tctx
        if tctx is None:
            self._remote_histogram(message.site).apply_arrays(
                message.user_table, message.user_idx, message.bin_idx,
                message.charges, full=message.full)
            return
        # the remote end of the causal chain: same trace id as the
        # origin's uss.publish, recorded from a *different* process
        with trace.span("uss.apply", trace=tctx.get("id"),
                        origin=message.site, site=self.site,
                        seq=message.seq, full=message.full,
                        origin_pid=tctx.get("pid"),
                        origin_vts=tctx.get("vts")):
            self._remote_histogram(message.site).apply_arrays(
                message.user_table, message.user_idx, message.bin_idx,
                message.charges, full=message.full)
        self._note_applied_trace(tctx)

    def _serve_resync(self, request: UsageResyncRequest) -> None:
        if not self.publish:
            return
        self._metrics["resyncs_served"].inc()
        # current state at the current sequence number; an in-flight delta
        # with the same seq is redundant at the receiver (absolute values)
        if self._seq == 0:
            self._seq = 1
        with trace.span("uss.resync_serve", site=self.site,
                        requester=request.site):
            self.network.send(self._endpoint, f"uss:{request.site}",
                              self._full_message())

    # -- trace propagation -------------------------------------------------

    def _note_applied_trace(self, tctx: Dict[str, Any]) -> None:
        trace_id = tctx.get("id")
        if trace_id:
            self._applied_traces.append(str(trace_id))

    def drain_applied_traces(self) -> List[str]:
        """Trace ids applied since the last drain (exactly-once).

        The UMS pulls these at refresh time and carries them into its
        span args, handing the wire delta's causal identity down the
        UMS → FCS → snapshot chain.
        """
        out: List[str] = []
        while True:
            try:
                out.append(self._applied_traces.popleft())
            except IndexError:
                return out

    # -- queries ----------------------------------------------------------

    def global_usage(self, include_remote: bool = True) -> UsageHistogram:
        """Merged histogram: local plus (optionally) all known remote sites."""
        merged = UsageHistogram(self.local.interval)
        merged.merge(self.local)
        if include_remote:
            for hist in self.remote.values():
                merged.merge(hist)
        return merged

    def known_sites(self) -> List[str]:
        return sorted([self.site, *self.remote])

    # -- freshness ---------------------------------------------------------

    def usage_horizons(self, include_remote: bool = True) -> Dict[str, float]:
        """Per-origin usage high-watermark (virtual time).

        The local origin is always current: every ``record_job`` lands in
        the histogram immediately, so its horizon is ``engine.now`` (serve
        -plane records enqueued from other threads become visible at the
        next drain, which every exchange tick performs).  Remote horizons
        advance only with applied messages and current-seq heartbeats —
        during a partition they stall, which is exactly the signal.
        """
        horizons = {self.site: self.engine.now}
        if include_remote:
            horizons.update(self._recv_horizon)
        return horizons

    def usage_staleness(self, now: Optional[float] = None,
                        include_remote: bool = True) -> Dict[str, float]:
        """Per-origin horizon age: ``now - horizon``, clamped at zero."""
        if now is None:
            now = self.engine.now
        return {origin: max(0.0, now - horizon)
                for origin, horizon
                in self.usage_horizons(include_remote).items()}

    # -- incremental-UMS support ------------------------------------------

    def register_usage_cursor(self, include_remote: bool = True) -> int:
        """Track which users' histograms change (local and, optionally,
        remote) so a UMS can recompute only those on refresh."""
        cursor = next(self._usage_cursor_ids)
        per_hist = {"": self.local.register_cursor()}
        if include_remote:
            for site, hist in self.remote.items():
                per_hist[site] = hist.register_cursor()
        self._usage_cursors[cursor] = per_hist
        self._usage_cursor_remote[cursor] = include_remote
        return cursor

    def drain_dirty_users(self, cursor: int) -> Set[str]:
        """Users changed (on any tracked histogram) since the last drain."""
        dirty: Set[str] = set()
        for site, hist_cursor in self._usage_cursors[cursor].items():
            hist = self.local if site == "" else self.remote[site]
            dirty.update(hist.drain_cursor(hist_cursor))
        return dirty

    def release_usage_cursor(self, cursor: int) -> None:
        per_hist = self._usage_cursors.pop(cursor, None)
        if per_hist is None:
            return
        self._usage_cursor_remote.pop(cursor, None)
        for site, hist_cursor in per_hist.items():
            hist = self.local if site == "" else self.remote.get(site)
            if hist is not None:
                hist.release_cursor(hist_cursor)

    def decayed_user_totals(self, users: Sequence[str], now: float,
                            decay: DecayFunction,
                            include_remote: bool = True) -> Dict[str, float]:
        """Decayed usage of ``users`` across local (+ remote) histograms,
        one 2-D pass per histogram.

        Users absent from every tracked histogram are absent from the
        result — the caller drops them from its cache, matching what a
        full merge would show.
        """
        totals: Dict[str, float] = {}
        histograms = [self.local]
        if include_remote:
            histograms.extend(self.remote.values())
        for hist in histograms:
            for user, value in hist.decayed_totals_batch(
                    users, now, decay).items():
                totals[user] = totals.get(user, 0.0) + value
        return totals

    def newest_user_midpoints_for(self, users: Sequence[str],
                                  include_remote: bool = True
                                  ) -> Dict[str, float]:
        """Newest bin midpoints for a subset of users (batched)."""
        mids: Dict[str, float] = {}
        histograms = [self.local]
        if include_remote:
            histograms.extend(self.remote.values())
        for hist in histograms:
            for user in users:
                m = hist.newest_midpoint(user)
                if m is not None and m > mids.get(user, float("-inf")):
                    mids[user] = m
        return mids

    def newest_user_midpoints(self, include_remote: bool = True) -> Dict[str, float]:
        """Newest bin midpoint of every known user across tracked
        histograms, in one pass."""
        mids = dict(self.local.newest_midpoints())
        if include_remote:
            for hist in self.remote.values():
                for user, m in hist.newest_midpoints().items():
                    if m > mids.get(user, float("-inf")):
                        mids[user] = m
        return mids

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
        # leave the wire: a stopped USS must not keep receiving (and a
        # restarted instance must be able to claim the endpoint name)
        self.network.disconnect(self._endpoint)
