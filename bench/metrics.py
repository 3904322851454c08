"""The metric catalogue: names, units, direction, regression bounds.

``BENCHMARK.json`` mirrors this file (``bench/tests`` checks they agree).
Names are fixed: later issues cite them verbatim.

End-to-end metrics are what a user of Aequus feels, are reported by every
workload, and carry the bound by which they may worsen.  A bound is set
from measurement: at least three times the widest run-to-run spread
(interquartile range over median of ten runs) the metric showed on any
workload in the baseline sets, never below the figure ISSUE 11 named and
never above 0.25, the most the benchmark contract allows.  In this sandbox
the host slows whole runs by 20-25 % for a minute at a time (README,
Steadiness), so every timing sits at that ceiling; a metric that cannot
hold even the ceiling does not stay here: it moves to the per-layer list
under a ``diag.`` prefix, where it is still printed but gates nothing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "NOT_APPLICABLE", "by_name"]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float]
    meaning: str


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25,
           "build policy + sites/daemons until the first converged "
           "snapshot is served (median of the run's set-ups)"),
    Metric("update_delay_ms_p50", "ms", "lower", 0.25,
           "usage report accepted at the origin site -> first GET reply at "
           "the remote site that reflects it (paper Fig. 11)"),
    Metric("queue_pass_ms_p50", "ms", "lower", 0.25,
           "one RMS pass: 5000 pending jobs through LibAequus.over_socket, "
           "cache cold at pass start"),
    Metric("get_us_p50", "us", "lower", 0.25,
           "sequential SyncAequusClient.get_fairshare round trip, median "
           "over cycles of the slice's p50"),
    Metric("get_qps", "1/s", "higher", 0.25,
           "closed loop, one raw connection, 64 pre-encoded binary frames "
           "in flight, median over cycles of the window's rate"),
    Metric("rss_mb", "MB", "lower", 0.10,
           "peak resident memory of the system under test (this process "
           "for chain workloads, the sum over daemons otherwise)"),
]

_L = "lower"
_H = "higher"

PER_LAYER: List[Metric] = [Metric(n, u, b, None, m) for n, u, b, m in [
    # serve.server / serve.backend
    ("serve.ingest_ms", "ms", _L, "REPORT_USAGE round trip into uss.enqueue_record"),
    ("serve.get_ms", "ms", _L, "the GET (or polling BATCH) at the remote site"),
    ("serve.requests", "count", _L, "requests the remote server executed, per update"),
    ("serve.errors", "count", _L, "error replies, per update"),
    ("serve.epoch_changed_retries", "count", _L, "client re-resolves after EPOCH_CHANGED"),
    # services.uss
    ("uss.drain_ms", "ms", _L, "drain_ingest at the origin"),
    ("uss.publish_ms", "ms", _L, "exchange tick start -> first send (delta build)"),
    ("uss.apply_ms", "ms", _L, "the USS handler applying the delta at the remote site"),
    ("uss.delta_entries", "count", _L, "(user, bin) entries per published delta"),
    ("uss.heartbeats", "count", _L, "empty publishes, per update"),
    ("uss.resyncs", "count", _L, "full-snapshot resyncs requested, whole phase"),
    ("uss.stale_dropped", "count", _L, "messages dropped as stale, whole phase"),
    # grid.wire
    ("wire.encode_ms", "ms", _L, "encode_frame on the captured delta"),
    ("wire.decode_ms", "ms", _L, "decode_frame on the captured delta"),
    ("wire.frame_bytes", "B", _L, "framed bytes of one delta"),
    ("wire.payload_bytes", "B", _L, "message.wire_bytes() of one delta (the cost model)"),
    ("wire.framed_over_payload", "ratio", _L, "framed bytes over modelled payload bytes"),
    ("wire.encodes_per_publish", "count", _L, "frames encoded per publish (one per peer today)"),
    ("wire_bytes_per_update", "B", _L, "framed bytes on the USS wire per publish per peer"),
    # grid.transport
    ("transport.transit_ms", "ms", _L, "send -> remote inbound buffer, minus encode and decode"),
    ("transport.frames", "count", _L, "frames in+out at both ends, per update"),
    ("transport.drops", "count", _L, "frames dropped, whole phase"),
    ("transport.reconnects", "count", _L, "outbound links re-dialled, whole phase"),
    # services.ums
    ("ums.refresh_ms", "ms", _L, "ums.refresh() at the remote site"),
    ("ums.users_recomputed", "count", _L, "users recomputed, per update"),
    ("ums.users_shifted", "count", _L, "users advanced by the analytic age shift, per update"),
    ("ums.recompute_ratio", "ratio", _L, "users recomputed over users dirtied (1.0 is ideal)"),
    # services.fcs + core.flat
    ("fcs.refresh_ms", "ms", _L, "fcs.refresh() at the remote site, no listeners attached"),
    ("fcs.dirty_fraction", "ratio", _L, "share of flat-tree nodes the last refresh re-evaluated"),
    ("fcs.compile_full", "count", _L, "full policy compiles, whole phase"),
    ("fcs.compile_incremental", "count", _L, "journal-splice compiles, whole phase"),
    ("fcs.cache_hits", "count", _H, "refreshes served from the unchanged-state fast path, whole phase"),
    # serve.snapshot, serve.shm
    ("snapshot.build_ms", "ms", _L, "snapshot_from_fcs + SnapshotStore.publish"),
    ("shm.publish_ms", "ms", _L, "ShmSnapshotWriter.publish (as the daemon's listener runs it)"),
    ("shm.relayouts", "count", _L, "shm relayouts, whole phase"),
    ("shm.read_us", "us", _L, "ShmSnapshotReader.lookup"),
    # serve.client + client (libaequus)
    ("client.overhead_us", "us", _L, "sync-client GET p50 minus raw-socket GET p50"),
    ("client.round_trips_per_pass", "count", _L, "requests one queue pass put on the wire"),
    ("client.cache_hit_ratio", "ratio", _H, "libaequus fairshare-cache hit ratio over one pass"),
    ("client.retries", "count", _L, "client retries, whole run"),
    # grid.node live waits (INFO polling)
    ("live.ingest_wait_ms", "ms", _L, "report due -> origin's ingress queue drained"),
    ("live.remote_ms", "ms", _L, "ingress drained -> served at the remote site"),
    # whole chain
    ("chain.layer_sum_ms", "ms", _L, "sum of the layers' self times in one round"),
    ("chain.unattributed_frac", "ratio", _L, "1 - layer self times over the round's end-to-end time"),
    ("trace_overhead_frac", "ratio", _L, "traced update delay p50 over untraced, minus 1"),
    ("gen.late_ms_p99", "ms", _L, "how late the open-loop generator sent a report (tail)"),
    # operators' view, and the tails that are not steady enough to gate
    ("daemon_cpu_ms_per_s", "ms/s", _L, "system-under-test CPU per wall second over the cycles' queue passes"),
    ("failed_frac", "ratio", _L, "operations timed out, refused or served wrong, over attempted"),
    ("diag.update_delay_ms_p90", "ms", _L, "update delay p90 (supported from 100 samples up; see the printed n)"),
    ("diag.update_delay_ms_max", "ms", _L, "update delay, worst sample"),
    ("diag.queue_pass_ms_p90", "ms", _L, "queue pass p90 (supported from 100 passes up; see the printed n)"),
    ("diag.get_us_p99", "us", _L, "sequential GET p99 (supported from 1000 samples up)"),
    ("diag.update_samples", "count", _H, "update-delay samples behind the p50"),
    ("diag.queue_passes", "count", _H, "queue passes behind the p50"),
    ("diag.get_samples", "count", _H, "sequential GETs behind the p50"),
]]


#: Per-layer metrics a kind of system cannot yield, because the layer is not
#: there or cannot be timed from outside a daemon.  The result line carries
#: them as 0 (the driver wants every per-layer metric on every traced run)
#: and the report prints n/a; every other metric must have been measured.
_NO_INSIDE_VIEW = {
    # call-level timings the bench can only take with the site in-process
    "uss.apply_ms", "wire.encode_ms", "wire.decode_ms",
    "transport.transit_ms", "snapshot.build_ms", "shm.relayouts",
    "shm.read_us"}
NOT_APPLICABLE: Dict[str, FrozenSet[str]] = {
    # lock-step: no generator schedule to run late, no tick to wait for
    "chain": frozenset({"live.ingest_wait_ms", "live.remote_ms",
                        "gen.late_ms_p99"}),
    # a grid-node serves from its in-process store: no shm writer
    "grid": frozenset(_NO_INSIDE_VIEW | {"uss.drain_ms", "shm.publish_ms"}),
    # one site: nothing is published, framed or applied; a sharded daemon's
    # workers do not show the ingress queue, so its two waits stay one span
    "daemon": frozenset(_NO_INSIDE_VIEW | {
        "uss.publish_ms", "uss.delta_entries", "wire.frame_bytes",
        "wire.payload_bytes", "wire.framed_over_payload",
        "wire.encodes_per_publish", "wire_bytes_per_update",
        "live.ingest_wait_ms", "live.remote_ms"}),
}


def by_name() -> Dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}
