"""One run of one workload: build, warm up, measure, check, tear down.

Every workload goes through the same two measured parts, sharing
``--seconds`` 40 / 60:

update
    job completions are reported at an origin site and timed until the
    remote site serves a priority that reflects them (lock-step rounds for
    a ``chain`` system, an open-loop schedule for a live one);
serving
    cycles of RMS queue passes through ``LibAequus.over_socket`` at the
    remote site (cache cold at the start of each), sequential
    ``SyncAequusClient.get_fairshare`` round trips, and one closed-loop
    pipelined window on a raw connection.

The untraced run (``--trace 0``) yields the end-to-end metrics; the traced
run (``--trace 1``) turns the benchmark's own spans on for half the updates
(interleaved) and yields the per-layer budget.  Correctness checks run outside
the timed regions; anything wrong, refused or timed out is a failure.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.serve.client import SyncAequusClient

from . import hygiene, oracle, serveload
from .chain import ChainSystem, RoundSample
from .live import (INJECTION_SPACING, DaemonSystem, GridSystem, UpdateResult,
                   UsageWriter, drive_updates)
from .metrics import END_TO_END, NOT_APPLICABLE, PER_LAYER
from .spans import (Span, Tracer, chrome_trace, self_time_table, self_times,
                    traced_slot)
from .spec import WorkloadSpec, load_workload
from .stats import percentile, summarize, supported_tail

__all__ = ["WorkloadInvalid", "RunResult", "run_workload", "OUT_DIR"]

OUT_DIR = Path(__file__).resolve().parent / "out"
#: fewest measured samples a phase must produce, however short the run
MIN_ROUNDS = 4
MIN_CYCLES = 2
#: rounds (chain) or reports (live) discarded before measuring
WARMUP = 3
#: share of ``--seconds`` the update phase gets; serving gets the rest
UPDATE_SHARE = 0.4
#: The serving part runs in cycles of this many seconds, each split between
#: queue passes, sequential GETs and one pipelined window.  Host noise in
#: the sandbox comes in bursts of one to ten seconds that slow every
#: client/daemon hand-over by 10-40 % (README, Steadiness): measured in
#: three blocks a burst taints one metric wholly, interleaved it taints a
#: minority of every metric's cycles and the median over cycles ignores it.
CYCLE_SECONDS = 0.9
CYCLE_SHARE = {"pass": 0.5, "get": 0.25, "window": 0.25}


class WorkloadInvalid(RuntimeError):
    """A validity guard tripped: the run did not measure what it claims."""


class RunResult:
    """Everything one run produced; ``metrics`` is what the driver reads."""

    def __init__(self, workload: str, system: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.system = system
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.values: Dict[str, float] = {}
        self.summaries: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: Dict[str, Any] = {}
        self.table: List[Dict[str, Any]] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def count(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and why:
            self.problems.append(f"{failed} x {why}")

    @property
    def not_applicable(self) -> FrozenSet[str]:
        return NOT_APPLICABLE[self.system] if self.trace else frozenset()

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """The result line's metrics.  The driver wants every catalogue
        metric on every run, so a per-layer metric whose layer this system
        does not have is sent as 0 (and printed as n/a); any other metric
        without a measured value means the run is broken, not that it
        measured 0."""
        catalogue = PER_LAYER if self.trace else END_TO_END
        absent = self.not_applicable
        missing = [m.name for m in catalogue
                   if m.name not in self.values and m.name not in absent]
        if missing:
            raise WorkloadInvalid(
                f"{self.workload}: no value was measured for "
                f"{', '.join(missing)}")
        return {m.name: {"value": 0.0 if m.name in absent
                         else float(self.values[m.name]), "unit": m.unit}
                for m in catalogue}

    def last_line(self) -> str:
        return json.dumps({"correct": self.correct,
                           "attempted": int(self.attempted),
                           "failed": int(self.failed),
                           "metrics": self.metrics()})


def _workdir(attempt: int) -> Path:
    return OUT_DIR / "work" / f"{os.getpid()}-{attempt}"


def _build(spec: WorkloadSpec, seed: int, attempt: int):
    workdir = _workdir(attempt)
    if spec.system == "chain":
        return ChainSystem(spec, seed).build()
    if spec.system == "grid":
        return GridSystem(spec, seed, workdir).build()
    if spec.system == "daemon":
        return DaemonSystem(spec, seed, workdir).build()
    raise SystemExit(f"{spec.name}: unknown system {spec.system!r}")


def _delta(before: Dict[str, float], after: Dict[str, float],
           family: str, needle: str = "") -> float:
    """Growth of one metric family (optionally one label) between scrapes."""
    def total(scrape: Dict[str, float]) -> float:
        return sum(v for k, v in scrape.items()
                   if (k == family or k.startswith(family + "{"))
                   and needle in k)
    return total(after) - total(before)


def _mean_ms(before: Dict[str, float], after: Dict[str, float],
             family: str, needle: str = "") -> float:
    """Mean of a latency histogram over the window, in milliseconds."""
    count = _delta(before, after, family + "_count", needle)
    return 1e3 * _delta(before, after, family + "_sum", needle) / count \
        if count else 0.0


# -- update phase: chain ------------------------------------------------------

def _per_round(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """round id -> span name -> self seconds."""
    selfs = self_times(spans)
    out: Dict[int, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.round_id, {})
        row[span.name] = row.get(span.name, 0.0) + selfs[span.index]
        if span.name == "round":
            row["_total"] = span.duration
    return out


def _budget(v: Dict[str, float], per_round: List[Dict[str, float]]) -> None:
    """How much of an update's end-to-end time the layer spans account for."""
    layer_sums = [sum(t for n, t in r.items() if n not in ("round", "_total"))
                  for r in per_round]
    v["chain.layer_sum_ms"] = 1e3 * percentile(layer_sums, 50.0)
    v["chain.unattributed_frac"] = percentile(
        [1.0 - s / r["_total"] for s, r in zip(layer_sums, per_round)], 50.0)


def _update_chain(system: ChainSystem, spec: WorkloadSpec, seconds: float,
                  res: RunResult) -> None:
    tracer = Tracer(enabled=True)
    quiet = Tracer(enabled=False)
    for _ in range(WARMUP):
        system.round(quiet)
    before = [system.scrape(0), system.scrape(1)]
    epoch_before = system.clients[1].stats["epoch_changes"]
    relayouts_before = system.writer.relayouts
    samples: List[RoundSample] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = res.trace and traced_slot(len(samples))
        sample = system.round(tracer if traced else quiet)
        samples.append(sample)
        if sample.ok and sample.recomputed > 2 * sample.dirtied:
            raise WorkloadInvalid(
                f"{spec.name}: round {len(samples)} recomputed "
                f"{sample.recomputed} users for {sample.dirtied} dirtied — "
                "the UMS steady state never engaged")
    after = [system.scrape(0), system.scrape(1)]
    good = [s for s in samples if s.ok]
    res.count(len(samples), len(samples) - len(good),
              next((s.why for s in samples if not s.ok), ""))
    if not good:
        raise WorkloadInvalid(f"{spec.name}: no update round succeeded")
    res.notes["update"] = {"rounds": len(samples), "warmup": WARMUP,
                           "loop": "closed, lock-step"}
    plain = [s.delay_ms for s in good if not s.traced]
    _record_delays(res, plain or [s.delay_ms for s in good])
    if not res.trace:
        return
    rounds = len(samples)
    v = res.values
    per_round = [row for row in _per_round(tracer.spans).values()
                 if "_total" in row]

    def med(name: str) -> float:
        return 1e3 * percentile([r.get(name, 0.0) for r in per_round], 50.0) \
            if per_round else 0.0

    for span in ("serve.ingest", "serve.get", "uss.drain", "uss.publish",
                 "uss.apply", "ums.refresh", "fcs.refresh", "snapshot.build",
                 "shm.publish"):
        v[span + "_ms"] = med(span)
    traced = [s for s in good if s.traced]
    v["wire.encode_ms"] = 1e3 * percentile([s.encode_s for s in traced], 50.0)
    v["wire.decode_ms"] = 1e3 * percentile([s.decode_s for s in traced], 50.0)
    v["transport.transit_ms"] = max(
        0.0, med("grid.wire") - v["wire.encode_ms"] - v["wire.decode_ms"])
    _budget(v, per_round)
    v["trace_overhead_frac"] = _block_overhead(
        [s.delay_ms if s.ok else None for s in samples])
    v["uss.delta_entries"] = percentile([s.delta_entries for s in good], 50.0)
    v["wire.frame_bytes"] = percentile([s.frame_bytes for s in good], 50.0)
    v["wire.payload_bytes"] = percentile([s.payload_bytes for s in good], 50.0)
    v["wire.framed_over_payload"] = (sum(s.frame_bytes for s in good)
                                     / sum(s.payload_bytes for s in good))
    v["wire.encodes_per_publish"] = percentile([s.encodes for s in good], 50.0)
    v["wire_bytes_per_update"] = v["wire.frame_bytes"]
    v["ums.users_recomputed"] = percentile([s.recomputed for s in good], 50.0)
    v["ums.recompute_ratio"] = (sum(s.recomputed for s in good)
                                / sum(s.dirtied for s in good))
    v["fcs.dirty_fraction"] = percentile(
        [s.dirty_fraction for s in traced], 50.0)
    v["serve.epoch_changed_retries"] = (
        system.clients[1].stats["epoch_changes"] - epoch_before)
    v["shm.relayouts"] = system.writer.relayouts - relayouts_before
    _layer_counts(v, before, after, remote=1, updates=rounds)
    reader = system.shm_backend.reader
    users = list(system.accounts.values())
    reads = []
    for user in users[:512]:
        t0 = time.perf_counter()
        reader.lookup(user)
        reads.append((time.perf_counter() - t0) * 1e6)
    v["shm.read_us"] = percentile(reads, 50.0)
    res.table = self_time_table(tracer.spans)
    _write_trace(res, tracer.spans)


def _gauge(scrape: Dict[str, float], family: str) -> float:
    return next((v for k, v in scrape.items()
                 if k == family or k.startswith(family + "{")), 0.0)


def _layer_counts(v: Dict[str, float], before: Sequence[Dict[str, float]],
                  after: Sequence[Dict[str, float]], remote: int,
                  updates: int) -> None:
    """Counters every system exposes through its METRICS scrape."""
    def everywhere(family: str, needle: str = "") -> float:
        return sum(_delta(b, a, family, needle)
                   for b, a in zip(before, after))
    b, a = before[remote], after[remote]
    per = max(1, updates)
    v["serve.requests"] = _delta(b, a, "aequus_requests_total") / per
    v["serve.errors"] = _delta(b, a, "aequus_errors_total") / per
    v["uss.heartbeats"] = everywhere(
        "aequus_uss_exchanges_total", 'event="skipped"') / per
    v["uss.resyncs"] = everywhere(
        "aequus_uss_resyncs_total", 'event="requested"')
    v["uss.stale_dropped"] = everywhere(
        "aequus_uss_exchanges_total", 'event="stale"')
    v["transport.frames"] = (
        everywhere("aequus_grid_frames_total", 'direction="in"')
        + everywhere("aequus_grid_frames_total", 'direction="out"')) / per
    v["transport.drops"] = everywhere("aequus_grid_frames_dropped_total")
    v["transport.reconnects"] = everywhere("aequus_grid_reconnects_total")
    v["ums.users_shifted"] = _delta(
        b, a, "aequus_ums_users_total", 'how="shifted"') / per
    v["fcs.compile_full"] = _delta(b, a, "aequus_compile_total", 'kind="full"')
    v["fcs.compile_incremental"] = _delta(
        b, a, "aequus_compile_total", 'kind="incremental"')
    v["fcs.cache_hits"] = _delta(b, a, "aequus_cache_lookups_total",
                                 'cache="fcs_refresh",outcome="hit"')


def _block_overhead(delays: Sequence[Optional[float]]) -> float:
    """Tracing overhead from updates interleaved T U U T: per complete
    block of four, traced over untraced delay; the median over blocks,
    minus 1.  ``None`` marks a failed update (its block is skipped)."""
    ratios = [(b[0] + b[3]) / (b[1] + b[2])
              for b in (delays[i:i + 4] for i in range(0, len(delays) - 3, 4))
              if None not in b]
    return percentile(ratios, 50.0) - 1.0 if ratios else 0.0


def _record_delays(res: RunResult, delays: List[float]) -> None:
    summary = summarize(delays)
    res.summaries["update_delay_ms"] = summary
    res.values["update_delay_ms_p50"] = summary["p50"]
    res.values["diag.update_delay_ms_p90"] = percentile(delays, 90.0)
    res.values["diag.update_delay_ms_max"] = summary["max"]
    res.values["diag.update_samples"] = summary["n"]


# -- update phase: live -------------------------------------------------------

def _update_live(system, spec: WorkloadSpec, seconds: float,
                 res: RunResult, rng: np.random.Generator) -> None:
    out: UpdateResult = drive_updates(system, seconds, WARMUP, res.trace,
                                      rng)
    done = [i for i in out.injections if i.detected is not None]
    lost = len(out.injections) - len(done)
    res.count(len(out.injections), lost,
              "usage report refused or never reflected")
    if not done:
        raise WorkloadInvalid(f"{spec.name}: no update was ever reflected")
    res.notes["update"] = {
        "injections": len(out.injections), "warmup": WARMUP,
        "loop": f"open, one report per {INJECTION_SPACING}s, "
                "timed from the due time"}
    plain = [(i.detected - i.due) * 1e3 for i in done if not i.traced]
    _record_delays(res, plain if plain else
                   [(i.detected - i.due) * 1e3 for i in done])
    if not res.trace:
        return
    v = res.values
    late = [(i.sent - i.due) * 1e3 for i in out.injections]
    v["gen.late_ms_p99"] = percentile(late, supported_tail(len(late)) or 100.0)
    v["serve.ingest_ms"] = percentile(
        [(i.accepted - i.sent) * 1e3 for i in out.injections], 50.0)
    v["serve.get_ms"] = percentile(out.poll_us, 50.0) / 1e3
    traced = [i for i in done if i.traced and i.drained is not None]
    if traced:
        v["live.ingest_wait_ms"] = percentile(
            [(i.drained - i.due) * 1e3 for i in traced], 50.0)
        v["live.remote_ms"] = percentile(
            [(i.detected - i.drained) * 1e3 for i in traced], 50.0)
    # a delay here is mostly where in the tick the report fell, so blocks
    # of four say nothing: compare the two interleaved halves' medians
    traced_delays = [(i.detected - i.due) * 1e3 for i in done if i.traced]
    if plain and traced_delays:
        v["trace_overhead_frac"] = (percentile(traced_delays, 50.0)
                                    / percentile(plain, 50.0) - 1.0)
    tracer = Tracer(enabled=True)
    for inj in (i for i in done if i.traced):
        tracer.round_id = inj.index
        root = tracer.begin("round", at=inj.due)
        tracer.add("gen.late", inj.due, inj.sent)
        tracer.add("serve.ingest", inj.sent, inj.accepted)
        if inj.drained is not None:
            tracer.add("live.ingest_wait", inj.accepted, inj.drained)
            tracer.add("live.remote", inj.drained, inj.detected)
        else:
            # a sharded daemon's workers do not report the ingress queue:
            # the two waits stay one interval
            tracer.add("live.wait", inj.accepted, inj.detected)
        tracer.end(root, at=inj.detected)
    res.table = self_time_table(tracer.spans)
    _write_trace(res, tracer.spans)
    _budget(v, list(_per_round(tracer.spans).values()))
    v["serve.epoch_changed_retries"] = out.epoch_changes
    sites = sorted(out.scrapes)
    before = [out.scrapes[s][0] for s in sites]
    after = [out.scrapes[s][1] for s in sites]
    updates = len(out.injections)
    _layer_counts(v, before, after, remote=len(sites) - 1, updates=updates)
    b, a = before[-1], after[-1]
    v["ums.refresh_ms"] = _mean_ms(b, a, "aequus_ums_refresh_seconds")
    v["fcs.refresh_ms"] = _mean_ms(b, a, "aequus_refresh_seconds",
                                   'phase="total"')
    v["uss.publish_ms"] = _mean_ms(before[0], after[0],
                                   "aequus_uss_exchange_seconds")
    v["fcs.dirty_fraction"] = _gauge(a, "aequus_refresh_dirty_fraction")
    recomputed = _delta(b, a, "aequus_ums_users_total", 'how="recomputed"')
    v["ums.users_recomputed"] = recomputed / max(1, updates)
    # every record drained anywhere dirties its user at the remote site too
    drained = sum(_delta(x, y, "aequus_uss_records_total", 'event="drained"')
                  for x, y in zip(before, after))
    if drained:
        v["ums.recompute_ratio"] = recomputed / drained
    publishes = sum(_delta(x, y, "aequus_uss_exchanges_total", 'event="sent"')
                    for x, y in zip(before, after))
    framed = sum(_delta(x, y, "aequus_grid_peer_bytes_total",
                        'direction="out"') for x, y in zip(before, after))
    payload = sum(_delta(x, y, "aequus_network_payload_bytes_total")
                  for x, y in zip(before, after))
    entries = sum(_delta(x, y, "aequus_network_payload_entries_total")
                  for x, y in zip(before, after))
    if publishes:
        v["wire_bytes_per_update"] = framed / publishes
        v["wire.frame_bytes"] = framed / publishes
        v["wire.payload_bytes"] = payload / publishes
        v["uss.delta_entries"] = entries / publishes
        v["wire.encodes_per_publish"] = _delta(
            before[0], after[0], "aequus_grid_frames_total",
            'direction="out"') / max(1.0, _delta(
                before[0], after[0], "aequus_uss_exchanges_total",
                'event="sent"'))
    if payload:
        v["wire.framed_over_payload"] = framed / payload


# -- the serving part (every system) ------------------------------------------

def _serve_cycles(system, spec: WorkloadSpec, seconds: float, res: RunResult,
                  rng: np.random.Generator) -> None:
    """Queue passes, sequential GETs and pipelined windows, in cycles.

    Each cycle gives the three their ``CYCLE_SHARE`` of ``CYCLE_SECONDS``,
    so the samples behind every metric span the whole serving part.  A
    figure is the median over cycles of the cycle's own figure (a pass's
    time, a slice's p50, a window's rate).
    """
    port = system.serve_port
    accounts = list(system.accounts)
    identities = [system.accounts[a] for a in accounts]
    owners = serveload.pending_queue(accounts, rng)
    pids = system.pids()
    v = res.values
    passes: List[float] = []
    hit_ratio: List[float] = []
    trips: List[float] = []
    gets: List[float] = []
    slice_p50: List[float] = []
    rates: List[float] = []
    wrong = checked = get_failed = 0
    pass_cpu = pass_wall = 0.0
    with SyncAequusClient(system.host, port, timeout=30.0) as client:
        transport = client if system.has_irs \
            else serveload.PassthroughIdentity(client)
        # warm the connection and the client's leaf-id cache
        serveload.queue_pass(transport, owners)
        ids = serveload.raw_leaf_ids(port, identities[:256])
        if not ids:
            raise WorkloadInvalid(f"{spec.name}: no identity resolved to a leaf")
        deadline = time.perf_counter() + seconds
        while len(rates) < MIN_CYCLES or time.perf_counter() < deadline:
            # -- queue passes, back to back ----------------------------------
            cpu0, t0 = hygiene.cpu_seconds(pids), time.perf_counter()
            first = len(passes)
            while len(passes) == first or (time.perf_counter() - t0
                                           < CYCLE_SECONDS * CYCLE_SHARE["pass"]):
                seq_before = _snapshot_seq(client)
                requests_before = client.stats["requests"]
                ms, served, lib = serveload.queue_pass(transport, owners)
                trips.append(client.stats["requests"] - requests_before)
                passes.append(ms)
                hit_ratio.append(lib.cache_stats()["fairshare"]["hit_rate"])
                # off the clock: a pass within one snapshot must match BATCH
                reference = client.batch_lookup_fairshare(identities)
                if _snapshot_seq(client) == seq_before:
                    checked += 1
                    wrong += sum(
                        1 for account, value in served.items()
                        if abs(value - reference[system.accounts[account]][0])
                        > 1e-12)
            pass_cpu += hygiene.cpu_seconds(pids) - cpu0
            pass_wall += time.perf_counter() - t0
            # -- sequential GETs ---------------------------------------------
            samples, failed = serveload.sequential_gets(
                client, identities, CYCLE_SECONDS * CYCLE_SHARE["get"])
            gets.extend(samples)
            get_failed += failed
            slice_p50.append(percentile(samples, 50.0))
            # -- closed-loop pipelined window on a raw connection ------------
            qps, replies, bad = serveload.pipelined_window(
                port, ids, CYCLE_SECONDS * CYCLE_SHARE["window"])
            rates.append(qps)
            res.count(replies, bad, "pipelined GET answered with an error")
        compared, mismatched = serveload.check_get_batch_agree(
            client, identities[:32])
        v["client.retries"] = client.stats["retries"]
    res.count(len(passes) * len(owners), wrong,
              "queue-pass value differs from BATCH at the same snapshot")
    res.count(compared, mismatched, "GET and BATCH disagree at one seq")
    res.count(len(gets), get_failed, "GET raised")
    v["daemon_cpu_ms_per_s"] = 1e3 * pass_cpu / pass_wall
    summary = summarize(passes)
    res.summaries["queue_pass_ms"] = summary
    v["queue_pass_ms_p50"] = summary["p50"]
    v["diag.queue_pass_ms_p90"] = percentile(passes, 90.0)
    v["diag.queue_passes"] = summary["n"]
    v["client.round_trips_per_pass"] = percentile(trips, 50.0)
    v["client.cache_hit_ratio"] = percentile(hit_ratio, 50.0)
    res.summaries["get_us"] = summarize(gets)
    res.summaries["get_us_slice_p50"] = summarize(slice_p50)
    v["get_us_p50"] = percentile(slice_p50, 50.0)
    v["diag.get_us_p99"] = percentile(gets, 99.0)
    v["diag.get_samples"] = len(gets)
    res.summaries["get_qps"] = summarize(rates)
    v["get_qps"] = percentile(rates, 50.0)
    res.notes["serve"] = {
        "cycles": len(rates), "cycle_s": CYCLE_SECONDS, "share": CYCLE_SHARE,
        "passes": len(passes), "value_checked": checked,
        "jobs": len(owners), "owners": len(accounts),
        "sequential_gets": len(gets), "depth": serveload.PIPELINE_DEPTH,
        "loop": "closed, one scheduler, one connection"}
    if res.trace:
        raw = serveload.raw_sequential_us(port, ids, 2000)
        v["client.overhead_us"] = v["get_us_p50"] - percentile(raw, 50.0)


def _snapshot_seq(client: SyncAequusClient) -> int:
    return int(client.info()["info"].get("snapshot", {}).get("seq", -1))


# -- the run ------------------------------------------------------------------

def _write_trace(res: RunResult, spans: List[Span]) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{res.workload}.trace.json"
    path.write_text(json.dumps(chrome_trace(spans, res.workload)))
    res.notes["chrome_trace"] = str(path.relative_to(OUT_DIR.parent.parent))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: Optional[int] = None) -> RunResult:
    spec = load_workload(name)
    res = RunResult(name, spec.system, seed, seconds, trace)
    rng = np.random.default_rng([seed, 0])
    cpu = hygiene.pin_to_one_cpu()
    res.notes["pinned"] = f"cpu {cpu}" if cpu is not None \
        else "no (the sandbox forbids it: expect noisier timings)"
    baseline = hygiene.Baseline()
    repeats = setup_repeats or spec.setup_repeats
    setups: List[float] = []
    system = None
    writer = None
    try:
        for attempt in range(repeats):
            if system is not None:
                system.close()
                system = None
                gc.collect()
            t0 = time.perf_counter()
            system = _build(spec, seed, attempt)
            setups.append(time.perf_counter() - t0)
            baseline.claim(system.pids())
        res.values["setup_s"] = percentile(setups, 50.0)
        res.summaries["setup_s"] = summarize(setups)
        update_seconds = seconds * UPDATE_SHARE
        if spec.writer_rate > 0:
            writer = UsageWriter(system, spec.writer_rate, seed).start()
        if spec.system == "chain":
            _update_chain(system, spec, update_seconds, res)
        else:
            _update_live(system, spec, update_seconds, res, rng)
        _serve_cycles(system, spec, seconds - update_seconds, res, rng)
        if writer is not None:
            writer.stop()
            res.count(writer.sent, writer.refused, "background report refused")
            res.notes["writer"] = {"sent": writer.sent,
                                   "late_ms": summarize(writer.late_ms)}
            writer = None
        res.values["rss_mb"] = hygiene.peak_rss_mb(system.pids())
        if spec.system == "chain":
            reference = oracle.replay(spec, seed, system.records, system.now)
            leaves, wrong, worst = oracle.compare(
                dict(system.sites[1].fcs.values_view()), reference)
            res.count(leaves, wrong, "leaf priority differs from the "
                      f"sim-plane replay (worst gap {worst:.3g})")
            res.notes["oracle"] = {"leaves": leaves, "worst_gap": worst}
    finally:
        if writer is not None:
            writer.stop()
        if system is not None:
            system.close()
    if trace:
        # layers only the daemon itself can time (written as it exits)
        res.values.update(getattr(system, "layer_report", {}))
    left = baseline.problems()
    if left:
        res.problems.append(f"left behind: {left}")
    if res.correct:
        # daemon logs are only worth keeping when something went wrong
        for attempt in range(repeats):
            shutil.rmtree(_workdir(attempt), ignore_errors=True)
    res.notes["hygiene"] = left or "clean"
    res.values["failed_frac"] = res.failed / max(1, res.attempted)
    return res
