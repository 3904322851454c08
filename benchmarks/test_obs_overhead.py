"""Observability overhead gate: instrumentation must stay under 5%.

Re-measures the two hot paths the obs layer instruments — the FCS refresh
(PR-1's benchmark unit, now carrying phase histograms, spans and the
refresh timer) and the aequusd serve plane (PR-3's benchmark unit, now
carrying per-op latency histograms and registry-backed stats) — once with
observability enabled and once with it disabled (``obs.set_enabled``,
which governs registries and tracers created *after* the call, so each
mode builds a fresh stack).

Counters and gauges are views backing public APIs and stay live in both
modes; what the flag switches off is exactly the observability-only work
(histogram observations, ``perf_counter`` pairs, span records).  The gate
holds that work to < ``REPRO_OBS_MAX_OVERHEAD`` (default 5%) relative
overhead, using best-of-N timing to shed scheduler noise.

Results land in ``benchmarks/BENCH_obs.json`` (and results.txt); set
``REPRO_BENCH_SCALE=small`` for the smoke tier.
"""

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.serve.client import AequusClient
from repro.serve.daemon import build_demo_site, build_grid_policy, serve_site
from repro.services.fcs import FairshareCalculationService
from repro.sim.engine import SimulationEngine

JSON_PATH = Path(__file__).parent / "BENCH_obs.json"

#: (refresh-bench users, serve-bench users, serve requests) per scale tier;
#: the refresh tier stays >= 5k even in smoke mode so the ~30 us of span +
#: histogram work per refresh is measured against a millisecond-scale
#: denominator, not timer jitter
_SCALES = {"paper": (10_000, 10_000, 12_000), "small": (5_000, 2_000, 4_000)}

GATE_MAX_OVERHEAD = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", 0.05))

REFRESH_ROUNDS = 30           #: instrumented refreshes per timing pass
REPEATS = 3                   #: best-of passes per booted stack
TRIALS = 4                    #: interleaved on/off stack boots per path —
                              #: loopback throughput jitters far more than
                              #: the gate width, so each mode's capacity is
                              #: the best over alternating trials (drift
                              #: hits both modes alike)
WORKERS = 64                  #: concurrent serve requesters


def scale_tier():
    return _SCALES[os.environ.get("REPRO_BENCH_SCALE", "paper")]


class _StubPDS:
    """Fixed policy at a fixed epoch (isolates the refresh itself)."""

    def __init__(self, policy):
        self._policy = policy

    def policy_epoch(self):
        return (1,)

    def policy(self):
        return self._policy


class _StubUMS:
    """Alternating usage vectors so every refresh is a cache miss — the
    instrumented compile/rollup/project path, not the cached-epoch fast
    path.  Implements the UMS interface the FCS reads; always draining
    ``(True, {})`` makes each refresh a full refold and full kernel pass."""

    def __init__(self, policy, seed=0):
        rng = np.random.default_rng(seed)
        leaves = policy.leaf_paths()
        self._variants = [
            {path: float(int(rng.integers(1, 1_000_000))) for path in leaves
             if rng.random() < 0.7}
            for _ in range(2)]
        self.calls = 0

    def register_totals_cursor(self):
        return 1

    def release_totals_cursor(self, cursor):
        pass

    def drain_totals_changes(self, cursor):
        self.calls += 1
        return True, {}

    def usage_totals_base(self):
        return self._variants[self.calls % len(self._variants)]

    def usage_scale(self):
        return 1.0

    def usage_horizons(self):
        return {}

    def drain_applied_traces(self):
        return []


def _build_fcs(n_users):
    engine = SimulationEngine()
    policy = build_grid_policy(n_users, seed=0)
    return FairshareCalculationService(
        "bench", engine, _StubPDS(policy), _StubUMS(policy),
        refresh_interval=1e9)


def _measure_refresh(n_users):
    fcs = _build_fcs(n_users)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(REFRESH_ROUNDS):
            fcs.refresh()
        best = min(best, (time.perf_counter() - t0) / REFRESH_ROUNDS)
    fcs.stop()
    return best


async def _serve_pass(host, port, users, n_requests):
    async with AequusClient(host, port, pool_size=1, timeout=30.0) as client:
        await asyncio.gather(*[client.get_fairshare(u) for u in users[:64]])
        n = len(users)
        per_worker = n_requests // WORKERS

        async def worker(w):
            base = w * per_worker
            for i in range(per_worker):
                await client.get_fairshare(users[(base + i) % n])

        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            await asyncio.gather(*[worker(w) for w in range(WORKERS)])
            best = min(best, time.perf_counter() - t0)
        return (per_worker * WORKERS) / best


def _measure_serve(n_users, n_requests):
    _, site = build_demo_site(n_users, seed=0)
    thread = serve_site(site)
    users = [f"u{i}" for i in range(0, n_users, max(1, n_users // 512))]
    try:
        return asyncio.run(_serve_pass(thread.host, thread.port, users,
                                       n_requests))
    finally:
        thread.stop()
        site.stop()


def _in_mode(enabled, fn, *args):
    """Run ``fn`` with the obs default toggled; fresh stacks inside ``fn``
    inherit the flag.  Always restores the previous default."""
    previous = obs.default_enabled()
    obs.set_enabled(enabled)
    try:
        return fn(*args)
    finally:
        obs.set_enabled(previous)


@pytest.fixture(scope="module")
def obs_rows(report):
    refresh_users, serve_users, serve_requests = scale_tier()

    refresh = {True: [], False: []}
    serve = {True: [], False: []}
    for _ in range(TRIALS):
        for enabled in (True, False):
            refresh[enabled].append(
                _in_mode(enabled, _measure_refresh, refresh_users))
            serve[enabled].append(
                _in_mode(enabled, _measure_serve, serve_users,
                         serve_requests))
    refresh_on, refresh_off = min(refresh[True]), min(refresh[False])
    serve_on, serve_off = max(serve[True]), max(serve[False])

    rows = [
        dict(path="fcs_refresh", n_users=refresh_users,
             on_s=refresh_on, off_s=refresh_off,
             overhead=refresh_on / refresh_off - 1.0),
        dict(path="serve_single_key", n_users=serve_users,
             on_qps=serve_on, off_qps=serve_off,
             overhead=serve_off / serve_on - 1.0),
    ]
    block = ["\n== observability overhead (on vs off) =="] + [
        f"fcs_refresh ({refresh_users} users): "
        f"on {refresh_on * 1e3:7.2f} ms  off {refresh_off * 1e3:7.2f} ms  "
        f"overhead {rows[0]['overhead'] * 100:+5.1f}%",
        f"serve ({serve_users} users): "
        f"on {serve_on:9.0f} qps  off {serve_off:9.0f} qps  "
        f"overhead {rows[1]['overhead'] * 100:+5.1f}%",
        f"gate: < {GATE_MAX_OVERHEAD * 100:.0f}% on both paths"]
    for line in block:
        print(line)
    report.extend(block)
    JSON_PATH.write_text(json.dumps(
        dict(benchmark="obs_overhead",
             scale=os.environ.get("REPRO_BENCH_SCALE", "paper"),
             gate=dict(max_overhead=GATE_MAX_OVERHEAD),
             rows=rows),
        indent=2) + "\n")
    return rows


class TestObsOverhead:
    def test_refresh_overhead_gate(self, obs_rows):
        row = next(r for r in obs_rows if r["path"] == "fcs_refresh")
        assert row["overhead"] < GATE_MAX_OVERHEAD, (
            f"obs instrumentation adds {row['overhead'] * 100:.1f}% to the "
            f"FCS refresh (gate < {GATE_MAX_OVERHEAD * 100:.0f}%)")

    def test_serve_overhead_gate(self, obs_rows):
        row = next(r for r in obs_rows if r["path"] == "serve_single_key")
        assert row["overhead"] < GATE_MAX_OVERHEAD, (
            f"obs instrumentation costs {row['overhead'] * 100:.1f}% serve "
            f"throughput (gate < {GATE_MAX_OVERHEAD * 100:.0f}%)")

    def test_disabled_mode_still_counts(self):
        """Counters are API surface, not observability: they stay live
        with obs off (only histograms/spans/timers go quiet)."""
        def probe():
            fcs = _build_fcs(200)
            fcs.refresh()
            try:
                total = fcs._phase_hist["total"]
                return fcs.refreshes, total.count
            finally:
                fcs.stop()

        refreshes, observations = _in_mode(False, probe)
        assert refreshes >= 2          # constructor refresh + explicit one
        assert observations == 0       # histogram gated off

    def test_json_artifact_written(self, obs_rows):
        data = json.loads(JSON_PATH.read_text())
        assert data["benchmark"] == "obs_overhead"
        assert {r["path"] for r in data["rows"]} == {
            "fcs_refresh", "serve_single_key"}
        for row in data["rows"]:
            assert row["overhead"] < data["gate"]["max_overhead"]
