"""Fleet collector gates: scrape overhead and gauge fidelity.

Two acceptance bars for the telemetry plane (DESIGN.md §14), both
measured against a real 3-daemon grid on loopback:

1. **Overhead** — a collector scraping METRICS + INFO + TRACE_EXPORT
   from every daemon at 1 s intervals must cost
   < ``REPRO_COLLECTOR_MAX_OVERHEAD`` (default 5%) of the grid's
   serve-plane throughput.  The collector runs as its own OS process
   (``aequus-repro top``, exactly the deployment shape) so the gate
   isolates what scraping does to the *daemons* — an in-process
   collector would instead measure GIL contention inside the load
   generator.  Methodology follows ``test_obs_overhead.py``: on and off
   passes interleave on the *same* booted grid across several trials,
   and each mode's capacity is its best pass — wall-clock drift
   (compactions, CI neighbors) lands on both modes alike, so the ratio
   isolates the scrape cost.

2. **Fidelity** — the ``fleet/max_staleness`` gauge the collector derives
   from INFO must agree with a direct staleness sampling pass (the
   ``test_grid_scaling.py`` / BENCH_grid methodology, polling the same
   serve plane) at the p99, within the grid analogue of the PR-5
   freshness bound: both observers watch a quantity that moves one
   protocol beat (exchange + refresh) per step and are themselves up to
   one polling interval stale.

Results land in ``benchmarks/BENCH_collector.json`` (and results.txt);
set ``REPRO_BENCH_SCALE=small`` for the smoke tier.
"""

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.grid.harness import GridHarness, GridSpec
from repro.obs.collector import FleetCollector
from repro.serve.client import AequusClient

JSON_PATH = Path(__file__).parent / "BENCH_collector.json"

SITES = 3
EXCHANGE_INTERVAL = 0.5
REFRESH_INTERVAL = 0.5
SCRAPE_INTERVAL = 1.0

#: (users, requests per timing pass, staleness window s) per scale tier;
#: each pass must span several scrape intervals so the 1 Hz scrape cost
#: amortizes into the measurement instead of hitting some passes and
#: missing others
_SCALES = {"paper": (48, 100_000, 8.0), "small": (18, 40_000, 4.0)}

GATE_MAX_OVERHEAD = float(
    os.environ.get("REPRO_COLLECTOR_MAX_OVERHEAD", 0.05))

#: staleness moves in protocol beats; each observer adds one poll period.
#: (The PR-5 bound construction — sum the hold intervals of every layer
#: between the two measurements, plus slack for CI scheduling stalls.)
AGREEMENT_BOUND = (EXCHANGE_INTERVAL + 2 * REFRESH_INTERVAL
                   + SCRAPE_INTERVAL + 1.0)

TRIALS = 3                    #: interleaved off/on passes
REPEATS = 2                   #: best-of timing passes per mode window
WORKERS = 24                  #: concurrent requesters across the fleet


def scale_tier():
    return _SCALES[os.environ.get("REPRO_BENCH_SCALE", "paper")]


def percentile(samples, q):
    samples = sorted(samples)
    return samples[min(len(samples) - 1, int(q * (len(samples) - 1)))]


async def _fleet_pass(targets, users, n_requests):
    """Best-of throughput of ``n_requests`` fairshare reads spread over
    every site's serve plane."""
    async with contextlib.AsyncExitStack() as stack:
        clients = [await stack.enter_async_context(
            AequusClient(host, port, pool_size=1, timeout=30.0))
            for host, port in targets]
        for client in clients:   # warmup: populate caches, open sockets
            await asyncio.gather(*[client.get_fairshare(u)
                                   for u in users[:8]])
        n_users, n_clients = len(users), len(clients)
        per_worker = n_requests // WORKERS

        async def worker(w):
            client = clients[w % n_clients]
            base = w * per_worker
            for i in range(per_worker):
                await client.get_fairshare(users[(base + i) % n_users])

        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            await asyncio.gather(*[worker(w) for w in range(WORKERS)])
            best = min(best, time.perf_counter() - t0)
        return (per_worker * WORKERS) / best


def _measure_qps(grid, n_requests):
    targets = [(grid.spec.host, grid.serve_ports[name])
               for name in grid.spec.site_names()]
    users = [f"u{i}" for i in range(grid.spec.users)]
    return asyncio.run(_fleet_pass(targets, users, n_requests))


def _collector_for(grid):
    return FleetCollector(
        {name: (grid.spec.host, grid.serve_ports[name])
         for name in grid.spec.site_names()},
        interval=SCRAPE_INTERVAL, virtual_epoch=grid._epoch)


@contextlib.contextmanager
def _top_process(grid):
    """``aequus-repro top`` against the grid, as its own OS process."""
    cmd = [sys.executable, "-m", "repro.cli", "top",
           "--interval", str(SCRAPE_INTERVAL),
           "--duration", "600",
           "--virtual-epoch", repr(grid._epoch)]
    for name in grid.spec.site_names():
        cmd += ["--target",
                f"{name}={grid.spec.host}:{grid.serve_ports[name]}"]
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        time.sleep(2 * SCRAPE_INTERVAL)   # let scraping reach steady state
        assert proc.poll() is None, "top exited during warmup"
        yield proc
    finally:
        proc.terminate()
        proc.wait(timeout=10.0)


@pytest.fixture(scope="module")
def collector_rows(report):
    users, n_requests, window = scale_tier()
    spec = GridSpec(sites=SITES, users=users, usage_jobs=4,
                    exchange_interval=EXCHANGE_INTERVAL,
                    refresh_interval=REFRESH_INTERVAL,
                    histogram_interval=5.0)
    with GridHarness(spec) as grid:
        grid.wait_converged(max_staleness=10 * EXCHANGE_INTERVAL,
                            timeout=60.0)

        # -- gate 1: interleaved on/off serve throughput ------------------
        qps = {True: [], False: []}
        for _ in range(TRIALS):
            qps[False].append(_measure_qps(grid, n_requests))
            with _top_process(grid):
                qps[True].append(_measure_qps(grid, n_requests))
        qps_on, qps_off = max(qps[True]), max(qps[False])

        # -- gate 2: gauge vs directly-sampled staleness ------------------
        collector = _collector_for(grid).start()
        try:
            sampled = grid.staleness_samples(window)
            # one more beat so the gauge covers the sampling window's tail
            time.sleep(2 * SCRAPE_INTERVAL)
            gauge = collector.store["fleet/max_staleness"].values
            scrapes, errors = collector.scrapes, collector.scrape_errors
        finally:
            collector.stop()

    assert sampled and gauge, "staleness windows produced no samples"
    sampled_p99 = percentile(sampled, 0.99)
    gauge_p99 = percentile(gauge, 0.99)
    rows = [
        dict(gate="overhead", sites=SITES, users=users,
             on_qps=round(qps_on, 1), off_qps=round(qps_off, 1),
             overhead=qps_off / qps_on - 1.0),
        dict(gate="staleness_agreement", sites=SITES, users=users,
             gauge_p99=round(gauge_p99, 4), sampled_p99=round(sampled_p99, 4),
             delta=round(abs(gauge_p99 - sampled_p99), 4),
             scrapes=scrapes, scrape_errors=errors,
             bound=AGREEMENT_BOUND),
    ]
    block = [f"\n== fleet collector on a {SITES}-site grid "
             f"({users} users, {SCRAPE_INTERVAL}s scrapes) =="] + [
        f"serve: on {qps_on:8.0f} qps  off {qps_off:8.0f} qps  "
        f"overhead {rows[0]['overhead'] * 100:+5.1f}% "
        f"(gate < {GATE_MAX_OVERHEAD * 100:.0f}%)",
        f"staleness p99: gauge {gauge_p99:5.2f}s  "
        f"sampled {sampled_p99:5.2f}s  "
        f"delta {rows[1]['delta']:5.2f}s (bound {AGREEMENT_BOUND:.1f}s)"]
    for line in block:
        print(line)
    report.extend(block)
    JSON_PATH.write_text(json.dumps(
        dict(benchmark="collector_overhead",
             scale=os.environ.get("REPRO_BENCH_SCALE", "paper"),
             exchange_interval=EXCHANGE_INTERVAL,
             refresh_interval=REFRESH_INTERVAL,
             scrape_interval=SCRAPE_INTERVAL,
             gate=dict(max_overhead=GATE_MAX_OVERHEAD,
                       agreement_bound=AGREEMENT_BOUND),
             rows=rows),
        indent=2) + "\n")
    return rows


class TestCollectorGates:
    def test_scrape_overhead_under_gate(self, collector_rows):
        row = next(r for r in collector_rows if r["gate"] == "overhead")
        assert row["overhead"] < GATE_MAX_OVERHEAD, (
            f"collector scraping costs {row['overhead'] * 100:.1f}% serve "
            f"throughput (gate < {GATE_MAX_OVERHEAD * 100:.0f}%)")

    def test_gauge_agrees_with_sampled_p99(self, collector_rows):
        row = next(r for r in collector_rows
                   if r["gate"] == "staleness_agreement")
        assert row["delta"] <= row["bound"], (
            f"fleet/max_staleness p99 {row['gauge_p99']:.2f}s vs sampled "
            f"p99 {row['sampled_p99']:.2f}s: delta {row['delta']:.2f}s "
            f"exceeds the freshness bound {row['bound']:.1f}s")

    def test_collector_scraped_cleanly(self, collector_rows):
        row = next(r for r in collector_rows
                   if r["gate"] == "staleness_agreement")
        assert row["scrapes"] >= 2
        assert row["scrape_errors"] == 0

    def test_json_artifact_written(self, collector_rows):
        data = json.loads(JSON_PATH.read_text())
        assert data["benchmark"] == "collector_overhead"
        assert {r["gate"] for r in data["rows"]} == {
            "overhead", "staleness_agreement"}
