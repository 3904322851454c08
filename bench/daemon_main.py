"""Subprocess entry: one ``AequusDaemon`` for the ``serve_mixed`` workload.

Builds a single site from the workload's generated inputs (policy, past
usage history, the scheduler's account table), starts the daemon with its
shm-serving workers on an ephemeral port, prints one JSON line describing
what the benchmark needs to address it, and serves until SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import numpy as np

from repro.grid.harness import parse_metrics
from repro.obs.export import render
from repro.obs.registry import MetricsRegistry
from repro.serve.daemon import AequusDaemon
from repro.services.network import Network
from repro.services.site import AequusSite, SiteConfig
from repro.sim.engine import SimulationEngine

from . import sitegen

SITE = "d0"
#: shm-serving worker processes (the smallest sharded daemon)
WORKERS = 1
#: idle users handed to the benchmark as update probes
PROBE_POOL = 512


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench.daemon_main")
    ap.add_argument("--users", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--exchange-interval", type=float, required=True)
    ap.add_argument("--refresh-interval", type=float, required=True)
    ap.add_argument("--layers-out", required=True,
                    help="write the daemon's own per-layer figures here "
                         "on exit")
    args = ap.parse_args(argv)

    rng = np.random.default_rng([args.seed, 2])
    engine = SimulationEngine(start_time=sitegen.START)
    registry = MetricsRegistry(constant_labels={"site": SITE},
                               clock=lambda: engine.now)
    policy = sitegen.grid_policy(args.users, args.seed)
    site = AequusSite(
        SITE, engine, Network(engine, registry=registry), policy=policy,
        config=SiteConfig(histogram_interval=sitegen.HISTOGRAM_INTERVAL,
                          uss_exchange_interval=args.exchange_interval,
                          ums_refresh_interval=args.refresh_interval,
                          fcs_refresh_interval=args.refresh_interval),
        registry=registry)
    users = sitegen.site_slices(policy, 1)[0]
    records, active, idle = sitegen.history_records(users, SITE, rng)
    for record in records:
        site.uss.record_job(record)
    sitegen.assert_history_in_past({SITE: site.uss.local}, engine.now)
    accounts = sitegen.scheduler_accounts(users, rng)
    for account, identity in accounts.items():
        site.irs.store_mapping(account, identity)
    probes = idle[:PROBE_POOL]
    busy = set(probes) | set(accounts.values())
    # fold the history in before serving: the first snapshot is converged
    site.ums.refresh()
    site.fcs.refresh()
    # Refresh listeners fire in registration order, and the daemon
    # registers its two publishers (snapshot store, shm writer) when it is
    # built: one listener before and one after bracket the publish.
    publish_s: list = []
    mark = [0.0]
    site.fcs.add_refresh_listener(
        lambda _f: mark.__setitem__(0, time.perf_counter()), fire_now=False)
    daemon = AequusDaemon(engine, site, port=0, workers=WORKERS)
    site.fcs.add_refresh_listener(
        lambda _f: publish_s.append(time.perf_counter() - mark[0]),
        fire_now=False)
    daemon.start()

    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    signal.signal(signal.SIGINT, lambda *_: stop.append(1))
    pids = daemon.pool.worker_pids() if daemon.pool is not None else []
    # the layer report covers serving, not boot
    at_ready = parse_metrics(render(registry))
    publish_s.clear()
    print(json.dumps({
        "port": daemon.port, "site": SITE, "worker_pids": pids,
        "accounts": accounts, "probes": probes,
        "writers": [u for u in active[:4096] if u not in busy],
        "witness": active[0]}), flush=True)
    try:
        while not stop:
            time.sleep(0.05)
    finally:
        daemon.stop()
    with open(args.layers_out, "w", encoding="utf-8") as fh:
        json.dump(_layer_report(site, at_ready, publish_s), fh)
    return 0


def _layer_report(site: AequusSite, at_ready: dict, publish_s: list) -> dict:
    """Per-layer figures since the daemon was ready, from its own registry."""
    now = parse_metrics(render(site.registry))

    def total(family: str, needle: str = "") -> float:
        return sum(v - at_ready.get(k, 0.0) for k, v in now.items()
                   if k.startswith(family + "{") and needle in k)

    def mean_ms(family: str, needle: str = "") -> float:
        count = total(family + "_count", needle)
        return 1e3 * total(family + "_sum", needle) / count if count else 0.0

    refreshes = max(1.0, total("aequus_ums_refreshes_total", 'path="all"'))
    publish_ms = 1e3 * float(np.median(publish_s)) if publish_s else 0.0
    recomputed = total("aequus_ums_users_total", 'how="recomputed"')
    return {
        "shm.publish_ms": publish_ms,
        "ums.refresh_ms": mean_ms("aequus_ums_refresh_seconds"),
        # the FCS times its listeners inside its refresh: take them out
        "fcs.refresh_ms": max(0.0, mean_ms("aequus_refresh_seconds",
                                           'phase="total"') - publish_ms),
        "uss.drain_ms": mean_ms("aequus_uss_exchange_seconds"),
        "ums.users_recomputed": recomputed / refreshes,
        "ums.recompute_ratio": recomputed / max(1.0, total(
            "aequus_uss_records_total", 'event="drained"')),
        "ums.users_shifted": total("aequus_ums_users_total",
                                   'how="shifted"') / refreshes,
        "fcs.dirty_fraction": next(
            (v for k, v in now.items()
             if k.startswith("aequus_refresh_dirty_fraction{")), 0.0),
        "fcs.cache_hits": total("aequus_cache_lookups_total",
                                'cache="fcs_refresh",outcome="hit"'),
    }


if __name__ == "__main__":
    sys.exit(main())
