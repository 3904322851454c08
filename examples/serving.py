#!/usr/bin/env python3
"""Serving: aequusd, the query client, and socket-transport libaequus.

Boots a complete site stack (policy, seeded usage, the five services),
puts the aequusd TCP server in front of it, and exercises the serve plane
end to end: single-key reads, atomic batches, identity resolution, usage
reporting that lands at the next exchange tick, snapshot sequence numbers
advancing across an FCS refresh — and finally the unmodified RMS plugin
seams running over the socket through ``LibAequus.over_socket``, plus the
sharded mode: snapshots published into shared memory and served by forked
SO_REUSEPORT workers speaking the binary protocol.

Run:  python examples/serving.py [--workers N]
"""

import argparse
import time

from repro.client.libaequus import LibAequus
from repro.rms.job import Job
from repro.rms.plugins import AequusJobCompletionPlugin, AequusPriorityPlugin
from repro.serve.client import SyncAequusClient
from repro.serve.daemon import build_demo_site, serve_site
from repro.serve.shm import ShmSnapshotWriter
from repro.serve.workers import WorkerPool

args = argparse.ArgumentParser(description=__doc__)
args.add_argument("--workers", type=int, default=2,
                  help="worker processes for the sharded section (default 2)")
args = args.parse_args()

# ---------------------------------------------------------------------------
# 1. A site with 2000 users under a VO -> project -> user hierarchy, usage
#    seeded and refreshed, served on an ephemeral loopback port.
# ---------------------------------------------------------------------------
engine, site = build_demo_site(n_users=2000, site_name="demo", seed=7)
thread = serve_site(site)
print(f"== aequusd serving site {site.name!r} on "
      f"{thread.host}:{thread.port} ==")

client = SyncAequusClient(thread.host, thread.port)

info = client.info()["info"]
print(f"protocol v{client.info()['protocol']}, snapshot seq "
      f"{info['snapshot']['seq']} covering {info['snapshot']['users']} users")

# ---------------------------------------------------------------------------
# 2. Reads: single keys (one round trip each) and a batch (one round trip,
#    one snapshot — items can never straddle an FCS refresh).
# ---------------------------------------------------------------------------
value, known = client.lookup_fairshare("u0")
print(f"\nfairshare(u0) = {value:.6f} (known={known})")
value, known = client.lookup_fairshare("nobody-here")
print(f"fairshare(nobody-here) = {value:.6f} (known={known})  # fallback")

batch = client.batch([{"op": "GET_FAIRSHARE", "user": f"u{i}"}
                      for i in range(5)])
seqs = {item["seq"] for item in batch}
print(f"batch of 5: values {[round(b['value'], 4) for b in batch]} "
      f"all from snapshot seq {seqs}")

# ---------------------------------------------------------------------------
# 3. Writes: REPORT_USAGE enqueues into the USS ingress; the next exchange
#    tick drains it, and the refresh after that publishes a new snapshot.
# ---------------------------------------------------------------------------
seq_before = client.batch([{"op": "GET_FAIRSHARE", "user": "u0"}])[0]["seq"]
client.report_usage("u0", start=engine.now, end=engine.now + 3600.0)
engine.run_until(engine.now + site.config.fcs_refresh_interval + 1.0)
seq_after = client.batch([{"op": "GET_FAIRSHARE", "user": "u0"}])[0]["seq"]
print(f"\nreported 1h of usage for u0: snapshot seq {seq_before} -> "
      f"{seq_after}")

# ---------------------------------------------------------------------------
# 4. The RMS plugin seams, unchanged, over the socket: the same LibAequus
#    facade the in-process experiments use, with the client as transport.
# ---------------------------------------------------------------------------
site.irs.store_mapping("scheduler-uid-17", "u17")
lib = LibAequus.over_socket(client, site=site.name, engine=engine)
prio = AequusPriorityPlugin(lib)
jobcomp = AequusJobCompletionPlugin(lib)

job = Job(system_user="scheduler-uid-17", duration=600.0, submit_time=0.0)
print(f"\npriority plugin factor for u17's job: "
      f"{prio.fairshare_factor(job, engine.now):.6f}")
job.mark_started(engine.now)
job.mark_completed(engine.now + 600.0)
jobcomp.job_completed(job, engine.now)
print(f"completion plugin reported {job.charge:.0f} core-seconds; "
      f"cache stats: {lib.cache_stats()['fairshare']}")

client.close()
thread.stop()

# ---------------------------------------------------------------------------
# 5. Serving at scale: the same site, sharded.  Every snapshot epoch is
#    published into double-buffered shared memory; N forked workers accept
#    on one SO_REUSEPORT port and answer from the mapped arrays — no parent
#    heap.  Data ops travel as binary frames, admin ops (INFO) as JSON, on
#    one connection.
# ---------------------------------------------------------------------------
print(f"\n== sharded: {args.workers} workers over shared memory ==")
writer = ShmSnapshotWriter(site.name)
writer.attach_fcs(site.fcs, irs=site.irs)
with WorkerPool(writer.name, args.workers, site=site.name) as pool:
    assert pool.wait_ready(30.0)
    with SyncAequusClient(port=pool.port) as shard:
        server = shard.info()["server"]
        print(f"answered by worker {server['worker']}/{server['workers']} "
              f"(pid {server['pid']}, mode {server['mode']}, "
              f"binary v{server['binary']})")
        value, known = shard.lookup_fairshare("u0")
        print(f"fairshare(u0) = {value:.6f} (known={known}) "
              f"over binary protocol")
        batch = shard.batch_lookup_fairshare([f"u{i}" for i in range(5)])
        print(f"binary batch of 5: "
              f"{[round(v, 4) for v, _ in batch.values()]}")
    time.sleep(0.6)  # let the workers' stats heartbeat flush their rows
    totals = pool.aggregate()
    print(f"fleet totals: {totals['requests']} requests across "
          f"{totals['workers']} workers "
          f"({totals['binary_requests']} binary)")
writer.close()
site.stop()
print("\nstopped cleanly")
