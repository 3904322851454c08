"""Query throughput and tail latency of the aequusd serve plane.

Two measurement planes, one artifact:

* **Client tiers** — boots a real aequusd (site stack + snapshot store +
  TCP server thread) at 1k / 10k / 100k users and drives it with the
  asyncio client over loopback: pipelined single-key ``GET_FAIRSHARE``
  throughput, sequential latency (p50/p99/p999), and batched reads.
* **Worker matrix** — the same site served in-process (``n_workers=0``,
  the single-loop ``SiteBackend``) and by forked SO_REUSEPORT worker pools
  over the shared-memory snapshot plane (``n_workers`` 1, 2), driven by
  raw-socket pipelined drivers with pre-encoded binary frames (the
  asyncio client's per-future overhead would mask server capacity on one
  core): single-key and batched throughput, sequential latency.  A final
  row publishes a synthetic 1M-user snapshot via ``publish_arrays`` and
  probes its tail latency.

Results are printed, appended to ``benchmarks/results.txt``, and written
to ``benchmarks/BENCH_serve.json`` so CI can track serving perf per PR.
Set ``REPRO_BENCH_SCALE=small`` for a smoke pass (drops the 100k client
tier and shrinks the big-snapshot row).  Gates scale for constrained CI
runners via ``REPRO_SERVE_MIN_QPS`` (single-loop client floor, default
20000) and ``REPRO_SERVE_MIN_AGG_QPS`` (sharded aggregate floor, default
100000); the relative gates (batch gain, aggregate-vs-single-loop gain,
big-snapshot p99 budget) are scale-free.
"""

import asyncio
import json
import os
import socket
import statistics
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve.backend import SiteBackend
from repro.serve.client import AequusClient, SyncAequusClient
from repro.serve.daemon import build_demo_site, serve_site
from repro.serve.protocol import bin_batch_fairshare, bin_get_fairshare_by_id
from repro.serve.server import AequusServer, ServerThread
from repro.serve.shm import ShmSnapshotWriter
from repro.serve.workers import WorkerPool

JSON_PATH = Path(__file__).parent / "BENCH_serve.json"

#: users per scale tier; smoke mode trims the expensive top tier
_SCALES = {"paper": (1_000, 10_000, 100_000), "small": (1_000, 10_000)}

#: the tier the acceptance gates apply to
GATE_USERS = 10_000
GATE_SINGLE_QPS = float(os.environ.get("REPRO_SERVE_MIN_QPS", 20_000))
GATE_BATCH_GAIN = 5.0

#: sharded-plane gates: some worker count must push aggregate single-key
#: throughput past the floor and past AGG_GAIN x the single-loop client
#: row; the 1M-user snapshot must serve within the p99 envelope the client
#: tiers established.  The client row speaks binary, ~1.9x the JSON row
#: the gain was first set against, so 2x it is the same bar as 4x JSON.
GATE_AGG_QPS = float(os.environ.get("REPRO_SERVE_MIN_AGG_QPS", 100_000))
GATE_AGG_GAIN = 2.0
GATE_P99_BUDGET_US = float(os.environ.get("REPRO_SERVE_P99_BUDGET_US", 310.0))

SINGLE_REQUESTS = 20_000      #: pipelined single-key requests per tier
WORKERS = 128                 #: concurrent requesters (pipelining depth)
BATCH_SIZE = 512              #: keys per BATCH request
BATCH_COUNT = 40              #: batches per measurement pass
LATENCY_SAMPLES = 2_000       #: sequential requests for the tail probe
DISTINCT_USERS = 512          #: distinct keys cycled through per tier
REPEATS = 3                   #: best-of passes (OS scheduling jitter between
                              #: the client and server threads is large)

MATRIX_WORKER_COUNTS = (0, 1, 2)   #: 0 = in-process single loop
MATRIX_REQUESTS = 40_000           #: pipelined requests per matrix cell
MATRIX_REPEATS = 2
BIG_SNAPSHOT_USERS = {"paper": 1_000_000, "small": 150_000}

_LEN = struct.Struct(">I")


def scale_tiers():
    return _SCALES[os.environ.get("REPRO_BENCH_SCALE", "paper")]


def bench_scale_name():
    return os.environ.get("REPRO_BENCH_SCALE", "paper")


def query_users(n_users):
    step = max(1, n_users // DISTINCT_USERS)
    return [f"u{i}" for i in range(0, n_users, step)]


async def _measure(host, port, users):
    async with AequusClient(host, port, pool_size=1, timeout=30.0) as client:
        # warm up: connection, snapshot, leaf-id cache
        await asyncio.gather(*[client.get_fairshare(u) for u in users[:64]])

        # pipelined single-key throughput: a fixed pool of workers issuing
        # sequential requests models many schedulers querying concurrently
        # (and avoids timing 20k Task creations instead of the server)
        n = len(users)
        per_worker = SINGLE_REQUESTS // WORKERS

        async def worker(w):
            base = w * per_worker
            for i in range(per_worker):
                await client.get_fairshare(users[(base + i) % n])

        single_qps = 0.0
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            await asyncio.gather(*[worker(w) for w in range(WORKERS)])
            single_s = time.perf_counter() - t0
            single_qps = max(single_qps, (per_worker * WORKERS) / single_s)

        # sequential request latency (no pipelining: full round trips)
        lat = []
        for i in range(LATENCY_SAMPLES):
            t0 = time.perf_counter()
            await client.get_fairshare(users[i % n])
            lat.append(time.perf_counter() - t0)
        p50, p99, p999 = _percentiles_us(lat)

        # batched reads: same keys, BATCH_SIZE per round trip.  Per-batch
        # timing with a min estimator: on a shared core, whole-pass timing
        # is dominated by scheduler preemptions, while the fastest single
        # round trip tracks the server's intrinsic batch capacity
        best_batch_s = float("inf")
        for r in range(REPEATS):
            for b in range(BATCH_COUNT):
                keys = [users[(b * BATCH_SIZE + i) % n]
                        for i in range(BATCH_SIZE)]
                t0 = time.perf_counter()
                await client.batch_lookup_fairshare(keys)
                best_batch_s = min(best_batch_s, time.perf_counter() - t0)
        batch_kps = BATCH_SIZE / best_batch_s

        return dict(single_qps=single_qps,
                    latency_p50_us=p50,
                    latency_p99_us=p99,
                    latency_p999_us=p999,
                    batch_keys_per_s=batch_kps,
                    batch_gain=batch_kps / single_qps)


def _percentiles_us(samples):
    samples = sorted(samples)
    k = len(samples)

    def at(q):
        return samples[min(k - 1, int(k * q))] * 1e6

    return statistics.median(samples) * 1e6, at(0.99), at(0.999)


# -- raw-socket drivers ------------------------------------------------------
#
# Pre-encoded frame blobs, one sender thread + one receiver loop per
# connection, replies counted by scanning frame boundaries.  This times
# the server, not a client implementation.

def _scan_binary(buf, limit):
    pos = count = 0
    while limit - pos >= 12:
        body = _LEN.unpack_from(buf, pos + 8)[0]
        if limit - pos < 12 + body:
            break
        pos += 12 + body
        count += 1
    return pos, count


def _connect(port):
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _drive_one(port, blob, expect, scan, counts):
    sock = _connect(port)
    sender = threading.Thread(target=lambda: sock.sendall(blob))
    sender.start()
    got, buf = 0, b""
    try:
        while got < expect:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            buf += chunk
            used, n = scan(buf, len(buf))
            buf = buf[used:]
            got += n
    finally:
        sender.join()
        sock.close()
    counts.append(got)


def _pipelined_qps(port, blobs):
    """Aggregate replies/s across one pipelined connection per blob."""
    best = 0.0
    for _ in range(MATRIX_REPEATS):
        counts = []
        threads = [threading.Thread(target=_drive_one,
                                    args=(port, blob, expect, _scan_binary,
                                          counts))
                   for blob, expect in blobs]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        best = max(best, sum(counts) / elapsed)
    return best


def _sequential_latencies(port, frames):
    """One request at a time: full round trips, no pipelining."""
    sock = _connect(port)
    head = 12
    lat = []
    try:
        for frame in frames:
            t0 = time.perf_counter()
            sock.sendall(frame)
            buf = b""
            need = head
            while len(buf) < need:
                buf += sock.recv(4096)
                if len(buf) >= head:
                    need = head + _LEN.unpack_from(buf, 8)[0]
            lat.append(time.perf_counter() - t0)
    finally:
        sock.close()
    return lat


def _resolve_leaf_ids(port, users):
    """Warm a real client against the server to harvest (gen, leaf_id)s."""
    with SyncAequusClient(port=port, timeout=30.0) as client:
        for user in users:
            client.lookup_fairshare(user)
        cached = dict(client.leaf_ids)
    return [cached[u] for u in users if u in cached]


def _measure_matrix_cell(port, users):
    # steady-state wire traffic: by-id frames, like a warmed client
    ids = _resolve_leaf_ids(port, users)
    frames = [bin_get_fairshare_by_id(i + 1, *ids[i % len(ids)])
              for i in range(MATRIX_REQUESTS)]
    qps = _pipelined_qps(port, [(b"".join(frames), MATRIX_REQUESTS)])
    p50, p99, p999 = _percentiles_us(
        _sequential_latencies(port, frames[:LATENCY_SAMPLES]))
    # batched: BATCH_SIZE ids per frame, as many keys as the single run
    n_batches = MATRIX_REQUESTS // BATCH_SIZE
    batches = [bin_batch_fairshare(b + 1, ids[0][0],
                                   [ids[(b * BATCH_SIZE + i) % len(ids)][1]
                                    for i in range(BATCH_SIZE)])
               for b in range(n_batches)]
    batch_qps = _pipelined_qps(port, [(b"".join(batches), n_batches)])
    return dict(single_qps=qps, batch_keys_per_s=batch_qps * BATCH_SIZE,
                latency_p50_us=p50, latency_p99_us=p99, latency_p999_us=p999)


def _measure_worker_count(site, n_workers, users):
    if n_workers == 0:
        thread = ServerThread(AequusServer(SiteBackend.for_site(site))).start()
        try:
            cell = _measure_matrix_cell(thread.port, users)
        finally:
            thread.stop()
    else:
        writer = ShmSnapshotWriter(site.name, token=f"bw{n_workers}")
        writer.attach_fcs(site.fcs, irs=site.irs)
        try:
            with WorkerPool(writer.name, n_workers, site=site.name) as pool:
                assert pool.wait_ready(30.0)
                cell = _measure_matrix_cell(pool.port, users)
        finally:
            writer.close()
    cell.update(n_workers=n_workers, protocol="binary")
    return cell


def _measure_big_snapshot():
    """Publish a synthetic big snapshot straight into shm and probe it."""
    n_users = BIG_SNAPSHOT_USERS[bench_scale_name()]
    writer = ShmSnapshotWriter("bigbench", token="bigb")
    rng = np.random.default_rng(0)
    try:
        writer.publish_arrays(
            seq=1, leaf_gen=1, computed_at=0.0, unknown_user_value=0.5,
            resolution=9999, values=rng.random(n_users),
            keys={f"user{i:07d}": i for i in range(n_users)})
        step = n_users // DISTINCT_USERS
        users = [f"user{i * step:07d}" for i in range(DISTINCT_USERS)]
        with WorkerPool(writer.name, 1, site="bigbench") as pool:
            assert pool.wait_ready(30.0)
            row = _measure_matrix_cell(pool.port, users)
    finally:
        writer.close()
    row.update(n_users=n_users, n_workers=1, protocol="binary")
    return row


@pytest.fixture(scope="module")
def serve_bench(report):
    # client tiers: the asyncio client against one in-process server
    rows = []
    for n_users in scale_tiers():
        _, site = build_demo_site(n_users, seed=0)
        thread = serve_site(site)
        try:
            row = asyncio.run(_measure(thread.host, thread.port,
                                       query_users(n_users)))
        finally:
            thread.stop()
            site.stop()
        row.update(n_users=n_users, n_workers=0, protocol="binary",
                   driver="client")
        rows.append(row)

    # worker matrix at the gate tier, raw drivers
    _, site = build_demo_site(GATE_USERS, seed=0)
    users = query_users(GATE_USERS)
    try:
        matrix = [_measure_worker_count(site, n_workers, users)
                  for n_workers in MATRIX_WORKER_COUNTS]
    finally:
        site.stop()
    for cell in matrix:
        cell.update(n_users=GATE_USERS, driver="raw")

    big = _measure_big_snapshot()
    big["driver"] = "raw"

    block = ["\n== serve scaling (aequusd over loopback TCP) =="] + [
        f"{r['n_users']:>7} users: single {r['single_qps']:9.0f} qps  "
        f"p50 {r['latency_p50_us']:6.0f} us  p99 {r['latency_p99_us']:6.0f} us  "
        f"batch {r['batch_keys_per_s']:9.0f} keys/s  "
        f"gain {r['batch_gain']:5.1f}x"
        for r in rows]
    block.append("-- worker matrix "
                 f"({GATE_USERS} users, raw pipelined binary) --")
    for r in matrix + [big]:
        block.append(
            f"workers={r['n_workers']} "
            f"({r['n_users']:>7} users): {r['single_qps']:9.0f} qps  "
            f"batch {r['batch_keys_per_s']:9.0f} keys/s  "
            f"p50 {r['latency_p50_us']:5.0f} us  "
            f"p99 {r['latency_p99_us']:5.0f} us  "
            f"p999 {r['latency_p999_us']:6.0f} us")
    for line in block:
        print(line)
    report.extend(block)

    JSON_PATH.write_text(json.dumps(
        dict(benchmark="serve_scaling",
             scale=bench_scale_name(),
             gate=dict(users=GATE_USERS, min_single_qps=GATE_SINGLE_QPS,
                       min_batch_gain=GATE_BATCH_GAIN,
                       min_aggregate_qps=GATE_AGG_QPS,
                       min_aggregate_gain=GATE_AGG_GAIN,
                       p99_budget_us=GATE_P99_BUDGET_US),
             rows=rows, matrix=matrix, big_snapshot=big),
        indent=2) + "\n")
    return dict(rows=rows, matrix=matrix, big=big)


@pytest.fixture(scope="module")
def serve_rows(serve_bench):
    return serve_bench["rows"]


@pytest.fixture(scope="module")
def matrix_rows(serve_bench):
    return serve_bench["matrix"]


class TestServeScaling:
    def test_single_key_qps_gate_at_10k_users(self, serve_rows):
        gate = next(r for r in serve_rows if r["n_users"] == GATE_USERS)
        assert gate["single_qps"] >= GATE_SINGLE_QPS, (
            f"sustained only {gate['single_qps']:.0f} single-key qps at "
            f"{GATE_USERS} users (need >= {GATE_SINGLE_QPS:.0f})")

    def test_batch_gain_gate_at_10k_users(self, serve_rows):
        gate = next(r for r in serve_rows if r["n_users"] == GATE_USERS)
        assert gate["batch_gain"] >= GATE_BATCH_GAIN, (
            f"batched reads only {gate['batch_gain']:.1f}x single-key "
            f"throughput at {GATE_USERS} users (need >= {GATE_BATCH_GAIN}x)")

    def test_throughput_does_not_collapse_with_scale(self, serve_rows):
        # serving reads from the snapshot is O(1) in site size: the top
        # tier must stay within 4x of the smallest tier's throughput
        assert serve_rows[-1]["single_qps"] >= serve_rows[0]["single_qps"] / 4

    def test_json_artifact_written(self, serve_bench):
        data = json.loads(JSON_PATH.read_text())
        assert data["benchmark"] == "serve_scaling"
        assert len(data["rows"]) == len(scale_tiers())
        for row in (data["rows"] + data["matrix"]
                    + [data["big_snapshot"]]):
            assert row["latency_p99_us"] >= row["latency_p50_us"]
            assert row["latency_p999_us"] >= row["latency_p99_us"]
            assert {"n_workers", "protocol", "driver"} <= set(row)


class TestShardedServeGates:
    def test_aggregate_qps_gate(self, serve_rows, matrix_rows):
        """Some sharded worker count must clear the aggregate floor and
        beat the single-loop client row by the required multiple."""
        single_loop = next(r for r in serve_rows
                           if r["n_users"] == GATE_USERS)["single_qps"]
        sharded = [r for r in matrix_rows if r["n_workers"] >= 1]
        best = max(r["single_qps"] for r in sharded)
        assert best >= GATE_AGG_QPS, (
            f"best sharded aggregate {best:.0f} qps "
            f"(need >= {GATE_AGG_QPS:.0f})")
        assert best >= GATE_AGG_GAIN * single_loop, (
            f"best sharded aggregate {best:.0f} qps is only "
            f"{best / single_loop:.1f}x the single-loop row "
            f"({single_loop:.0f} qps; need >= {GATE_AGG_GAIN}x)")

    def test_big_snapshot_serves_within_p99_budget(self, serve_bench):
        big = serve_bench["big"]
        assert big["latency_p99_us"] <= GATE_P99_BUDGET_US, (
            f"{big['n_users']}-user snapshot p99 "
            f"{big['latency_p99_us']:.0f} us exceeds the "
            f"{GATE_P99_BUDGET_US:.0f} us budget")
