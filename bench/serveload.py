"""The RMS-facing load, shared by every workload: queue passes through
``libaequus``, sequential GETs, and a closed-loop pipelined window.

All three talk to one serve port and know nothing about what is behind it
(an in-process server thread answering from shm, a grid node, a sharded
daemon).  Each is a closed loop with one client: a scheduler waits for a
priority before asking for the next.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.client.libaequus import LibAequus
from repro.serve.client import SyncAequusClient
from repro.serve.protocol import (BIN_FS_REPLY, BIN_HEADER, BIN_REP_MAGIC,
                                  BST_OK, bin_get_fairshare_by_id,
                                  bin_get_fairshare_by_name)

__all__ = ["pending_queue", "PassthroughIdentity", "queue_pass",
           "check_get_batch_agree", "sequential_gets", "raw_leaf_ids",
           "raw_sequential_us", "pipelined_window", "PASS_JOBS",
           "PIPELINE_DEPTH"]

#: pending jobs one RMS queue pass reprioritises
PASS_JOBS = 5000
#: frames the closed-loop window keeps in flight
PIPELINE_DEPTH = 64


def pending_queue(accounts: Sequence[str],
                  rng: np.random.Generator) -> List[str]:
    """Owners of ``PASS_JOBS`` pending jobs: every account at least once,
    the rest drawn heavy-tailed (few heavy users own most of a real queue)."""
    owners = list(accounts)
    extra = PASS_JOBS - len(owners)
    if extra > 0:
        weights = 1.0 / np.arange(1, len(accounts) + 1)
        weights /= weights.sum()
        picks = rng.choice(len(accounts), size=extra, p=weights)
        owners.extend(accounts[int(k)] for k in picks)
    order = rng.permutation(len(owners))
    return [owners[int(k)] for k in order[:PASS_JOBS]]


class PassthroughIdentity:
    """libaequus transport for a site with no IRS table (a ``grid-node``
    daemon has none): the scheduler's accounts *are* grid identities, so
    identity resolution is local and only fairshare lookups cross the wire."""

    def __init__(self, client: SyncAequusClient):
        self._client = client

    def lookup_fairshare(self, user: str) -> Tuple[float, bool]:
        return self._client.lookup_fairshare(user)

    def resolve_identity(self, system_user: str) -> str:
        return system_user

    def report_usage(self, user: str, start: float, end: float,
                     cores: int = 1) -> bool:
        return self._client.report_usage(user, start, end, cores)


def queue_pass(transport, owners: Sequence[str]
               ) -> Tuple[float, Dict[str, float], LibAequus]:
    """One reprioritisation pass with a cold libaequus cache.

    Returns (elapsed ms, owner -> served value, the library instance whose
    cache statistics describe the pass).
    """
    lib = LibAequus.over_socket(transport)
    served: Dict[str, float] = {}
    t0 = time.perf_counter()
    for owner in owners:
        served[owner] = lib.get_fairshare(owner)
    elapsed = (time.perf_counter() - t0) * 1e3
    return elapsed, served, lib


def check_get_batch_agree(client: SyncAequusClient,
                          identities: Sequence[str]) -> Tuple[int, int]:
    """GET and BATCH must serve the same value at the same snapshot seq.

    Returns (pairs compared, mismatches); pairs whose two replies came
    from different snapshots are not compared.
    """
    singles = [client.lookup_fairshare_detail(u) for u in identities]
    batch = client.batch([{"op": "GET_FAIRSHARE", "user": u}
                          for u in identities])
    compared = wrong = 0
    for one, many in zip(singles, batch):
        if not many.get("ok") or one.get("seq") != many.get("seq"):
            continue
        compared += 1
        if abs(float(one["value"]) - float(many["value"])) > 1e-12:
            wrong += 1
    return compared, wrong


def sequential_gets(client: SyncAequusClient, identities: Sequence[str],
                    seconds: float) -> Tuple[List[float], int]:
    """Round-trip times (µs) of back-to-back ``get_fairshare`` calls for
    ``seconds``; second value counts calls that raised."""
    samples: List[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    n = len(identities)
    while True:
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        try:
            client.get_fairshare(identities[i % n])
        except (ConnectionError, OSError, TimeoutError):
            failed += 1
        samples.append((time.perf_counter() - t0) * 1e6)
        i += 1
    return samples, failed


# -- raw socket ---------------------------------------------------------------

def _connect(port: int, host: str = "127.0.0.1") -> socket.socket:
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_reply(sock: socket.socket, buf: bytearray) -> Tuple[int, bytes]:
    """One binary reply off ``sock``: (status, body)."""
    head = BIN_HEADER.size
    while len(buf) < head:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    magic, status, _flags, _rid, body_len = BIN_HEADER.unpack_from(buf, 0)
    if magic != BIN_REP_MAGIC:
        raise ConnectionError(f"bad reply magic 0x{magic:02x}")
    while len(buf) < head + body_len:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    body = bytes(buf[head:head + body_len])
    del buf[:head + body_len]
    return status, body


def raw_leaf_ids(port: int, identities: Sequence[str]
                 ) -> List[Tuple[int, int]]:
    """Resolve identities to (generation, leaf id), as a warmed client
    holds them; unknown identities are left out."""
    ids: List[Tuple[int, int]] = []
    buf = bytearray()
    with _connect(port) as sock:
        for rid, user in enumerate(identities, 1):
            sock.sendall(bin_get_fairshare_by_name(rid, user))
            status, body = _read_reply(sock, buf)
            if status != BST_OK:
                continue
            _value, known, _seq, gen, leaf = BIN_FS_REPLY.unpack(body)
            if known:
                ids.append((gen, leaf))
    return ids


def raw_sequential_us(port: int, ids: Sequence[Tuple[int, int]],
                      count: int) -> List[float]:
    """Round-trip times (µs) of by-id GETs over a bare socket: what the
    wire and the server cost without any client library."""
    samples: List[float] = []
    buf = bytearray()
    with _connect(port) as sock:
        for i in range(count):
            frame = bin_get_fairshare_by_id(i + 1, *ids[i % len(ids)])
            t0 = time.perf_counter()
            sock.sendall(frame)
            _read_reply(sock, buf)
            samples.append((time.perf_counter() - t0) * 1e6)
    return samples


def pipelined_window(port: int, ids: Sequence[Tuple[int, int]],
                     seconds: float) -> Tuple[float, int, int]:
    """Closed loop on one raw connection: ``PIPELINE_DEPTH`` pre-encoded
    by-id frames in flight, a new one sent for every reply read, for
    ``seconds``.

    Returns (replies per second, replies, replies with a non-OK status).
    """
    frames = [bin_get_fairshare_by_id(i + 1, *ids[i % len(ids)])
              for i in range(PIPELINE_DEPTH * 8)]
    size = len(frames[0])
    ring = b"".join(frames)
    ring_frames = len(frames)
    head = BIN_HEADER.size
    cursor = 0

    def take(n: int) -> bytes:
        nonlocal cursor
        out = b""
        while n:
            run = min(n, ring_frames - cursor)
            out += ring[cursor * size:(cursor + run) * size]
            cursor = (cursor + run) % ring_frames
            n -= run
        return out

    replies = bad = 0
    buf = bytearray()
    with _connect(port) as sock:
        sock.sendall(take(PIPELINE_DEPTH))
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
            pos = got = 0
            limit = len(buf)
            while limit - pos >= head:
                _m, status, _f, _r, body_len = BIN_HEADER.unpack_from(buf, pos)
                if limit - pos < head + body_len:
                    break
                if status != BST_OK:
                    bad += 1
                pos += head + body_len
                got += 1
            del buf[:pos]
            replies += got
            now = time.perf_counter()
            if now >= deadline:
                break
            if got:
                sock.sendall(take(got))
        elapsed = now - t0
    return replies / elapsed, replies, bad
