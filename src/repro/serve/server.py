"""aequusd — the asyncio TCP server for the Aequus serve plane.

Concurrency model
-----------------
One event loop serves every connection.  Per connection a single buffered
loop reads socket chunks, parses every complete frame in the buffer —
JSON (length-prefixed) and binary (0xA3 magic) frames interleave freely,
discriminated on the first byte — executes each request inline (backend
reads are sub-microsecond snapshot lookups), and appends replies to an
output buffer that is flushed with one ``write`` + ``drain`` per burst.

Backpressure: the loop awaits ``drain()`` after every ``max_inflight``
executed requests and whenever the output buffer passes
``write_buffer_limit``.  When a client stops reading, ``drain()`` blocks,
the loop stops consuming bytes, and TCP backpressure bounds the client's
send side too — server memory per connection stays capped at roughly the
output buffer plus the socket buffers, no matter how fast the client
writes.

Two planes, one op each
-----------------------
Every data op — GET_FAIRSHARE, GET_VECTOR, BATCH, REPORT_USAGE,
LOOKUP_ACCOUNT — is binary.  JSON carries the admin ops (HELLO, INFO,
METRICS, TRACE_EXPORT, PING) and one read: the freshness-annotated
GET_FAIRSHARE behind ``lookup_fairshare_detail``.  Nothing is memoised:
a read is two array lookups in the snapshot it names, and an identity is
resolved through the IRS on every request (the IRS is not versioned by
the snapshot, so a mapping stored between two publishes is answered at
once).

Batches resolve the current snapshot ONCE and serve every item from it,
so a batch can never straddle an FCS refresh (no torn batches).
"""

from __future__ import annotations

import asyncio
import os
import socket
import struct
import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..obs import trace
from ..obs.export import render_many
from ..obs.registry import MetricsRegistry, StatsView
from .backend import SiteBackend
from .protocol import (BF_BY_ID, BIN_ACCEPTED, BIN_BATCH_HEAD,
                       BIN_BATCH_REPLY_HEAD, BIN_BY_ID, BIN_FS_FULL,
                       BIN_HEADER, BIN_PROTOCOL_VERSION, BIN_REP_MAGIC,
                       BIN_REPORT, BIN_REQ_MAGIC, BIN_VEC_HEAD,
                       BIN_FS_REPLY, BOP_BATCH_FAIRSHARE, BOP_GET_FAIRSHARE,
                       BOP_GET_VECTOR, BOP_LOOKUP_ACCOUNT, BOP_PING,
                       BOP_REPORT_USAGE, BST_BAD_BATCH, BST_EPOCH_CHANGED,
                       BST_INTERNAL, BST_MALFORMED, BST_NOT_A_LEAF, BST_OK,
                       BST_OVERSIZED, BST_UNKNOWN_USER,
                       BST_UNSUPPORTED_OP, ERR_BAD_VERSION,
                       ERR_INTERNAL, ERR_MALFORMED, ERR_NOT_A_LEAF,
                       ERR_OVERSIZED, ERR_UNSUPPORTED_OP,
                       HEADER, MAX_FRAME_BYTES, NO_LEAF_ID, OPS,
                       PROTOCOL_VERSION, MalformedFrame, bin_error,
                       decode_payload, encode_frame, error_reply)

__all__ = ["AequusServer", "ServerThread"]

#: binary opcode -> the op label used for latency histograms and errors
_BIN_OP_NAMES = {
    BOP_GET_FAIRSHARE: "GET_FAIRSHARE",
    BOP_GET_VECTOR: "GET_VECTOR",
    BOP_REPORT_USAGE: "REPORT_USAGE",
    BOP_BATCH_FAIRSHARE: "BATCH",
    BOP_PING: "PING",
    BOP_LOOKUP_ACCOUNT: "LOOKUP_ACCOUNT",
}

_READ_CHUNK = 256 * 1024


class AequusServer:
    """TCP front end for a backend: binary (v2) data ops, JSON (v1) admin."""

    def __init__(self, backend: SiteBackend,
                 host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = MAX_FRAME_BYTES,
                 max_inflight: int = 128,
                 max_batch: int = 4096,
                 write_buffer_limit: int = 256 * 1024,
                 registry: Optional[MetricsRegistry] = None,
                 identity: Optional[Dict[str, Any]] = None,
                 stats_aggregator: Optional[Callable[[], Dict[str, int]]]
                 = None,
                 extra_metrics: Optional[Callable[[], str]] = None,
                 trace_export: Optional[Callable[[], Dict[str, Any]]] = None,
                 sock: Optional[socket.socket] = None):
        self.backend = backend
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.max_inflight = max_inflight
        self.max_batch = max_batch
        self.write_buffer_limit = write_buffer_limit
        #: worker identity advertised in HELLO and INFO (pid is implied)
        self.identity = dict(identity or {})
        #: cross-worker stats for INFO (a sharded worker aggregates its
        #: siblings' shared-memory rows here); None means local stats
        self.stats_aggregator = stats_aggregator
        #: extra Prometheus exposition text appended to METRICS scrapes
        #: (per-worker aggregation lines in sharded mode)
        self.extra_metrics = extra_metrics
        #: TRACE_EXPORT hook: returns the reply body (events + clock
        #: metadata).  The daemon installs one carrying its virtual-epoch
        #: alignment; workers install a spool drain so any worker can
        #: answer for the parent exactly once.  ``None`` drains the
        #: process-default tracer.
        self.trace_export = trace_export
        self._sock = sock
        self._server: Optional[asyncio.AbstractServer] = None
        #: server-side registry (wall-clock); pass the site's shared one to
        #: fold request metrics into the same METRICS scrape
        self.registry = registry if registry is not None else MetricsRegistry(
            constant_labels={"site": backend.site, "component": "server"})
        bad_frames = self.registry.counter(
            "aequus_bad_frames_total",
            "Frames rejected before execution, by failure kind", ("kind",))
        self._metrics = {
            "connections": self.registry.counter(
                "aequus_connections_total",
                "Connections accepted over the server's lifetime").labels(),
            "connections_active": self.registry.gauge(
                "aequus_connections_active",
                "Connections currently open").labels(),
            "requests": self.registry.counter(
                "aequus_requests_total",
                "Requests executed (any op, batches count once)").labels(),
            "binary_requests": self.registry.counter(
                "aequus_binary_requests_total",
                "Requests that arrived as binary (v2) frames").labels(),
            "batches": self.registry.counter(
                "aequus_batches_total", "BATCH requests executed").labels(),
            "batch_items": self.registry.counter(
                "aequus_batch_items_total",
                "Sub-requests carried inside batches").labels(),
            "errors": self.registry.counter(
                "aequus_errors_total",
                "Requests answered with an error reply").labels(),
            "oversized_frames": bad_frames.labels(kind="oversized"),
            "malformed_frames": bad_frames.labels(kind="malformed"),
        }
        self.stats = StatsView(self._metrics)
        latency = self.registry.histogram(
            "aequus_request_seconds",
            "Server-side request execution time by op (METRICS itself is "
            "excluded so a scrape never perturbs what it reports)", ("op",))
        self._op_latency = {op: latency.labels(op=op)
                            for op in OPS | set(_BIN_OP_NAMES.values())}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._serve_connection, sock=self._sock)
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close(self) -> None:
        """Stop accepting connections (sync; used during loop teardown)."""
        if self._server is not None:
            self._server.close()
            self._server = None

    # -- the per-connection loop ----------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._metrics["connections"].inc()
        self._metrics["connections_active"].inc()
        try:
            await self._connection_loop(reader, writer)
        finally:
            # the one decrement, on the outermost exit: no disconnect path
            # (read error, drain death, cancellation mid-teardown) can leak
            # the gauge or drive it negative
            self._metrics["connections_active"].dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        writer.transport.set_write_buffer_limits(high=self.write_buffer_limit)
        buf = bytearray()
        out = bytearray()
        max_frame = self.max_frame
        unpack_bin = BIN_HEADER.unpack_from
        unpack_len = HEADER.unpack_from
        since_flush = 0
        closing = False
        while not closing:
            try:
                chunk = await reader.read(_READ_CHUNK)
            except (ConnectionResetError, OSError):
                return
            if not chunk:
                return
            buf += chunk
            pos = 0
            end = len(buf)
            while pos < end:
                first = buf[pos]
                if first == BIN_REQ_MAGIC:
                    if end - pos < BIN_HEADER.size:
                        break
                    _, opcode, flags, rid, body_len = unpack_bin(buf, pos)
                    if body_len > max_frame:
                        self.stats["oversized_frames"] += 1
                        self.stats["errors"] += 1
                        out += bin_error(BST_OVERSIZED, rid,
                                         f"body of {body_len} bytes exceeds "
                                         f"cap {max_frame}")
                        closing = True
                        break
                    if end - pos < BIN_HEADER.size + body_len:
                        break
                    body_at = pos + BIN_HEADER.size
                    body = bytes(buf[body_at:body_at + body_len])
                    pos = body_at + body_len
                    self._execute_bin(opcode, flags, rid, body, out)
                else:
                    if end - pos < HEADER.size:
                        break
                    (length,) = unpack_len(buf, pos)
                    if length > max_frame:
                        # the stream is no longer aligned to frame
                        # boundaries: reply and close (the payload bytes,
                        # if they ever come, are never buffered)
                        self.stats["oversized_frames"] += 1
                        self.stats["errors"] += 1
                        out += encode_frame(error_reply(
                            None, ERR_OVERSIZED,
                            f"frame of {length} bytes exceeds cap "
                            f"{max_frame}"))
                        closing = True
                        break
                    if end - pos < HEADER.size + length:
                        break
                    body_at = pos + HEADER.size
                    body = bytes(buf[body_at:body_at + length])
                    pos = body_at + length
                    try:
                        request = decode_payload(body)
                    except MalformedFrame as exc:
                        # framing was intact (declared length matched),
                        # only the payload was garbage — the connection
                        # stays usable
                        self.stats["malformed_frames"] += 1
                        self.stats["errors"] += 1
                        out += encode_frame(error_reply(
                            None, ERR_MALFORMED, str(exc)))
                    else:
                        out += encode_frame(self._execute(request))
                since_flush += 1
                if since_flush >= self.max_inflight \
                        or len(out) >= self.write_buffer_limit:
                    since_flush = 0
                    if out:
                        writer.write(bytes(out))
                        out.clear()
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        return
            del buf[:pos]
            if out:
                writer.write(bytes(out))
                out.clear()
                since_flush = 0
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    return

    # -- binary (v2) execution -------------------------------------------------

    def _execute_bin(self, opcode: int, flags: int, rid: int, body: bytes,
                     out: bytearray) -> None:
        self._metrics["requests"].inc()
        self._metrics["binary_requests"].inc()
        timed = self.registry.enabled
        t0 = time.perf_counter() if timed else 0.0
        try:
            if opcode == BOP_GET_FAIRSHARE:
                self._bin_get_fairshare(flags, rid, body, out)
            elif opcode == BOP_GET_VECTOR:
                self._bin_get_vector(flags, rid, body, out)
            elif opcode == BOP_BATCH_FAIRSHARE:
                self._bin_batch(flags, rid, body, out)
            elif opcode == BOP_REPORT_USAGE:
                self._bin_report_usage(rid, body, out)
            elif opcode == BOP_LOOKUP_ACCOUNT:
                self._bin_lookup_account(rid, body, out)
            elif opcode == BOP_PING:
                out += BIN_HEADER.pack(BIN_REP_MAGIC, BST_OK, 0, rid,
                                       len(body)) + body
            else:
                self.stats["errors"] += 1
                out += bin_error(BST_UNSUPPORTED_OP, rid,
                                 f"unknown opcode {opcode}")
        except Exception as exc:  # defensive: a bug must not kill the loop
            self.stats["errors"] += 1
            out += bin_error(BST_INTERNAL, rid,
                             f"{type(exc).__name__}: {exc}")
        if timed:
            # inline observe, same fast path as the JSON side
            hist = self._op_latency[_BIN_OP_NAMES.get(opcode, "PING")]
            elapsed = time.perf_counter() - t0
            hist.counts[bisect_left(hist.buckets, elapsed)] += 1
            hist.sum += elapsed
            hist.count += 1

    def _stable_snapshot(self):
        """(snapshot, stamp) with the seqlock sampled for shm views."""
        snap = self.backend.snapshot()
        if snap is None:
            return None, 0
        stamp = snap.stamp()
        if stamp is None:  # republish in flight: refetch
            for _ in range(64):
                snap = self.backend.snapshot()
                stamp = snap.stamp() if snap is not None else 0
                if stamp is not None:
                    break
        return snap, stamp

    def _bin_get_fairshare(self, flags: int, rid: int, body: bytes,
                           out: bytearray) -> None:
        for _ in range(64):
            snap, stamp = self._stable_snapshot()
            if snap is None:
                self.stats["errors"] += 1
                out += bin_error(BST_UNKNOWN_USER, rid, "no snapshot yet")
                return
            gen = snap.leaf_gen
            if flags & BF_BY_ID:
                if len(body) != BIN_BY_ID.size:
                    self.stats["errors"] += 1
                    out += bin_error(BST_MALFORMED, rid,
                                     "BY_ID body must be gen u32 + id u32")
                    return
                req_gen, leaf_id = BIN_BY_ID.unpack(body)
                if req_gen != gen:
                    self.stats["errors"] += 1
                    out += bin_error(BST_EPOCH_CHANGED, rid,
                                     f"leaf table is generation {gen}, "
                                     f"id was minted under {req_gen}")
                    return
                value = snap.lookup_id(leaf_id)
                if value is None:
                    self.stats["errors"] += 1
                    out += bin_error(BST_UNKNOWN_USER, rid,
                                     f"leaf id {leaf_id} out of range")
                    return
                known = 1
            else:
                try:
                    user = body.decode("utf-8")
                except UnicodeDecodeError:
                    self.stats["errors"] += 1
                    out += bin_error(BST_MALFORMED, rid,
                                     "identity is not valid UTF-8")
                    return
                value, is_known, leaf_id = snap.resolve_leaf(user)
                known = 1 if is_known else 0
            if snap.still(stamp):
                out += BIN_FS_FULL.pack(
                    BIN_REP_MAGIC, BST_OK, 0, rid, 24,
                    value, known, snap.seq & 0xFFFFFFFF, gen, leaf_id)
                return
        raise RuntimeError("snapshot would not stabilize")

    def _bin_get_vector(self, flags: int, rid: int, body: bytes,
                        out: bytearray) -> None:
        for _ in range(64):
            snap, stamp = self._stable_snapshot()
            if snap is None:
                self.stats["errors"] += 1
                out += bin_error(BST_UNKNOWN_USER, rid, "no snapshot yet")
                return
            if flags & BF_BY_ID:
                if len(body) != BIN_BY_ID.size:
                    self.stats["errors"] += 1
                    out += bin_error(BST_MALFORMED, rid,
                                     "BY_ID body must be gen u32 + id u32")
                    return
                req_gen, leaf_id = BIN_BY_ID.unpack(body)
                if req_gen != snap.leaf_gen:
                    self.stats["errors"] += 1
                    out += bin_error(BST_EPOCH_CHANGED, rid,
                                     "leaf id from an old generation")
                    return
                elems = snap.vector_elements(leaf_id)
                if elems is None:
                    self.stats["errors"] += 1
                    out += bin_error(BST_UNKNOWN_USER, rid, "no vector")
                    return
            else:
                try:
                    user = body.decode("utf-8")
                except UnicodeDecodeError:
                    self.stats["errors"] += 1
                    out += bin_error(BST_MALFORMED, rid,
                                     "identity is not valid UTF-8")
                    return
                elems = snap.vector_elements(snap.resolve_leaf(user)[2])
                if elems is None:
                    self.stats["errors"] += 1
                    code = snap.vector_error_code(user)
                    out += bin_error(
                        BST_NOT_A_LEAF if code == ERR_NOT_A_LEAF
                        else BST_UNKNOWN_USER, rid,
                        f"{user!r} has no leaf vector")
                    return
            if snap.still(stamp):
                n = len(elems)
                out += BIN_HEADER.pack(BIN_REP_MAGIC, BST_OK, 0, rid,
                                       BIN_VEC_HEAD.size + 8 * n)
                out += BIN_VEC_HEAD.pack(snap.seq & 0xFFFFFFFF,
                                         snap.resolution, n)
                out += struct.pack(">%dd" % n, *elems)
                return
        raise RuntimeError("snapshot would not stabilize")

    def _bin_batch(self, flags: int, rid: int, body: bytes,
                   out: bytearray) -> None:
        if not flags & BF_BY_ID:
            self.stats["errors"] += 1
            out += bin_error(BST_BAD_BATCH, rid,
                             "binary batches are id-addressed (BF_BY_ID)")
            return
        if len(body) < BIN_BATCH_HEAD.size:
            self.stats["errors"] += 1
            out += bin_error(BST_MALFORMED, rid, "truncated batch head")
            return
        req_gen, count = BIN_BATCH_HEAD.unpack_from(body)
        if count > self.max_batch:
            self.stats["errors"] += 1
            out += bin_error(BST_BAD_BATCH, rid,
                             f"batch of {count} exceeds cap "
                             f"{self.max_batch}")
            return
        if len(body) != BIN_BATCH_HEAD.size + 4 * count:
            self.stats["errors"] += 1
            out += bin_error(BST_MALFORMED, rid,
                             "batch body length mismatch")
            return
        ids = np.frombuffer(body, dtype=">u4", count=count,
                            offset=BIN_BATCH_HEAD.size).astype(np.int64)
        for _ in range(64):
            # one snapshot for the whole batch: items can never straddle
            # a refresh
            snap, stamp = self._stable_snapshot()
            if snap is None:
                self.stats["errors"] += 1
                out += bin_error(BST_UNKNOWN_USER, rid, "no snapshot yet")
                return
            if req_gen != snap.leaf_gen:
                self.stats["errors"] += 1
                out += bin_error(BST_EPOCH_CHANGED, rid,
                                 "leaf ids from an old generation")
                return
            values, known = snap.values_for_ids(ids)
            if snap.still(stamp):
                self.stats["batches"] += 1
                self.stats["batch_items"] += count
                payload_len = BIN_BATCH_REPLY_HEAD.size + 9 * count
                out += BIN_HEADER.pack(BIN_REP_MAGIC, BST_OK, 0, rid,
                                       payload_len)
                out += BIN_BATCH_REPLY_HEAD.pack(snap.seq & 0xFFFFFFFF,
                                                 snap.leaf_gen, count)
                out += values.astype(">f8").tobytes()
                out += known.astype(np.uint8).tobytes()
                return
        raise RuntimeError("snapshot would not stabilize")

    def _bin_report_usage(self, rid: int, body: bytes,
                          out: bytearray) -> None:
        if len(body) <= BIN_REPORT.size:
            self.stats["errors"] += 1
            out += bin_error(BST_MALFORMED, rid,
                             "REPORT_USAGE body is start f64 + end f64 + "
                             "cores u32 + user utf-8")
            return
        start, end, cores = BIN_REPORT.unpack_from(body)
        try:
            user = body[BIN_REPORT.size:].decode("utf-8")
        except UnicodeDecodeError:
            self.stats["errors"] += 1
            out += bin_error(BST_MALFORMED, rid, "user is not valid UTF-8")
            return
        if not user or end < start or cores < 1:
            self.stats["errors"] += 1
            out += bin_error(BST_MALFORMED, rid,
                             "end >= start and cores >= 1 required")
            return
        accepted = self.backend.report_usage(user, start, end, cores)
        out += BIN_HEADER.pack(BIN_REP_MAGIC, BST_OK, 0, rid, 1)
        out += BIN_ACCEPTED.pack(1 if accepted else 0)

    def _bin_lookup_account(self, rid: int, body: bytes,
                            out: bytearray) -> None:
        """System user -> the identity's BIN_FS_REPLY + the identity."""
        try:
            account = body.decode("utf-8")
        except UnicodeDecodeError:
            account = ""
        if not account:
            self.stats["errors"] += 1
            out += bin_error(BST_MALFORMED, rid,
                             "LOOKUP_ACCOUNT body is a non-empty utf-8 "
                             "system user")
            return
        # resolved on every request, never memoised: a mapping may be
        # stored or replaced at any moment
        identity = self.backend.resolve_identity(account)
        if identity is None:
            self.stats["errors"] += 1
            out += bin_error(BST_UNKNOWN_USER, rid,
                             f"cannot resolve {account!r}")
            return
        tail = identity.encode("utf-8")
        for _ in range(64):
            snap, stamp = self._stable_snapshot()
            if snap is None:
                # nothing published yet: the fallback value, as JSON
                # GET_FAIRSHARE answers it
                value, known, _ = self.backend.lookup_fairshare(identity)
                seq = gen = 0
                leaf_id = NO_LEAF_ID
            else:
                value, known, leaf_id = snap.resolve_leaf(identity)
                seq, gen = snap.seq & 0xFFFFFFFF, snap.leaf_gen
            if snap is None or snap.still(stamp):
                out += BIN_FS_FULL.pack(
                    BIN_REP_MAGIC, BST_OK, 0, rid,
                    BIN_FS_REPLY.size + len(tail),
                    value, 1 if known else 0, seq, gen, leaf_id)
                out += tail
                return
        raise RuntimeError("snapshot would not stabilize")

    # -- JSON (v1) execution ---------------------------------------------------

    def _execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        rid = request.get("id")
        if not isinstance(rid, (int, type(None))):
            rid = None
        version = request.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            self.stats["errors"] += 1
            return error_reply(rid, ERR_BAD_VERSION,
                               f"server speaks protocol {PROTOCOL_VERSION}, "
                               f"request used {version!r}")
        op = request.get("op")
        if op not in OPS:
            self.stats["errors"] += 1
            return error_reply(rid, ERR_UNSUPPORTED_OP, f"unknown op {op!r}")
        self._metrics["requests"].inc()
        # a METRICS scrape is never timed: observing its own latency would
        # mutate the histogram after rendering, breaking the guarantee that
        # the reply matches a direct render of the same registries
        timed = self.registry.enabled and op != "METRICS"
        t0 = time.perf_counter() if timed else 0.0
        try:
            body = self._execute_single(op, request)
            if not body.get("ok", False):
                self.stats["errors"] += 1
            reply = dict(body, id=rid)
        except Exception as exc:  # defensive: a bug must not kill the loop
            self.stats["errors"] += 1
            reply = error_reply(rid, ERR_INTERNAL,
                                f"{type(exc).__name__}: {exc}")
        if timed:
            # inline observe: op-latency children are written only from
            # this (the event-loop) thread, so the per-request fast path
            # skips the registry lock and the method dispatch — this is
            # the hottest instrument in the stack
            hist = self._op_latency[op]
            elapsed = time.perf_counter() - t0
            hist.counts[bisect_left(hist.buckets, elapsed)] += 1
            hist.sum += elapsed
            hist.count += 1
        return reply

    def _server_identity(self) -> Dict[str, Any]:
        ident: Dict[str, Any] = {
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "binary": BIN_PROTOCOL_VERSION,
        }
        ident.update(self.identity)
        return ident

    def _execute_single(self, op: str, request: Dict[str, Any]
                        ) -> Dict[str, Any]:
        """Reply *body* (no id) for one JSON op."""
        if op == "PING":
            body: Dict[str, Any] = {"ok": True, "pong": True}
            if "payload" in request:
                body["payload"] = request["payload"]
            return body
        if op == "HELLO":
            return {"ok": True, "protocol": PROTOCOL_VERSION,
                    "binary": BIN_PROTOCOL_VERSION,
                    "server": self._server_identity()}
        if op == "INFO":
            stats = self.stats_aggregator() if self.stats_aggregator \
                is not None else dict(self.stats)
            return {"ok": True, "protocol": PROTOCOL_VERSION,
                    "server": self._server_identity(),
                    "info": self.backend.info(), "stats": stats}
        if op == "METRICS":
            # requests_total was already incremented for this request, so
            # the scrape observes itself exactly once — and byte-for-byte
            # matches a direct render of the same registries afterwards
            text = render_many([self.registry, self.backend.registry])
            if self.extra_metrics is not None:
                text += self.extra_metrics()
            return {"ok": True,
                    "content_type": "text/plain; version=0.0.4",
                    "text": text}
        if op == "TRACE_EXPORT":
            if self.trace_export is not None:
                body = dict(self.trace_export())
            else:
                tracer = trace.default_tracer()
                body = {"events": tracer.drain(),
                        "dropped": tracer.dropped}
            body.setdefault("ok", True)
            body.setdefault("pid", os.getpid())
            body.setdefault("site", self.backend.site)
            return body
        # GET_FAIRSHARE: the freshness-annotated detail read
        user = request.get("user")
        if not isinstance(user, str) or not user:
            return {"ok": False,
                    "error": {"code": ERR_MALFORMED,
                              "message": f"{op} needs a 'user' string"}}
        value, known, snap = self.backend.lookup_fairshare(user)
        body = {"ok": True, "value": value, "known": known}
        if snap is not None:
            body["seq"] = snap.seq
            body["epoch"] = list(snap.epoch) if isinstance(snap.epoch, tuple) \
                else snap.epoch
            body["horizons"] = dict(snap.horizons)
            body["staleness"] = snap.staleness(self.backend.now())
        return body


class ServerThread:
    """Run an :class:`AequusServer` on a private event loop thread.

    Tests, benchmarks and the daemon embed the server next to code driving
    the simulation engine; this wrapper owns the loop, starts the server
    (resolving port 0 to the real ephemeral port before returning), and
    tears both down on :meth:`stop`.
    """

    def __init__(self, server: AequusServer):
        self.server = server
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name="aequusd",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("aequusd server thread failed to start")
        if self._startup_error is not None:
            raise RuntimeError("aequusd failed to bind") \
                from self._startup_error
        return self

    @staticmethod
    def _quiet_cancelled(loop: asyncio.AbstractEventLoop,
                         context: Dict[str, Any]) -> None:
        # cancelling connection handlers at teardown makes asyncio streams
        # report a spurious "Exception in callback ... CancelledError"
        if isinstance(context.get("exception"), asyncio.CancelledError):
            return
        loop.default_exception_handler(context)

    def _run(self) -> None:
        assert self.loop is not None
        asyncio.set_event_loop(self.loop)
        self.loop.set_exception_handler(self._quiet_cancelled)
        try:
            self.loop.run_until_complete(self.server.start())
        except BaseException as exc:  # bind failure etc.
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self.loop.run_forever()
        finally:
            self.server.close()
            tasks = [t for t in asyncio.all_tasks(self.loop) if not t.done()]
            for task in tasks:
                task.cancel()
            if tasks:
                self.loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
            self.loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self.loop is None or self._thread is None:
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout)
        self._thread = None
        self.loop = None
