"""Resilient client transport for aequusd: one protocol, two drivers.

:class:`AequusClient` holds every operation's protocol logic once (leaf-id
cache, batch lookup, retry, error lifting) as coroutines over a
:class:`_Connection`; the drivers differ only in how a connection moves
bytes.

* :class:`AequusClient` itself is the **pipelining asyncio driver**: a
  small connection pool, any number of requests in flight per connection
  (correlation ids), per-request timers.  For a caller that keeps many
  requests in flight at once: load drivers, fan-out scrapes.
* :class:`SyncAequusClient` is the **blocking driver**: request and reply
  travel on the caller's thread over a blocking socket — no thread, no
  event loop; its connections never suspend, so the same coroutines run
  to completion in one ``send(None)``.  For closed-loop callers that need
  one answer before asking for the next: ``libaequus``'s socket transport
  (it implements that duck-type: ``lookup_fairshare`` /
  ``resolve_identity`` / ``report_usage``, plus ``lookup_account``) under
  an RMS queue pass, the CLI, the collector.  Threads sharing one instance
  are serialized.

One data plane: every data op travels as a struct-packed binary frame —
GET_FAIRSHARE, GET_VECTOR, REPORT_USAGE, LOOKUP_ACCOUNT (which also
answers :meth:`AequusClient.resolve_identity`) and BATCH_FAIRSHARE (which
answers :meth:`AequusClient.batch` and
:meth:`AequusClient.batch_lookup_fairshare`).  JSON frames carry the admin
ops (HELLO, INFO, METRICS, TRACE_EXPORT, PING) and the freshness-annotated
read behind :meth:`AequusClient.lookup_fairshare_detail`; both framings
share a connection.  A server error status is raised, never fallen back
from.  The client caches the integer leaf id a name-addressed reply
returns and switches that user to id-addressed requests; when the
server's leaf table is recompiled (``EPOCH_CHANGED``), the stale id is
dropped and the name path re-resolves it.

Retry semantics: a request that failed before its frame was written is
always safe to retry.  A request whose reply never arrived is ambiguous —
the server may or may not have executed it.  Reads are idempotent and
retried unconditionally; ``REPORT_USAGE`` is retried too (at-least-once:
a rare duplicate usage record decays away, a silently dropped one is a
permanent under-charge), but the ambiguity window is counted in
``stats["ambiguous_retries"]`` so operators can see it.

Reconnect backoff uses *full jitter*: attempt ``k`` sleeps a uniform
random duration in ``[0, min(backoff_max, backoff_base * 2**k)]``.  After
a worker restart every client re-dials; without jitter they would all
wake in lockstep at identical exponential marks and hammer the fresh
listener together (thundering herd) — the uniform draw spreads them over
the whole window.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import random
import socket
import struct
import threading
import time
from types import MappingProxyType
from typing import (Any, Awaitable, Callable, Coroutine, Dict, Iterable, List,
                    Mapping, Optional, Sequence, Tuple)

from ..core.vector import FairshareVector
from ..obs.registry import MetricsRegistry, StatsView
from ..services.irs import IdentityResolutionError
from .protocol import (BIN_ACCEPTED, BIN_BATCH_REPLY_HEAD, BIN_FS_REPLY,
                       BIN_VEC_HEAD, BST_EPOCH_CHANGED, BST_OK,
                       BST_UNKNOWN_USER, ERR_EPOCH_CHANGED, ERR_MALFORMED,
                       ERR_UNSUPPORTED_OP, MAX_FRAME_BYTES, NO_LEAF_ID,
                       PROTOCOL_VERSION, ProtocolError, bin_batch_fairshare,
                       bin_get_fairshare_by_id, bin_get_fairshare_by_name,
                       bin_get_vector_by_name, bin_lookup_account,
                       bin_report_usage, decode_bin_error, encode_frame,
                       split_reply)

__all__ = ["AequusClient", "SyncAequusClient", "AequusServerError",
           "AequusTransportError"]

_READ_CHUNK = 256 * 1024


class AequusTransportError(ConnectionError):
    """The request could not be completed after all retry attempts."""


class AequusServerError(Exception):
    """The server answered with a structured error reply."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    @classmethod
    def from_reply(cls, reply: Dict[str, Any]) -> "AequusServerError":
        error = reply.get("error") or {}
        return cls(error.get("code", "UNKNOWN"), error.get("message", ""))


class _RequestFailed(Exception):
    """Internal: transport failure, remembering whether the frame went out."""

    def __init__(self, sent: bool, cause: BaseException):
        super().__init__(str(cause))
        self.sent = sent
        self.cause = cause


class _Connection:
    """One connection: requests stamped with a fresh correlation id.

    A driver subclass moves the bytes — ``async _exchange(rid, frame,
    timeout)`` returning the reply with that id, and ``async close()`` —
    and marks the connection ``broken`` on any failure so the client
    re-dials.
    """

    def __init__(self, max_frame: int):
        self.max_frame = max_frame
        self._ids = itertools.count(1)
        self.broken = False

    async def request(self, payload: Dict[str, Any],
                      timeout: float) -> Dict[str, Any]:
        rid = next(self._ids)
        frame = encode_frame(dict(payload, v=PROTOCOL_VERSION, id=rid))
        return await self._exchange(rid, frame, timeout)

    async def request_bin(self, build: Callable[[int], bytes],
                          timeout: float) -> Tuple[int, bytes]:
        """Send one binary frame (built with a fresh rid); (status, body)."""
        rid = next(self._ids)
        return await self._exchange(rid, build(rid), timeout)


class _StreamConnection(_Connection):
    """asyncio driver: id-correlated pipelining over a single socket.

    Any number of requests wait on futures keyed by correlation id while
    one buffered read loop demultiplexes the replies.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, max_frame: int):
        super().__init__(max_frame)
        self.reader = reader
        self.writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        buf = bytearray()
        try:
            while True:
                chunk = await self.reader.read(_READ_CHUNK)
                if not chunk:
                    raise ConnectionError("connection closed by server")
                buf += chunk
                pos = 0
                while (frame := split_reply(buf, pos, self.max_frame)):
                    rid, reply, pos = frame
                    # a reply whose request already timed out has no future
                    future = self._pending.pop(rid, None)
                    if future is not None and not future.done():
                        future.set_result(reply)
                del buf[:pos]
        except asyncio.CancelledError:
            self._fail_pending(ConnectionError("connection closed"))
            raise
        except Exception as exc:
            self._fail_pending(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        self.broken = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    _RequestFailed(sent=True, cause=exc))

    def _timeout_one(self, rid: int) -> None:
        future = self._pending.pop(rid, None)
        if future is not None and not future.done():
            self.broken = True
            future.set_exception(_RequestFailed(
                sent=True, cause=asyncio.TimeoutError()))

    async def _exchange(self, rid: int, frame: bytes, timeout: float) -> Any:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[rid] = future
        try:
            self.writer.write(frame)
        except (ConnectionError, OSError) as exc:
            self._pending.pop(rid, None)
            self.broken = True
            raise _RequestFailed(sent=False, cause=exc) from exc
        # only pay for drain() when the transport actually buffered up
        # (the hot path writes straight through to the socket)
        if self.writer.transport.get_write_buffer_size() > 65536:
            await self.writer.drain()
        # a plain timer handle is far cheaper than asyncio.wait_for on a
        # hot path: pipelined reads pay it tens of thousands of times/s
        handle = loop.call_later(timeout, self._timeout_one, rid)
        try:
            return await future
        finally:
            handle.cancel()

    async def close(self) -> None:
        self.broken = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _BlockingConnection(_Connection):
    """Blocking driver: one request in flight, on the caller's thread.

    Nothing here ever suspends, so a coroutine awaiting these methods
    finishes in one ``send(None)`` (see :meth:`SyncAequusClient._run`).
    """

    def __init__(self, sock: socket.socket, max_frame: int):
        super().__init__(max_frame)
        self.sock = sock
        self._buf = bytearray()

    async def _exchange(self, rid: int, frame: bytes, timeout: float) -> Any:
        # one deadline bounds the whole exchange, however many recv()s a
        # large reply takes
        deadline = time.monotonic() + timeout
        buf = self._buf
        sent = False
        try:
            self.sock.settimeout(timeout)
            self.sock.sendall(frame)
            sent = True
            while True:
                chunk = self.sock.recv(_READ_CHUNK)
                if not chunk:
                    raise ConnectionError("connection closed by server")
                buf += chunk
                pos = 0
                while (found := split_reply(buf, pos, self.max_frame)):
                    got, reply, pos = found
                    if got == rid:
                        del buf[:pos]
                        return reply
                    # not ours: the late reply to a request that timed out
                del buf[:pos]
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise socket.timeout("timed out")
                self.sock.settimeout(remaining)
        except (OSError, ProtocolError) as exc:
            self.broken = True
            raise _RequestFailed(sent=sent, cause=exc) from exc

    async def close(self) -> None:
        self.broken = True
        self.sock.close()


class AequusClient:
    """Pooled, pipelining, retrying asyncio client for aequusd."""

    #: bound on the user -> (gen, leaf id) cache
    LEAF_CACHE_SIZE = 1 << 20
    #: re-mint rounds before a batch gives up on a leaf table that moves
    #: under every attempt
    BATCH_REMINTS = 8

    def __init__(self, host: str = "127.0.0.1", port: int = 4730,
                 pool_size: int = 2,
                 timeout: float = 5.0,
                 retries: int = 4,
                 backoff_base: float = 0.05,
                 backoff_max: float = 1.0,
                 max_frame: int = MAX_FRAME_BYTES,
                 registry: Optional[MetricsRegistry] = None,
                 rng: Optional[random.Random] = None):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.max_frame = max_frame
        self._rng = rng if rng is not None else random.Random()
        self._pool: List[Optional[_Connection]] = [None] * pool_size
        self._pool_locks = [asyncio.Lock() for _ in range(pool_size)]
        self._next_slot = itertools.count()
        #: user -> (leaf generation, leaf id), learned from binary replies
        self._leaf_ids: Dict[str, Tuple[int, int]] = {}
        #: read-only view of the leaf ids learned so far
        self.leaf_ids: Mapping[str, Tuple[int, int]] = MappingProxyType(
            self._leaf_ids)
        self.registry = registry if registry is not None else MetricsRegistry(
            constant_labels={"component": "client"})
        events = self.registry.counter(
            "aequus_client_transport_total",
            "Client transport events: requests, retry/reconnect churn, "
            "ambiguity windows, final failures", ("event",))
        self.stats = StatsView({
            key: events.labels(event=key)
            for key in ("requests", "retries", "reconnects",
                        "transport_errors", "ambiguous_retries", "batches",
                        "epoch_changes")})

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "AequusClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close pooled connections (idempotent; a later request re-dials)."""
        for i, conn in enumerate(self._pool):
            if conn is not None:
                await conn.close()
                self._pool[i] = None

    # -- transport core --------------------------------------------------------

    async def _open(self) -> _Connection:
        """Driver seam: dial one connection."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout)
        return _StreamConnection(reader, writer, self.max_frame)

    #: driver seam: wait out a backoff
    _sleep = staticmethod(asyncio.sleep)

    async def _connect(self, slot: int) -> _Connection:
        """(Re-)dial the slot's connection unless a peer task already did."""
        async with self._pool_locks[slot]:
            conn = self._pool[slot]
            if conn is None or conn.broken:
                if conn is not None:
                    await conn.close()
                    self.stats["reconnects"] += 1
                conn = await self._open()
                self._pool[slot] = conn
            return conn

    def _backoff(self, attempt: int) -> float:
        """Full jitter: uniform in [0, min(max, base * 2^attempt)]."""
        cap = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        return self._rng.uniform(0.0, cap)

    async def _attempt(self, send: Callable[[_Connection],
                                            Awaitable[Any]]) -> Any:
        """One request, reconnecting and retrying with backoff.

        ``send`` starts the exchange on the connection it is handed.
        """
        self.stats["requests"] += 1
        slot = next(self._next_slot) % self.pool_size
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.stats["retries"] += 1
                await self._sleep(self._backoff(attempt - 1))
            conn = self._pool[slot]
            if conn is None or conn.broken:  # hot path: live, no lock trip
                try:
                    conn = await self._connect(slot)
                except (ConnectionError, OSError,
                        asyncio.TimeoutError) as exc:
                    last = exc
                    continue
            try:
                return await send(conn)
            except _RequestFailed as exc:
                if exc.sent:
                    self.stats["ambiguous_retries"] += 1
                last = exc.cause
        self.stats["transport_errors"] += 1
        raise AequusTransportError(
            f"aequusd at {self.host}:{self.port} unreachable after "
            f"{self.retries + 1} attempts: {last}")

    async def _call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one JSON request; a structured error reply is raised."""
        reply = await self._attempt(
            lambda conn: conn.request(payload, self.timeout))
        if not reply.get("ok", False):
            raise AequusServerError.from_reply(reply)
        return reply

    async def _call_bin(self, build: Callable[[int], bytes],
                        tolerate: Tuple[int, ...] = ()) -> Tuple[int, bytes]:
        """Send one binary request: (status, body).

        An error status outside ``tolerate`` is raised.
        """
        res = await self._attempt(
            lambda conn: conn.request_bin(build, self.timeout))
        if res[0] != BST_OK and res[0] not in tolerate:
            err = decode_bin_error(*res)
            raise AequusServerError(err["code"], err["message"])
        return res

    def _remember_leaf(self, user: str, gen: int, leaf_id: int) -> None:
        if leaf_id == NO_LEAF_ID:
            return
        if len(self._leaf_ids) >= self.LEAF_CACHE_SIZE:
            self._leaf_ids.clear()
        self._leaf_ids[user] = (gen, leaf_id)

    # -- single-key API --------------------------------------------------------

    async def _by_name(self, user: str) -> Tuple[float, bool, int, int]:
        """Name-addressed GET: (value, known, generation, leaf id).

        Caches the leaf id of a known identity; the id is
        :data:`NO_LEAF_ID` for an unknown one.
        """
        _, body = await self._call_bin(
            lambda rid: bin_get_fairshare_by_name(rid, user))
        value, known, _seq, gen, leaf_id = BIN_FS_REPLY.unpack(body)
        if not known:
            return float(value), False, gen, NO_LEAF_ID
        self._remember_leaf(user, gen, leaf_id)
        return float(value), True, gen, leaf_id

    async def lookup_fairshare(self, user: str) -> Tuple[float, bool]:
        cached = self._leaf_ids.get(user)
        if cached is not None:
            gen, leaf_id = cached
            status, body = await self._call_bin(
                lambda rid: bin_get_fairshare_by_id(rid, gen, leaf_id),
                tolerate=(BST_EPOCH_CHANGED, BST_UNKNOWN_USER))
            if status == BST_OK:
                value, known, _seq, _gen, _leaf = BIN_FS_REPLY.unpack(body)
                return float(value), bool(known)
            # the leaf table moved under the cached id: re-resolve by name
            self.stats["epoch_changes"] += 1
            self._leaf_ids.pop(user, None)
        value, known, _gen, _leaf = await self._by_name(user)
        return value, known

    async def get_fairshare(self, user: str) -> float:
        return (await self.lookup_fairshare(user))[0]

    async def lookup_fairshare_detail(self, user: str) -> Dict[str, Any]:
        """Freshness-annotated lookup: the full reply body, including the
        per-origin ``horizons``/``staleness`` the serving snapshot carries."""
        return await self._call({"op": "GET_FAIRSHARE", "user": user})

    async def get_vector(self, user: str) -> FairshareVector:
        _, body = await self._call_bin(
            lambda rid: bin_get_vector_by_name(rid, user))
        _seq, resolution, n = BIN_VEC_HEAD.unpack_from(body)
        elems = struct.unpack_from(">%dd" % n, body, BIN_VEC_HEAD.size)
        return FairshareVector(list(elems), resolution=resolution)

    async def resolve_identity(self, system_user: str) -> str:
        return (await self.lookup_account(system_user))[0]

    async def lookup_account(self, system_user: str
                             ) -> Tuple[str, float, bool]:
        """System user -> (grid identity, value, known) in one round trip.

        The scheduler's whole question about a job's owner: the server
        resolves the account and serves the identity's fairshare from one
        snapshot.  An unresolvable account raises
        :class:`~repro.services.irs.IdentityResolutionError`.
        """
        status, body = await self._call_bin(
            lambda rid: bin_lookup_account(rid, system_user),
            tolerate=(BST_UNKNOWN_USER,))
        if status == BST_UNKNOWN_USER:
            raise IdentityResolutionError(system_user)
        value, known, _seq, gen, leaf_id = BIN_FS_REPLY.unpack_from(body)
        identity = body[BIN_FS_REPLY.size:].decode("utf-8")
        if known:
            self._remember_leaf(identity, gen, leaf_id)
        return identity, float(value), bool(known)

    async def report_usage(self, user: str, start: float, end: float,
                           cores: int = 1) -> bool:
        _, body = await self._call_bin(
            lambda rid: bin_report_usage(rid, user, float(start),
                                         float(end), int(cores)))
        return bool(BIN_ACCEPTED.unpack(body)[0])

    async def ping(self, payload: Any = None) -> Dict[str, Any]:
        request: Dict[str, Any] = {"op": "PING"}
        if payload is not None:
            request["payload"] = payload
        return await self._call(request)

    async def hello(self) -> Dict[str, Any]:
        """Protocol versions and server identity."""
        return await self._call({"op": "HELLO"})

    async def info(self) -> Dict[str, Any]:
        return await self._call({"op": "INFO"})

    async def metrics(self) -> str:
        """Prometheus text exposition scraped from the server."""
        reply = await self._call({"op": "METRICS"})
        return str(reply["text"])

    async def trace_export(self) -> Dict[str, Any]:
        """Drain the daemon's tracer ring: events plus clock metadata.

        Destructive read — each recorded span is returned exactly once
        across all exports, fleet-wide even under a worker pool (any
        worker answers from the shared spool).
        """
        return await self._call({"op": "TRACE_EXPORT"})

    # -- batch API -------------------------------------------------------------

    async def _batch_values(self, users: List[str]
                            ) -> Tuple[int, List[Tuple[float, bool]]]:
        """(seq, [(value, known)]) for ``users`` from ONE batch reply.

        Users without a cached leaf id are resolved by name first; an
        identity with no leaf rides along as NO_LEAF_ID and comes back
        unknown.  When the leaf table moves under the ids (EPOCH_CHANGED,
        or ids minted under two generations) they are dropped and
        re-minted by name.
        """
        for _ in range(self.BATCH_REMINTS):
            ids = []
            gens = set()
            for user in users:
                cached = self._leaf_ids.get(user)
                if cached is None:
                    _value, _known, gen, leaf_id = await self._by_name(user)
                    cached = (gen, leaf_id)
                ids.append(cached[1])
                # an unknown identity's id names no row: its generation
                # counts only while no known id has named one
                if cached[1] != NO_LEAF_ID or not gens:
                    gens.add(cached[0])
            if len(gens) == 1:
                gen = gens.pop()
                status, body = await self._call_bin(
                    lambda rid: bin_batch_fairshare(rid, gen, ids),
                    tolerate=(BST_EPOCH_CHANGED,))
                if status == BST_OK:
                    seq, _gen, count = BIN_BATCH_REPLY_HEAD.unpack_from(body)
                    values = struct.unpack_from(">%dd" % count, body,
                                                BIN_BATCH_REPLY_HEAD.size)
                    flags_at = BIN_BATCH_REPLY_HEAD.size + 8 * count
                    knowns = body[flags_at:flags_at + count]
                    return seq, [(float(value), bool(known))
                                 for value, known in zip(values, knowns)]
            self.stats["epoch_changes"] += 1
            for user in users:
                self._leaf_ids.pop(user, None)
        raise AequusServerError(ERR_EPOCH_CHANGED,
                                "the leaf table kept moving under the batch")

    async def batch(self, requests: Sequence[Dict[str, Any]]
                    ) -> List[Dict[str, Any]]:
        """Answer ``GET_FAIRSHARE`` items from ONE snapshot; reply bodies.

        Every ``GET_FAIRSHARE`` item's body carries ``ok``, ``value``,
        ``known`` and the ``seq`` of the one snapshot they all came from.
        Any other op is answered in place with ``UNSUPPORTED_OP`` — per-
        item errors are returned, not raised: one bad item must not
        poison its batch.
        """
        self.stats["batches"] += 1
        replies: List[Dict[str, Any]] = []
        gets: List[int] = []
        for i, item in enumerate(requests):
            op = item.get("op") if isinstance(item, dict) else None
            user = item.get("user") if op == "GET_FAIRSHARE" else None
            if isinstance(user, str) and user:
                gets.append(i)
                replies.append({})
            elif op == "GET_FAIRSHARE":
                replies.append({"ok": False, "error": {
                    "code": ERR_MALFORMED,
                    "message": "GET_FAIRSHARE needs a 'user' string"}})
            else:
                replies.append({"ok": False, "error": {
                    "code": ERR_UNSUPPORTED_OP,
                    "message": f"{op!r} is not a batch item"}})
        if gets:
            seq, answers = await self._batch_values(
                [requests[i]["user"] for i in gets])
            for i, (value, known) in zip(gets, answers):
                replies[i] = {"ok": True, "value": value, "known": known,
                              "seq": seq}
        return replies

    async def batch_lookup_fairshare(self, users: Iterable[str]
                                     ) -> Dict[str, Tuple[float, bool]]:
        """One round trip, one snapshot: users -> (value, known)."""
        users = list(users)
        if not users:
            return {}
        self.stats["batches"] += 1
        _seq, answers = await self._batch_values(users)
        return dict(zip(users, answers))


class _BlockingClient(AequusClient):
    """The client's coroutines over connections that never suspend."""

    async def _open(self) -> _Connection:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        # request/reply ping-pong: never let Nagle hold back a lone frame
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _BlockingConnection(sock, self.max_frame)

    async def _sleep(self, delay: float) -> None:
        time.sleep(delay)


def _blocking(op: Callable[..., Coroutine[Any, Any, Any]]
              ) -> Callable[..., Any]:
    """Blocking twin of one :class:`AequusClient` operation: same
    signature and docstring, the result instead of an awaitable."""

    @functools.wraps(op)
    def method(self: "SyncAequusClient", *args: Any, **kwargs: Any) -> Any:
        return self._run(op(self._client, *args, **kwargs))
    return method


class SyncAequusClient:
    """Blocking client: every request on the caller's thread, no loop.

    Implements the transport duck-type ``libaequus`` expects, so the
    existing RMS plugins can run over the socket path unmodified::

        lib = LibAequus.over_socket(SyncAequusClient(port=port), site="a")

    Construction owns nothing; the first request dials.  Threads sharing
    one instance are serialized (for overlap, use :class:`AequusClient`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 4730,
                 **client_kwargs: Any):
        self._client = _BlockingClient(host, port, **client_kwargs)
        self._lock = threading.Lock()
        self.stats = self._client.stats
        self.leaf_ids = self._client.leaf_ids

    def _run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Drive one client coroutine to completion without a loop."""
        with self._lock:
            try:
                coro.send(None)
            except StopIteration as done:
                return done.value
            coro.close()
            raise RuntimeError("blocking client operation tried to suspend")

    def __enter__(self) -> "SyncAequusClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- mirrored API: AequusClient's operations, blocking --------------------

    close = _blocking(AequusClient.aclose)
    lookup_fairshare = _blocking(AequusClient.lookup_fairshare)
    get_fairshare = _blocking(AequusClient.get_fairshare)
    lookup_fairshare_detail = _blocking(AequusClient.lookup_fairshare_detail)
    get_vector = _blocking(AequusClient.get_vector)
    resolve_identity = _blocking(AequusClient.resolve_identity)
    lookup_account = _blocking(AequusClient.lookup_account)
    report_usage = _blocking(AequusClient.report_usage)
    ping = _blocking(AequusClient.ping)
    hello = _blocking(AequusClient.hello)
    info = _blocking(AequusClient.info)
    metrics = _blocking(AequusClient.metrics)
    trace_export = _blocking(AequusClient.trace_export)
    batch = _blocking(AequusClient.batch)
    batch_lookup_fairshare = _blocking(AequusClient.batch_lookup_fairshare)
