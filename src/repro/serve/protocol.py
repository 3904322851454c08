"""aequusd wire protocol: compact binary frames (v2) and JSON frames (v1).

Every data op is binary; JSON carries the admin ops and one annotated
read.  Both framings share one connection and one correlation-id space.

Binary protocol (v2)
--------------------
A binary frame is a 12-byte header followed by ``body_len`` body bytes::

    request:  magic 0xA3 | opcode u8 | flags u16 | rid u32 | body_len u32
    reply:    magic 0xA4 | status u8 | flags u16 | rid u32 | body_len u32

``GET_FAIRSHARE`` (1)  identity -> ``BIN_FS_REPLY``: value, known, snapshot
                       seq, leaf-table generation, leaf id.
``GET_VECTOR`` (2)     identity -> seq, resolution, the elements.
``REPORT_USAGE`` (3)   start, end, cores, user -> accepted.
``BATCH_FAIRSHARE`` (4)
                       generation + leaf ids -> seq, generation, one value
                       and one known flag per id, all from ONE snapshot (no
                       torn batches).  An id the table does not hold
                       (:data:`NO_LEAF_ID`) answers the unknown-user value.
``PING`` (5)           echoes the body.
``LOOKUP_ACCOUNT`` (6) a scheduler's whole per-owner question in one
                       frame: a UTF-8 *system user*, resolved through the
                       backend's identity resolution (the live IRS, or the
                       IRS table published to shared memory) on every
                       request, answered with the ``BIN_FS_REPLY`` of the
                       resolved identity followed by its UTF-8 bytes.  An
                       account that does not resolve answers
                       ``UNKNOWN_USER``.

Key-addressed binary requests carry either a UTF-8 identity (flags bit 0
clear) or an integer *leaf id* plus the leaf-table generation it belongs
to (flags bit 0 set).  Leaf ids are row numbers into the snapshot's leaf
array — the server returns them on name lookups so clients cache the
mapping and skip string resolution entirely; a generation mismatch (the
policy was recompiled) answers ``EPOCH_CHANGED`` and the client
re-resolves by name.

JSON (v1)
---------
A JSON frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON, a single object.  Because a JSON frame's first byte
is the high byte of its length prefix — always zero below a 16 MiB cap —
the two framings are told apart on the first byte.

Requests carry ``{"v": <protocol version>, "id": <correlation id>,
"op": "<OP>", ...operands}``.  Replies echo ``id`` and carry either
``"ok": true`` plus result fields, or ``"ok": false`` plus a structured
``"error": {"code": "<CODE>", "message": "<human text>"}``.

``GET_FAIRSHARE``     ``user`` -> ``value`` (projected scalar), ``known``,
                      ``seq``/``epoch`` of the serving snapshot,
                      ``horizons`` (per-origin usage watermark the snapshot
                      incorporates) and ``staleness`` (their age now).
``HELLO``             protocol versions (``binary: 2``) and server identity.
``PING``              liveness probe; echoes ``payload`` if present.
``INFO``              server, snapshot, and statistics summary.
``METRICS``           Prometheus text exposition of every registry wired
                      into the server (server, FCS, USS/UMS, network) as
                      ``text``; scrape with ``aequus-repro metrics``.
``TRACE_EXPORT``      drain the daemon's tracer ring: ``events`` (Chrome
                      ``trace_event`` objects, exactly-once per event)
                      plus clock metadata (``pid``, ``site``,
                      ``virtual_epoch``, ``time_factor``, ``dropped``)
                      so a fleet collector can align per-process clocks.

Any other JSON op answers ``UNSUPPORTED_OP``.  Every frame's declared
length is validated against a configurable cap before its body is read,
so an adversarial or broken peer cannot make the server buffer an
arbitrarily large frame.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "BIN_PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "HEADER",
    "OPS",
    "ERR_MALFORMED",
    "ERR_BAD_VERSION",
    "ERR_UNSUPPORTED_OP",
    "ERR_UNKNOWN_USER",
    "ERR_NOT_A_LEAF",
    "ERR_OVERSIZED",
    "ERR_BAD_BATCH",
    "ERR_EPOCH_CHANGED",
    "ERR_INTERNAL",
    "ProtocolError",
    "MalformedFrame",
    "FrameTooLarge",
    "ConnectionClosed",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "split_reply",
    "error_reply",
    "ok_reply",
    "BIN_REQ_MAGIC",
    "BIN_REP_MAGIC",
    "BIN_HEADER",
    "BF_BY_ID",
    "BOP_GET_FAIRSHARE",
    "BOP_GET_VECTOR",
    "BOP_REPORT_USAGE",
    "BOP_BATCH_FAIRSHARE",
    "BOP_PING",
    "BOP_LOOKUP_ACCOUNT",
    "BST_OK",
    "BIN_STATUS_CODES",
    "NO_LEAF_ID",
    "bin_request",
    "bin_error",
    "bin_get_fairshare_by_name",
    "bin_get_fairshare_by_id",
    "bin_batch_fairshare",
    "bin_lookup_account",
    "decode_bin_error",
]

#: bump on any incompatible frame or payload change
PROTOCOL_VERSION = 1

#: the struct-packed wire format (advertised by the JSON ``HELLO`` op)
BIN_PROTOCOL_VERSION = 2

#: default cap on a single frame's payload size (1 MiB)
MAX_FRAME_BYTES = 1 << 20

#: 4-byte big-endian unsigned payload length
HEADER = struct.Struct(">I")

#: the JSON ops: admin plus the annotated fairshare read
OPS = frozenset({"HELLO", "INFO", "METRICS", "TRACE_EXPORT", "PING",
                 "GET_FAIRSHARE"})

# -- binary framing -----------------------------------------------------------

#: first byte of every binary request / reply frame.  A JSON frame's first
#: byte is the top byte of its u32 length prefix — zero for any frame below
#: 16 MiB — so the two framings never collide below that cap.
BIN_REQ_MAGIC = 0xA3
BIN_REP_MAGIC = 0xA4

#: magic, opcode (request) / status (reply), flags, rid, body_len
BIN_HEADER = struct.Struct(">BBHII")

#: request flag: the body addresses a leaf by ``(gen u32, leaf id u32)``
#: instead of a UTF-8 identity string
BF_BY_ID = 0x0001

BOP_GET_FAIRSHARE = 1
BOP_GET_VECTOR = 2
BOP_REPORT_USAGE = 3
BOP_BATCH_FAIRSHARE = 4
BOP_PING = 5
BOP_LOOKUP_ACCOUNT = 6

BIN_OPS = frozenset({BOP_GET_FAIRSHARE, BOP_GET_VECTOR, BOP_REPORT_USAGE,
                     BOP_BATCH_FAIRSHARE, BOP_PING, BOP_LOOKUP_ACCOUNT})

#: reply statuses; non-zero statuses carry a UTF-8 message as the body
BST_OK = 0
BST_MALFORMED = 1
BST_UNSUPPORTED_OP = 2
BST_UNKNOWN_USER = 3
BST_NOT_A_LEAF = 4
BST_EPOCH_CHANGED = 5
BST_INTERNAL = 6
BST_OVERSIZED = 7
BST_BAD_BATCH = 8

#: sentinel leaf id in replies for identities with no stable row
NO_LEAF_ID = 0xFFFFFFFF

# binary request body layouts
BIN_BY_ID = struct.Struct(">II")             # gen, leaf id
BIN_REPORT = struct.Struct(">ddI")           # start, end, cores (+ name)
BIN_BATCH_HEAD = struct.Struct(">II")        # gen, count (+ count * u32 ids)

# binary reply body layouts
BIN_FS_REPLY = struct.Struct(">dB3xIII")     # value, known, seq, gen, leaf id
BIN_VEC_HEAD = struct.Struct(">IIH2x")       # seq, resolution, count (+ f64s)
BIN_BATCH_REPLY_HEAD = struct.Struct(">III")  # seq, gen, count
BIN_ACCEPTED = struct.Struct(">B")           # accepted

# precombined header+body structs for the server's hottest replies
BIN_FS_FULL = struct.Struct(">BBHII" + "dB3xIII")

# -- structured error codes ---------------------------------------------------

ERR_MALFORMED = "MALFORMED"          # frame payload is not a valid request
ERR_BAD_VERSION = "BAD_VERSION"      # protocol version mismatch
ERR_UNSUPPORTED_OP = "UNSUPPORTED_OP"
ERR_UNKNOWN_USER = "UNKNOWN_USER"    # identity cannot be resolved
ERR_NOT_A_LEAF = "NOT_A_LEAF"        # vector requested for a non-leaf node
ERR_OVERSIZED = "OVERSIZED"          # frame exceeded the size cap
ERR_BAD_BATCH = "BAD_BATCH"          # malformed or nested batch
ERR_EPOCH_CHANGED = "EPOCH_CHANGED"  # leaf-id generation no longer current
ERR_INTERNAL = "INTERNAL"

#: binary status byte -> structured error code (shared vocabulary with JSON)
BIN_STATUS_CODES = {
    BST_MALFORMED: ERR_MALFORMED,
    BST_UNSUPPORTED_OP: ERR_UNSUPPORTED_OP,
    BST_UNKNOWN_USER: ERR_UNKNOWN_USER,
    BST_NOT_A_LEAF: ERR_NOT_A_LEAF,
    BST_EPOCH_CHANGED: ERR_EPOCH_CHANGED,
    BST_INTERNAL: ERR_INTERNAL,
    BST_OVERSIZED: ERR_OVERSIZED,
    BST_BAD_BATCH: ERR_BAD_BATCH,
}


class ProtocolError(Exception):
    """Base class for framing-level failures."""


class MalformedFrame(ProtocolError):
    """The payload bytes are not valid UTF-8 JSON, or not an object."""


class FrameTooLarge(ProtocolError):
    """The declared payload length exceeds the configured cap."""

    def __init__(self, declared: int, limit: int):
        super().__init__(f"frame of {declared} bytes exceeds cap {limit}")
        self.declared = declared
        self.limit = limit


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (cleanly or mid-frame)."""


# -- framing ------------------------------------------------------------------

def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialize one payload object into a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Parse a frame body; raises :class:`MalformedFrame` on garbage."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(str(exc)) from exc
    if not isinstance(payload, dict):
        raise MalformedFrame(f"payload is {type(payload).__name__}, "
                             "expected an object")
    return payload


async def read_frame(reader: asyncio.StreamReader,
                     max_frame: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Read one frame; the length prefix is validated before the payload.

    Raises :class:`ConnectionClosed` at a clean EOF between frames or a
    truncation mid-frame, :class:`FrameTooLarge` when the declared length
    exceeds ``max_frame`` (the payload is NOT read in that case), and
    :class:`MalformedFrame` for undecodable payloads.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed("eof") from exc
    (length,) = HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLarge(length, max_frame)
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed("truncated frame") from exc
    return decode_payload(body)


# -- reply builders -----------------------------------------------------------

def ok_reply(request_id: Optional[int], **fields: Any) -> Dict[str, Any]:
    reply: Dict[str, Any] = {"id": request_id, "ok": True}
    reply.update(fields)
    return reply


def error_reply(request_id: Optional[int], code: str,
                message: str) -> Dict[str, Any]:
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


# -- binary frame builders ----------------------------------------------------

def bin_request(opcode: int, rid: int, body: bytes = b"",
                flags: int = 0) -> bytes:
    """Pack one binary request frame."""
    return BIN_HEADER.pack(BIN_REQ_MAGIC, opcode, flags, rid,
                           len(body)) + body


def bin_reply(status: int, rid: int, body: bytes = b"",
              flags: int = 0) -> bytes:
    """Pack one binary reply frame."""
    return BIN_HEADER.pack(BIN_REP_MAGIC, status, flags, rid,
                           len(body)) + body


def bin_error(status: int, rid: int, message: str = "") -> bytes:
    """Pack an error reply; the body is the UTF-8 message."""
    return bin_reply(status, rid, message.encode("utf-8"))


def decode_bin_error(status: int, body: bytes) -> Dict[str, Any]:
    """Lift a binary error reply into the JSON error shape."""
    code = BIN_STATUS_CODES.get(status, ERR_INTERNAL)
    return {"code": code, "message": body.decode("utf-8", "replace")}


def bin_get_fairshare_by_name(rid: int, user: str) -> bytes:
    return bin_request(BOP_GET_FAIRSHARE, rid, user.encode("utf-8"))


def bin_get_fairshare_by_id(rid: int, gen: int, leaf_id: int) -> bytes:
    return bin_request(BOP_GET_FAIRSHARE, rid, BIN_BY_ID.pack(gen, leaf_id),
                       flags=BF_BY_ID)


def bin_get_vector_by_name(rid: int, user: str) -> bytes:
    return bin_request(BOP_GET_VECTOR, rid, user.encode("utf-8"))


def bin_report_usage(rid: int, user: str, start: float, end: float,
                     cores: int) -> bytes:
    return bin_request(BOP_REPORT_USAGE, rid,
                       BIN_REPORT.pack(start, end, cores)
                       + user.encode("utf-8"))


def bin_batch_fairshare(rid: int, gen: int, leaf_ids: list) -> bytes:
    """Batch lookup by id; every id must be from the same generation."""
    body = BIN_BATCH_HEAD.pack(gen, len(leaf_ids)) + \
        struct.pack(">%dI" % len(leaf_ids), *leaf_ids)
    return bin_request(BOP_BATCH_FAIRSHARE, rid, body, flags=BF_BY_ID)


def bin_lookup_account(rid: int, system_user: str) -> bytes:
    return bin_request(BOP_LOOKUP_ACCOUNT, rid, system_user.encode("utf-8"))


async def read_bin_reply(reader: asyncio.StreamReader,
                         max_frame: int = MAX_FRAME_BYTES):
    """Read one binary reply frame: ``(status, flags, rid, body)``.

    Test/diagnostic helper — the production client parses replies out of
    its read buffer with :func:`split_reply` instead.
    """
    try:
        header = await reader.readexactly(BIN_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed("eof") from exc
    magic, status, flags, rid, body_len = BIN_HEADER.unpack(header)
    if magic != BIN_REP_MAGIC:
        raise MalformedFrame(f"bad reply magic 0x{magic:02x}")
    if body_len > max_frame:
        raise FrameTooLarge(body_len, max_frame)
    try:
        body = await reader.readexactly(body_len)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed("truncated frame") from exc
    return status, flags, rid, body


def split_reply(buf: bytearray, pos: int, max_frame: int = MAX_FRAME_BYTES
                ) -> Optional[Tuple[Any, Any, int]]:
    """Parse the reply frame at ``buf[pos:]``: ``(rid, reply, end)``.

    JSON and binary replies share one correlation-id space and are told
    apart by their first byte; a JSON reply is the decoded dict, a binary
    one ``(status, body)``.  None while the frame is still incomplete.
    Raises :class:`FrameTooLarge` on a declared length beyond
    ``max_frame`` and :class:`MalformedFrame` on an undecodable payload —
    either way the stream can no longer be trusted.
    """
    avail = len(buf) - pos
    if avail and buf[pos] == BIN_REP_MAGIC:
        if avail < BIN_HEADER.size:
            return None
        _, status, _flags, rid, body_len = BIN_HEADER.unpack_from(buf, pos)
        if body_len > max_frame:
            raise FrameTooLarge(body_len, max_frame)
        at = pos + BIN_HEADER.size
        if len(buf) < at + body_len:
            return None
        return rid, (status, bytes(buf[at:at + body_len])), at + body_len
    if avail < HEADER.size:
        return None
    (length,) = HEADER.unpack_from(buf, pos)
    if length > max_frame:
        raise FrameTooLarge(length, max_frame)
    at = pos + HEADER.size
    if len(buf) < at + length:
        return None
    reply = decode_payload(bytes(buf[at:at + length]))
    return reply.get("id"), reply, at + length
