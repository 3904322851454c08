"""Wire format for USS exchange frames between grid daemons.

A frame is a 4-byte big-endian payload length followed by that many bytes
of UTF-8 JSON (the same framing as the serve plane's protocol v1, so one
set of tooling can eyeball both).  The payload is an envelope::

    {"v": 1, "src": "uss:a", "dst": "uss:b",
     "type": "UsageDeltaMessage", "data": {...dataclass fields...}}

``src``/``dst`` are transport endpoint names (the USS registers
``uss:<site>``); ``type`` selects the dataclass and ``data`` carries its
fields verbatim: the one usage format (:class:`UsageDeltaMessage`) or a
resync request.

The length prefix is validated against ``MAX_FRAME_BYTES`` before the
payload is read, so a broken or adversarial peer cannot make a daemon
buffer an arbitrarily large frame, and a well-framed delta is checked for
consistency (:func:`_check_delta`) before the USS sees it — the receiver
advances sequence and horizon before applying the arrays, so a bad index
would fault half-way through on the engine thread.  Malformed payloads
raise :class:`WireError`; the transport counts and drops them rather than
letting one bad peer kill the receive loop.
"""

from __future__ import annotations

import json
import math
import struct
from array import array
from typing import Any, Tuple

import numpy as np

from ..services.messages import UsageDeltaMessage, UsageResyncRequest

__all__ = ["GRID_WIRE_VERSION", "MAX_FRAME_BYTES", "WireError",
           "encode_frame", "decode_frame"]

GRID_WIRE_VERSION = 1
MAX_FRAME_BYTES = 16 * 1024 * 1024
_LEN = struct.Struct(">I")

#: the only payload classes allowed on the grid wire
_TYPES = {
    "UsageDeltaMessage": UsageDeltaMessage,
    "UsageResyncRequest": UsageResyncRequest,
}


class WireError(ValueError):
    """A frame that cannot be decoded into a known USS message."""


def encode_frame(src: str, dst: str, message: Any) -> bytes:
    """Serialize one USS message into a length-prefixed frame."""
    name = type(message).__name__
    if name not in _TYPES:
        raise WireError(f"{name} is not a grid wire message")
    payload = json.dumps(
        {"v": GRID_WIRE_VERSION, "src": src, "dst": dst, "type": name,
         "data": message.__dict__},
        separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds cap")
    return _LEN.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Tuple[str, str, Any]:
    """Decode one frame payload into ``(src, dst, message)``."""
    try:
        envelope = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(envelope, dict):
        raise WireError("frame payload is not an object")
    name = envelope.get("type")
    cls = _TYPES.get(name)
    if cls is None:
        raise WireError(f"unknown message type {name!r}")
    data = envelope.get("data")
    if not isinstance(data, dict):
        raise WireError("missing data object")
    try:
        message = cls(**data)
        if cls is UsageDeltaMessage:
            _check_delta(message)
    except (TypeError, OverflowError) as exc:
        raise WireError(f"bad {name} fields: {exc}") from exc
    return str(envelope.get("src", "")), str(envelope.get("dst", "")), message


def _number(x: Any) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _check_delta(m: UsageDeltaMessage) -> None:
    """Reject a delta whose fields would fault or corrupt state on apply.

    ``array`` is the strict typed conversion: it raises on a non-integer,
    negative or wider-than-4-byte index (the range the cost model prices,
    so a bin midpoint always fits a float) and on a non-numeric charge.
    """
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise WireError(f"bad UsageDeltaMessage: {what}")

    require(type(m.site) is str and type(m.full) is bool
            and type(m.seq) is int and _number(m.sent_at)
            and _number(m.interval)
            and (m.horizon is None or _number(m.horizon))
            and (m.boot is None or type(m.boot) is str)
            and (m.tctx is None or type(m.tctx) is dict), "header fields")
    require(all(type(c) is list for c in
                (m.user_table, m.user_idx, m.bin_idx, m.charges))
            and len(m.user_idx) == len(m.bin_idx) == len(m.charges),
            "columns differ in length")
    require(set(map(type, m.user_table)) <= {str}, "non-string user")
    if not m.charges:
        return
    array("i", m.bin_idx)  # conversion is the check: raises, or fits
    user_idx = np.frombuffer(array("I", m.user_idx), dtype="I")
    require(user_idx.max() < len(m.user_table),
            "user index outside user_table")
    charges = np.frombuffer(array("d", m.charges))
    require(np.isfinite(charges).all() and charges.min() >= 0,
            "charge not a finite non-negative number")


def frame_length(header: bytes) -> int:
    """Parse and validate the 4-byte length prefix."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"declared frame length {length} exceeds cap")
    return length
