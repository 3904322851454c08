"""Wire format for USS exchange frames between grid daemons.

A frame is a 4-byte big-endian payload length followed by that many bytes
of payload (the same length prefix as the serve plane's frames).  The
payload is binary, version 2 (DESIGN.md §13), all integers little-endian::

    offset      size         field
    0           1            version (GRID_WIRE_VERSION)
    1           4  u32       header_len
    5           4  u32       n_users
    9           4  u32       table_len
    13          4  u32       n_entries
    17          header_len   header: UTF-8 JSON object
                             {"src", "dst", "type", "data": {scalars, tctx}}
    ...         table_len    user table: n_users UTF-8 names joined by NUL
    ...         0-7          zero padding to an 8-byte offset
    C           8 n_entries  charges   f64
    C + 8n      4 n_entries  user_idx  u32
    C + 12n     4 n_entries  bin_idx   i32

``src``/``dst`` are transport endpoint names (the USS registers
``uss:<site>``); ``type`` selects the dataclass: the one usage format
(:class:`UsageDeltaMessage`, whose four columns are the table and the
packed arrays) or a resync request (no table, no entries).  The decoder
hands the columns on as zero-copy NumPy views of the payload, which the
receiving histogram merges in one vector operation.  There is one codec:
any other version byte — the JSON envelope of version 1 included — is a
:class:`WireError`.

The length prefix is validated against ``MAX_FRAME_BYTES`` before the
payload is read, so a broken or adversarial peer cannot make a daemon
buffer an arbitrarily large frame.  The decoder is the contract for the
vector apply: every count is checked against the payload length before
anything is sliced, and a well-framed delta is checked for consistency
(:func:`_check_delta`) before the USS sees it — the receiver advances
sequence and horizon before applying the arrays, so a bad index would
fault half-way through on the engine thread, and a repeated entry would
make the result depend on entry order.  Every malformed payload raises
:class:`WireError`; the transport counts and drops it rather than letting
one bad peer kill the receive loop.
"""

from __future__ import annotations

import json
import math
import struct
from array import array
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..services.messages import (DELTA_COLUMNS, UsageDeltaMessage,
                                 UsageResyncRequest)

__all__ = ["GRID_WIRE_VERSION", "MAX_FRAME_BYTES", "WireError",
           "encode_frame", "decode_frame", "frame_length"]

GRID_WIRE_VERSION = 2
MAX_FRAME_BYTES = 16 * 1024 * 1024
_LEN = struct.Struct(">I")
_PREFIX = struct.Struct("<BIIII")

#: the only payload classes allowed on the grid wire
_TYPES = {
    "UsageDeltaMessage": UsageDeltaMessage,
    "UsageResyncRequest": UsageResyncRequest,
}
#: delta fields carried outside the JSON header
_BINARY_FIELDS = ("user_table",) + DELTA_COLUMNS
#: (``array`` typecode for strict list conversion, wire dtype) per column
_COLUMN_TYPES = {
    "charges": ("d", np.dtype("<f8")),
    "user_idx": ("I", np.dtype("<u4")),
    "bin_idx": ("i", np.dtype("<i4")),
}


class WireError(ValueError):
    """A frame that cannot be decoded into a known USS message."""


def _padding(offset: int) -> int:
    return -offset % 8


# -- encode --------------------------------------------------------------------

def _column(values: Sequence[Any], name: str) -> bytes:
    """One column as packed little-endian bytes.

    Lists go through ``array``, the strict typed conversion: it raises on
    a non-integer index, a negative user index, anything wider than 4
    bytes and a non-numeric charge (NumPy would truncate or parse them).
    Arrays must already hold the column's kind and fit its range.
    """
    code, dtype = _COLUMN_TYPES[name]
    if isinstance(values, np.ndarray):
        ok = values.dtype.kind in ("f" if dtype.kind == "f" else "iu")
        if ok and dtype.kind != "f" and len(values):
            info = np.iinfo(dtype)
            ok = info.min <= values.min() and values.max() <= info.max
        if not ok:
            raise WireError(f"{name} column of {values.dtype} does not fit "
                            f"{dtype}")
        packed = values
    else:
        try:
            packed = np.frombuffer(array(code, values), dtype=code)
        except (TypeError, OverflowError, ValueError) as exc:
            raise WireError(f"bad {name} column: {exc}") from exc
    return packed.astype(dtype, copy=False).tobytes()


def encode_frame(src: str, dst: str, message: Any) -> bytes:
    """Serialize one USS message into a length-prefixed frame.

    Only what the layout cannot carry is refused here (a column element
    of the wrong type, a NUL in a user name, a non-finite header number);
    whether a delta is *consistent* is the decoder's call.
    """
    name = type(message).__name__
    if name not in _TYPES:
        raise WireError(f"{name} is not a grid wire message")
    data = {k: v for k, v in message.__dict__.items()
            if k not in _BINARY_FIELDS}
    table, columns, n_users, n_entries = b"", [], 0, 0
    if type(message) is UsageDeltaMessage:
        users = message.user_table
        try:
            table = "\0".join(users).encode("utf-8")
        except (TypeError, UnicodeEncodeError) as exc:
            raise WireError(f"bad user table: {exc}") from exc
        n_users = len(users)
        if table.count(b"\0") != max(n_users - 1, 0):
            raise WireError("a user name contains NUL")
        n_entries = len(message.charges)
        if not len(message.user_idx) == len(message.bin_idx) == n_entries:
            raise WireError("columns differ in length")
        columns = [_column(getattr(message, c), c)
                   for c in ("charges", "user_idx", "bin_idx")]
    try:
        header = json.dumps(
            {"src": src, "dst": dst, "type": name, "data": data},
            separators=(",", ":"), ensure_ascii=False,
            allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad {name} header: {exc}") from exc
    at = _PREFIX.size + len(header) + len(table)
    size = at + _padding(at) + 16 * n_entries
    if size > MAX_FRAME_BYTES:
        raise WireError(f"frame of {size} bytes exceeds cap")
    return b"".join([
        _LEN.pack(size),
        _PREFIX.pack(GRID_WIRE_VERSION, len(header), n_users, len(table),
                     n_entries),
        header, table, bytes(_padding(at)), *columns])


# -- decode --------------------------------------------------------------------

def decode_frame(payload: bytes) -> Tuple[str, str, Any]:
    """Decode one frame payload into ``(src, dst, message)``.

    Raises :class:`WireError`, and nothing else, for any payload that is
    not a well-formed, consistent version-2 frame.
    """
    try:
        return _decode(payload)
    except WireError:
        raise
    except (struct.error, ValueError, IndexError, TypeError, OverflowError,
            RecursionError) as exc:  # backstop: every check is explicit
        raise WireError(f"malformed frame: {exc}") from exc


def _decode(payload: bytes) -> Tuple[str, str, Any]:
    if len(payload) < _PREFIX.size:
        raise WireError(f"frame of {len(payload)} bytes is truncated")
    version, header_len, n_users, table_len, n = _PREFIX.unpack_from(payload)
    if version != GRID_WIRE_VERSION:
        raise WireError(f"unsupported grid wire version {version}")
    table_at = _PREFIX.size + header_len
    pad_at = table_at + table_len
    columns_at = pad_at + _padding(pad_at)
    if columns_at + 16 * n != len(payload):
        raise WireError(f"counts describe {columns_at + 16 * n} bytes, "
                        f"the frame holds {len(payload)}")
    if any(payload[pad_at:columns_at]):
        raise WireError("nonzero padding")
    try:
        envelope = json.loads(payload[_PREFIX.size:table_at].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable header: {exc}") from exc
    if not isinstance(envelope, dict):
        raise WireError("frame header is not an object")
    name = envelope.get("type")
    cls = _TYPES.get(name) if type(name) is str else None
    if cls is None:
        raise WireError(f"unknown message type {name!r}")
    data = envelope.get("data")
    if not isinstance(data, dict):
        raise WireError("missing data object")
    if cls is UsageDeltaMessage:
        if not set(data).isdisjoint(_BINARY_FIELDS):
            raise WireError("a column travels in the header")
        data = dict(data, user_table=_user_table(payload[table_at:pad_at],
                                                 n_users),
                    **_columns(payload, columns_at, n))
    elif n_users or table_len or n:
        raise WireError(f"{name} carries no table or entries")
    try:
        message = cls(**data)
    except TypeError as exc:
        raise WireError(f"bad {name} fields: {exc}") from exc
    if cls is UsageDeltaMessage:
        _check_delta(message)
    return str(envelope.get("src", "")), str(envelope.get("dst", "")), message


def _user_table(table: bytes, n_users: int) -> List[str]:
    try:
        text = table.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"user table is not UTF-8: {exc}") from exc
    names = text.split("\0") if n_users else []
    if len(names) != n_users or (not n_users and table):
        raise WireError(f"user table does not hold {n_users} names")
    return names


def _columns(payload: bytes, at: int, n: int) -> Dict[str, np.ndarray]:
    """The three packed columns as read-only views of the payload."""
    out = {}
    for name in ("charges", "user_idx", "bin_idx"):
        dtype = _COLUMN_TYPES[name][1]
        out[name] = np.frombuffer(payload, dtype=dtype, count=n, offset=at)
        at += dtype.itemsize * n
    return out


def _number(x: Any) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _check_delta(m: UsageDeltaMessage) -> None:
    """Reject a delta whose fields would fault or corrupt state on apply.

    The layout fixes the column types — ``u32`` user indexes, ``i32``
    bins (signed: a bin before the epoch is negative, and legal) and
    ``f64`` charges — so what is left is the header's scalar types, that
    every charge is a finite non-negative number, that every user index
    names a table entry, and that no user name and no (user, bin) entry
    is listed twice: the receiver applies a delta as one vector merge,
    where a repeat would make the result depend on entry order.
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
    require(len(set(m.user_table)) == len(m.user_table),
            "a user is listed twice in user_table")
    if not len(m.charges):
        return
    require(bool(np.isfinite(m.charges).all()) and m.charges.min() >= 0,
            "charge not a finite non-negative number")
    require(int(m.user_idx.max()) < len(m.user_table),
            "user index outside user_table")
    # the histogram's key layout: sorted by user, then (signed) bin
    keys = (m.user_idx.astype(np.int64) << 32) + (
        m.bin_idx.astype(np.int64) + (1 << 31))
    if not (keys[1:] > keys[:-1]).all():
        keys = np.sort(keys)
        require(bool((keys[1:] != keys[:-1]).all()),
                "a (user, bin) entry is listed twice")


def frame_length(header: bytes) -> int:
    """Parse and validate the 4-byte length prefix."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"declared frame length {length} exceeds cap")
    return length
