"""Typed message payloads exchanged between Aequus services.

The real system uses Java web services; what matters for behaviour is the
*content* and *timing* of the exchanges, which these dataclasses capture.
Payloads are plain data (no live object references cross the simulated
network), mirroring the serialization boundary of the original SOAP calls.

Every message type reports its own wire footprint via ``wire_entries()``
(how many (user, bin) data points it carries) and ``wire_bytes()`` (size
under the cost model below), which the network layer accumulates into
:class:`repro.services.network.NetworkStats` — the paper's "compact form"
claim is thereby a measured quantity rather than an assertion.

Usage crosses sites in one format, :class:`UsageDeltaMessage`: packed
parallel arrays of changed (user, bin) entries, ``full=True`` marking a
complete-state snapshot (first publish, resync reply).

Wire cost model (documented in DESIGN.md §7): 8-byte message envelope,
8 bytes per float (timestamps, charges), 4 bytes per integer (bin indexes,
user indexes, sequence numbers), 1 byte per flag, UTF-8 strings with a
2-byte length prefix, and 8 bytes of structural framing per *map entry* —
the per-entry structure generic map serializations (SOAP/XML tags in the
original Java services, JSON keys, protobuf map submessages) pay and
packed parallel primitive arrays do not.  Only the optional trace context
is a map; a usage entry costs two integers and a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["UsageDeltaMessage", "UsageResyncRequest", "PolicyExportMessage"]

_ENVELOPE = 8
_FLOAT = 8
_INT = 4
_FLAG = 1
_MAP_ENTRY = 8


def _str_bytes(s: str) -> int:
    return 2 + len(s.encode("utf-8"))


def _tctx_bytes(tctx: Optional[Dict[str, Any]]) -> int:
    """Wire cost of the optional trace context (a small flat map).

    Priced like any other map payload: per-entry structure plus the key
    string and a value (strings by length, numbers as floats).  ``None``
    — tracing disabled — costs nothing, keeping the observability-off
    wire footprint identical to pre-trace senders.
    """
    if not tctx:
        return 0
    return sum(_MAP_ENTRY + _str_bytes(k)
               + (_str_bytes(v) if isinstance(v, str) else _FLOAT)
               for k, v in tctx.items())


@dataclass(frozen=True)
class UsageDeltaMessage:
    """Changed (user, bin) entries since the sender's previous publish.

    The compact array wire format: ``user_table`` spells each referenced
    user once; entry ``j`` sets the *absolute* value ``charges[j]`` for
    ``(user_table[user_idx[j]], bin_idx[j])`` (0 deletes the bin).
    Absolute values make application idempotent, so a resync snapshot
    racing an in-flight delta cannot double-count.

    ``seq`` numbers the sender's publishes consecutively; a receiver that
    observes a gap missed a delta (partition, drop, late join) and must
    request a full resync.  ``full=True`` marks a complete-state snapshot
    (first publish, or a resync reply): the receiver drops entries not
    listed and may apply it regardless of gaps.

    ``horizon`` is the origin usage watermark (see DESIGN.md §10): every
    local usage event at the sender up to that virtual time is reflected
    in the receiver's copy once this message is applied.  Heartbeats carry
    it too — an idle sender still advances its peers' freshness horizons,
    which is what makes a *stalled* horizon a reliable partition signal.
    """

    site: str
    sent_at: float
    interval: float
    seq: int
    full: bool
    user_table: List[str] = field(default_factory=list)
    user_idx: List[int] = field(default_factory=list)
    bin_idx: List[int] = field(default_factory=list)
    charges: List[float] = field(default_factory=list)
    horizon: Optional[float] = None
    #: sender *incarnation* id, fixed for one USS lifetime.  A receiver
    #: that sees the id change knows the peer restarted and its sequence
    #: space reset — without it, a restarted sender's publishes (seq back
    #: at 1) are indistinguishable from stale reordered traffic and would
    #: be silently dropped forever.  ``None`` (hand-built test messages)
    #: disables the check.
    boot: Optional[str] = None
    #: compact trace context stamped at publish (DESIGN.md §14): origin
    #: site, a fleet-unique trace id (``site-boot-seq``), the publish
    #: seq, and the origin's monotonic + virtual-epoch timestamps, so a
    #: collector can reconstruct the delta's causal path across daemons
    #: and align the clocks.  ``None`` (legacy senders, hand-built test
    #: messages, tracing disabled) carries — and costs — nothing.
    tctx: Optional[Dict[str, Any]] = None

    @property
    def usage_horizon(self) -> float:
        return self.sent_at if self.horizon is None else self.horizon

    def total_charge(self) -> float:
        return sum(self.charges)

    def wire_entries(self) -> int:
        return len(self.charges)

    def wire_bytes(self) -> int:
        return (_ENVELOPE + _str_bytes(self.site) + 3 * _FLOAT + _INT + _FLAG
                + (_str_bytes(self.boot) if self.boot else 0)
                + _tctx_bytes(self.tctx)
                + sum(_str_bytes(u) for u in self.user_table)
                + len(self.charges) * (2 * _INT + _FLOAT))


@dataclass(frozen=True)
class UsageResyncRequest:
    """Ask a peer for a full snapshot after a sequence gap was detected."""

    site: str
    sent_at: float
    target: str

    def wire_entries(self) -> int:
        return 0

    def wire_bytes(self) -> int:
        return _ENVELOPE + _str_bytes(self.site) + _FLOAT + _str_bytes(self.target)


@dataclass(frozen=True)
class PolicyExportMessage:
    """A serialized policy (sub)tree published by a PDS.

    ``lines`` is the textual ``path = weight`` format, the canonical wire
    representation (parse with :func:`repro.core.policy.parse_policy`).
    """

    source: str
    sent_at: float
    lines: List[str] = field(default_factory=list)

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def wire_entries(self) -> int:
        return len(self.lines)

    def wire_bytes(self) -> int:
        return (_ENVELOPE + _str_bytes(self.source) + _FLOAT
                + sum(_str_bytes(line) for line in self.lines))
