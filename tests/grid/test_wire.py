"""Frame codec: every USS message survives the wire byte-for-byte."""

import json
import struct

import pytest

from repro.core.usage import UsageHistogram
from repro.grid.wire import (GRID_WIRE_VERSION, MAX_FRAME_BYTES, WireError,
                             decode_frame, encode_frame, frame_length)
from repro.services.messages import (PolicyExportMessage, UsageDeltaMessage,
                                     UsageResyncRequest)


def _roundtrip(message):
    frame = encode_frame("uss:a", "uss:b", message)
    assert frame_length(frame[:4]) == len(frame) - 4
    src, dst, decoded = decode_frame(frame[4:])
    assert (src, dst) == ("uss:a", "uss:b")
    return decoded


class TestRoundtrip:
    def test_delta(self):
        message = UsageDeltaMessage(
            site="a", sent_at=12.5, interval=30.0, seq=7, full=False,
            user_table=["alice", "bob"], user_idx=[0, 0, 1],
            bin_idx=[0, 3, 1], charges=[1.5, 0.0, 2.25],
            horizon=11.0, boot="deadbeef")
        assert _roundtrip(message) == message

    def test_full_snapshot_restores_int_bin_keys(self):
        """A complete-state snapshot is a ``full=True`` delta: bins travel
        as an integer column, so the receiver's histogram gets int keys
        with no per-type fix-up in the codec."""
        sender = UsageHistogram(30.0)
        sender.set_bin("alice", 0, 1.5)
        sender.set_bin("alice", 12, 2.5)
        sender.set_bin("bob", 3, 0.25)
        user_table, user_idx, bin_idx, charges = sender.snapshot_arrays()
        message = UsageDeltaMessage(
            site="a", sent_at=1.0, interval=30.0, seq=1, full=True,
            user_table=user_table, user_idx=user_idx, bin_idx=bin_idx,
            charges=charges, horizon=0.5, boot="cafe")
        decoded = _roundtrip(message)
        assert decoded == message
        assert all(type(b) is int for b in decoded.bin_idx)
        mirror = UsageHistogram(30.0)
        mirror.apply_arrays(decoded.user_table, decoded.user_idx,
                            decoded.bin_idx, decoded.charges, full=True)
        assert mirror.snapshot() == sender.snapshot()

    def test_empty_heartbeat(self):
        message = UsageDeltaMessage(site="a", sent_at=60.0, interval=30.0,
                                    seq=3, full=False)
        assert _roundtrip(message) == message

    def test_resync_request(self):
        message = UsageResyncRequest(site="b", sent_at=90.0, target="a")
        assert _roundtrip(message) == message

    def test_envelope_is_versioned_json(self):
        frame = encode_frame("uss:a", "uss:b",
                             UsageResyncRequest(site="b", sent_at=1.0,
                                                target="a"))
        envelope = json.loads(frame[4:].decode("utf-8"))
        assert envelope["v"] == GRID_WIRE_VERSION
        assert envelope["type"] == "UsageResyncRequest"


class TestRejection:
    def test_non_wire_message_rejected_on_encode(self):
        policy = PolicyExportMessage(source="pds:a", sent_at=1.0)
        with pytest.raises(WireError):
            encode_frame("pds:a", "pds:b", policy)

    def test_garbage_payload(self):
        with pytest.raises(WireError):
            decode_frame(b"\xff\xfe not json")

    def test_non_object_payload(self):
        with pytest.raises(WireError):
            decode_frame(b"[1, 2, 3]")

    def test_unknown_type(self):
        payload = json.dumps({"v": 1, "src": "x", "dst": "y",
                              "type": "EvilMessage", "data": {}}).encode()
        with pytest.raises(WireError):
            decode_frame(payload)

    def test_missing_fields(self):
        payload = json.dumps({"v": 1, "src": "x", "dst": "y",
                              "type": "UsageResyncRequest",
                              "data": {"site": "a"}}).encode()
        with pytest.raises(WireError):
            decode_frame(payload)

    def test_unexpected_fields(self):
        payload = json.dumps({
            "v": 1, "src": "x", "dst": "y", "type": "UsageResyncRequest",
            "data": {"site": "a", "sent_at": 1.0, "target": "b",
                     "surprise": True}}).encode()
        with pytest.raises(WireError):
            decode_frame(payload)

    #: well-framed deltas a receiver must never see: each would fault in
    #: ``apply_arrays`` (or poison the histogram) *after* the USS had
    #: already advanced its sequence and horizon for the origin
    INCONSISTENT = {
        "user_idx_outside_table": dict(user_table=["x"], user_idx=[5]),
        "negative_user_idx": dict(user_idx=[-1]),
        "float_user_idx": dict(user_idx=[0.0]),
        "string_user_idx": dict(user_idx=["0"]),
        "short_user_idx": dict(user_idx=[]),
        "short_bin_idx": dict(bin_idx=[]),
        "short_charges": dict(charges=[]),
        "float_bin_idx": dict(bin_idx=[1.5]),
        "string_bin_idx": dict(bin_idx=["3"]),
        "huge_bin_idx": dict(bin_idx=[10 ** 400]),
        "null_bin_idx": dict(bin_idx=[None]),
        "non_string_user": dict(user_table=[7]),
        "nested_user": dict(user_table=[["u"]]),
        "string_charge": dict(charges=["1.0"]),
        "null_charge": dict(charges=[None]),
        "negative_charge": dict(charges=[-1.0]),
        "nan_charge": dict(charges=[float("nan")]),
        "infinite_charge": dict(charges=[float("inf")]),
        "huge_int_charge": dict(charges=[10 ** 400]),
        "column_not_a_list": dict(charges={"0": 1.0}),
        "string_sent_at": dict(sent_at="now"),
        "nan_sent_at": dict(sent_at=float("nan")),
        "null_interval": dict(interval=None),
        "float_seq": dict(seq=2.0),
        "string_seq": dict(seq="2"),
        "string_horizon": dict(horizon="soon"),
        "infinite_horizon": dict(horizon=float("inf")),
        "unhashable_site": dict(site=["a"]),
        "non_bool_full": dict(full="yes"),
        "list_boot": dict(boot=["b"]),
        "list_tctx": dict(tctx=["id"]),
    }

    @staticmethod
    def _delta_payload(**overrides):
        data = dict(site="a", sent_at=1.0, interval=60.0, seq=2, full=False,
                    user_table=["u"], user_idx=[0], bin_idx=[3],
                    charges=[1.0], horizon=1.0, boot="b1", tctx=None)
        data.update(overrides)
        return json.dumps({"v": 1, "src": "uss:a", "dst": "uss:b",
                           "type": "UsageDeltaMessage",
                           "data": data}).encode()

    def test_consistent_delta_accepted(self):
        _src, _dst, message = decode_frame(self._delta_payload())
        assert message.charges == [1.0]
        # integer-valued charges are numbers too (JSON has one number type)
        decode_frame(self._delta_payload(charges=[2]))

    @pytest.mark.parametrize("case", sorted(INCONSISTENT))
    def test_inconsistent_delta_rejected(self, case):
        with pytest.raises(WireError):
            decode_frame(self._delta_payload(**self.INCONSISTENT[case]))

    def test_oversized_declared_length(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError):
            frame_length(header)

    def test_length_within_cap_accepted(self):
        assert frame_length(struct.pack(">I", MAX_FRAME_BYTES)) \
            == MAX_FRAME_BYTES
