"""Frame codec: every USS message survives the wire byte-for-byte."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def _payload(header, table=b"", n_users=0, columns=b"", n_entries=0,
             version=GRID_WIRE_VERSION, padding=None):
    """A payload laid out by hand from the documented v2 layout, so a test
    can state a frame the encoder would never write."""
    head = header if isinstance(header, bytes) \
        else json.dumps(header).encode("utf-8")
    at = 17 + len(head) + len(table)
    if padding is None:
        padding = bytes(-at % 8)
    return (struct.pack("<BIIII", version, len(head), n_users, len(table),
                        n_entries)
            + head + table + padding + columns)


def _header(type_name, **data):
    return {"src": "uss:a", "dst": "uss:b", "type": type_name, "data": data}


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
        assert decoded.bin_idx.dtype == np.int32
        mirror = UsageHistogram(30.0)
        mirror.apply_arrays(decoded.user_table, decoded.user_idx,
                            decoded.bin_idx, decoded.charges, full=True)
        assert mirror.snapshot() == sender.snapshot()
        assert all(type(b) is int for bins in mirror.snapshot().values()
                   for b in bins)

    def test_empty_heartbeat(self):
        message = UsageDeltaMessage(site="a", sent_at=60.0, interval=30.0,
                                    seq=3, full=False)
        assert _roundtrip(message) == message

    def test_resync_request(self):
        message = UsageResyncRequest(site="b", sent_at=90.0, target="a")
        assert _roundtrip(message) == message

    def test_envelope_is_versioned_json(self):
        """The payload opens with the version byte; the scalar fields ride
        in a small JSON header behind the fixed prefix."""
        frame = encode_frame("uss:a", "uss:b",
                             UsageResyncRequest(site="b", sent_at=1.0,
                                                target="a"))
        version, header_len, n_users, table_len, n_entries = \
            struct.unpack_from("<BIIII", frame, 4)
        assert version == GRID_WIRE_VERSION == 2
        assert (n_users, table_len, n_entries) == (0, 0, 0)
        envelope = json.loads(frame[21:21 + header_len].decode("utf-8"))
        assert envelope["type"] == "UsageResyncRequest"
        assert len(frame) == 4 + 17 + header_len + (-(17 + header_len) % 8)

    def test_columns_are_packed_little_endian(self):
        message = UsageDeltaMessage(
            site="a", sent_at=1.0, interval=30.0, seq=2, full=False,
            user_table=["alice", "bob"], user_idx=[0, 1], bin_idx=[-3, 7],
            charges=[0.5, 2.0])
        frame = encode_frame("uss:a", "uss:b", message)
        assert frame[-32:] == (struct.pack("<2d", 0.5, 2.0)
                               + struct.pack("<2I", 0, 1)
                               + struct.pack("<2i", -3, 7))
        assert b"alice\0bob" in frame
        # the cost model prices what the frame carries, to a few bytes
        assert len(frame) - 4 <= 1.1 * message.wire_bytes() + 200


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
            decode_frame(_payload([1, 2, 3]))

    def test_unknown_type(self):
        with pytest.raises(WireError):
            decode_frame(_payload(_header("EvilMessage")))

    def test_missing_fields(self):
        with pytest.raises(WireError):
            decode_frame(_payload(_header("UsageResyncRequest", site="a")))

    def test_unexpected_fields(self):
        payload = _payload(_header("UsageResyncRequest", site="a",
                                   sent_at=1.0, target="b", surprise=True))
        with pytest.raises(WireError):
            decode_frame(payload)

    def test_hand_laid_frame_decodes(self):
        """The layout helper below writes what the encoder writes."""
        payload = _payload(
            _header("UsageDeltaMessage", site="a", sent_at=1.0,
                    interval=60.0, seq=2, full=False, horizon=1.0,
                    boot="b1", tctx=None),
            table=b"u", n_users=1, n_entries=1,
            columns=(struct.pack("<d", 1.5) + struct.pack("<I", 0)
                     + struct.pack("<i", 3)))
        _src, _dst, message = decode_frame(payload)
        assert message == UsageDeltaMessage(
            site="a", sent_at=1.0, interval=60.0, seq=2, full=False,
            user_table=["u"], user_idx=[0], bin_idx=[3], charges=[1.5],
            horizon=1.0, boot="b1")

    #: well-framed deltas a receiver must never see: each would fault in
    #: ``apply_arrays`` (or poison the histogram, or make the vector apply
    #: depend on entry order) *after* the USS had already advanced its
    #: sequence and horizon for the origin
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
        "duplicate_entry": dict(user_idx=[0, 0], bin_idx=[3, 3],
                                charges=[1.0, 2.0]),
        "duplicate_entry_unsorted": dict(
            user_table=["u", "v"], user_idx=[0, 1, 0], bin_idx=[3, 1, 3],
            charges=[1.0, 2.0, 0.0]),
        "duplicate_user": dict(user_table=["u", "u"], user_idx=[0, 1],
                               bin_idx=[3, 4], charges=[1.0, 2.0]),
        "nul_in_user": dict(user_table=["u\0v"]),
    }
    #: cases the v2 layout has no bytes for: a ``u32``/``i32``/``f64``
    #: column holds no negative index, float index, string, null or
    #: 400-digit integer, the table holds only text, and one entry count
    #: sizes all three columns.  No frame carries them, so the encoder is
    #: the one place they can be refused.
    UNREPRESENTABLE = {
        "negative_user_idx", "float_user_idx", "string_user_idx",
        "short_user_idx", "short_bin_idx", "short_charges", "float_bin_idx",
        "string_bin_idx", "huge_bin_idx", "null_bin_idx", "non_string_user",
        "nested_user", "string_charge", "null_charge", "huge_int_charge",
        "column_not_a_list"}
    #: cases the encoder refuses to write but a peer can lay by hand: the
    #: header is JSON, which spells NaN and Infinity, and a name's bytes
    #: can hold a NUL
    HAND_LAID = {
        "nan_sent_at": dict(sent_at=float("nan")),
        "infinite_horizon": dict(horizon=float("inf")),
        "nul_in_user": dict(table=b"u\0v"),
    }

    @staticmethod
    def _delta(**overrides):
        data = dict(site="a", sent_at=1.0, interval=60.0, seq=2, full=False,
                    user_table=["u"], user_idx=[0], bin_idx=[3],
                    charges=[1.0], horizon=1.0, boot="b1", tctx=None)
        data.update(overrides)
        return UsageDeltaMessage(**data)

    @classmethod
    def _delta_payload(cls, **overrides):
        return encode_frame("uss:a", "uss:b", cls._delta(**overrides))[4:]

    @staticmethod
    def _hand_laid_delta(table=b"u", **overrides):
        """The default one-entry delta laid out by hand, so a header or
        table the encoder refuses can still reach the decoder."""
        fields = dict(site="a", sent_at=1.0, interval=60.0, seq=2,
                      full=False, horizon=1.0, boot="b1", tctx=None)
        fields.update(overrides)
        return _payload(_header("UsageDeltaMessage", **fields), table=table,
                        n_users=1, n_entries=1,
                        columns=(struct.pack("<d", 1.0)
                                 + struct.pack("<I", 0)
                                 + struct.pack("<i", 3)))

    def test_consistent_delta_accepted(self):
        _src, _dst, message = decode_frame(self._delta_payload())
        assert message.charges.tolist() == [1.0]
        # integer-valued charges are numbers too
        decode_frame(self._delta_payload(charges=[2]))
        # negative bins are legal: a bin before the epoch
        decode_frame(self._delta_payload(bin_idx=[-3]))
        # the hand layout of the default delta is accepted as well
        assert decode_frame(self._hand_laid_delta())[2] == self._delta()

    @pytest.mark.parametrize("case", sorted(INCONSISTENT))
    def test_inconsistent_delta_rejected(self, case):
        """The decoder is the contract: every case a frame can carry is
        rejected on decode, whether the encoder writes it as given or it
        is laid by hand.  A case no frame can carry is refused where it
        would be written."""
        if case in self.UNREPRESENTABLE:
            with pytest.raises(WireError):
                encode_frame("uss:a", "uss:b",
                             self._delta(**self.INCONSISTENT[case]))
            return
        if case in self.HAND_LAID:
            payload = self._hand_laid_delta(**self.HAND_LAID[case])
        else:
            payload = self._delta_payload(**self.INCONSISTENT[case])
        with pytest.raises(WireError):
            decode_frame(payload)

    @pytest.mark.parametrize("case", sorted(HAND_LAID))
    def test_encoder_refuses_what_a_peer_must_lay_by_hand(self, case):
        with pytest.raises(WireError):
            encode_frame("uss:a", "uss:b",
                         self._delta(**self.INCONSISTENT[case]))

    @staticmethod
    def _good():
        """A valid delta payload and its header length."""
        payload = encode_frame("uss:a", "uss:b", UsageDeltaMessage(
            site="a", sent_at=1.0, interval=60.0, seq=2, full=False,
            user_table=["alice", "bob"], user_idx=[0, 0, 1],
            bin_idx=[1, 2, 1], charges=[1.0, 2.0, 3.0]))[4:]
        return payload, struct.unpack_from("<I", payload, 1)[0]

    @staticmethod
    def _patched(offset, fmt, value):
        payload, _ = TestRejection._good()
        out = bytearray(payload)
        struct.pack_into(fmt, out, offset, value)
        return bytes(out)

    #: payloads that are not a well-formed v2 frame: each must raise
    #: WireError — never struct.error, ValueError or IndexError, which the
    #: transport's receive loop does not catch
    MALFORMED = {
        "empty": lambda: b"",
        "truncated_prefix": lambda: TestRejection._good()[0][:9],
        "truncated_header": lambda: TestRejection._good()[0][:30],
        "truncated_columns": lambda: TestRejection._good()[0][:-1],
        "trailing_byte": lambda: TestRejection._good()[0] + b"\0",
        "header_len_overruns": lambda: TestRejection._patched(1, "<I", 10 ** 6),
        "user_count_overruns": lambda: TestRejection._patched(5, "<I", 3),
        "user_count_huge": lambda: TestRejection._patched(5, "<I", 2 ** 32 - 1),
        "table_len_overruns": lambda: TestRejection._patched(9, "<I", 2 ** 31),
        "entry_count_overruns": lambda: TestRejection._patched(13, "<I", 4),
        "entry_count_huge": lambda: TestRejection._patched(13, "<I",
                                                           2 ** 32 - 1),
        "nul_inside_name": lambda: TestRejection._patched(5, "<I", 1),
        "bad_utf8_name": lambda: TestRejection._patched(
            17 + TestRejection._good()[1], "<B", 0xFF),
        "bad_utf8_header": lambda: TestRejection._patched(17, "<B", 0xFF),
        "unknown_version": lambda: TestRejection._patched(0, "<B", 3),
        "json_v1_frame": lambda: json.dumps({
            "v": 1, "src": "uss:a", "dst": "uss:b",
            "type": "UsageResyncRequest",
            "data": {"site": "a", "sent_at": 1.0, "target": "b"}}).encode(),
        "nonzero_padding": lambda: _payload(
            _header("UsageResyncRequest", site="a", sent_at=1.0, target="b"),
            padding=b"\x01" * 8),
        "resync_with_entries": lambda: _payload(
            _header("UsageResyncRequest", site="a", sent_at=1.0, target="b"),
            n_entries=1, columns=bytes(16)),
        "column_in_header": lambda: _payload(
            _header("UsageDeltaMessage", site="a", sent_at=1.0,
                    interval=60.0, seq=2, full=False, charges=[1.0])),
        "header_type_unhashable": lambda: _payload(
            {"src": "a", "dst": "b", "type": ["x"], "data": {}}),
        "deep_header": lambda: _payload(b"[" * 100000 + b"]" * 100000),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_frame_rejected(self, case):
        payload = self.MALFORMED[case]()
        with pytest.raises(WireError):
            decode_frame(payload)

    def test_oversized_declared_length(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError):
            frame_length(header)

    def test_length_within_cap_accepted(self):
        assert frame_length(struct.pack(">I", MAX_FRAME_BYTES)) \
            == MAX_FRAME_BYTES


# -- properties -----------------------------------------------------------------

names = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters="\0"),
                max_size=12)
finite = st.floats(allow_nan=False, allow_infinity=False)
charges = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7e308]))
tctxs = st.none() | st.dictionaries(
    st.sampled_from(["id", "origin", "seq", "pid", "mono", "vts"]),
    names | finite | st.integers(-2 ** 40, 2 ** 40), max_size=6)


@st.composite
def deltas(draw):
    users = draw(st.lists(names, unique=True, max_size=6))
    entries = draw(st.lists(
        st.tuples(st.integers(0, max(len(users) - 1, 0)),
                  st.integers(-2 ** 31, 2 ** 31 - 1), charges),
        unique_by=lambda e: e[:2], max_size=30 if users else 0))
    return UsageDeltaMessage(
        site=draw(names), sent_at=draw(finite),
        interval=draw(st.floats(min_value=1e-3, max_value=1e6)),
        seq=draw(st.integers(0, 2 ** 62)), full=draw(st.booleans()),
        user_table=users, user_idx=[e[0] for e in entries],
        bin_idx=[e[1] for e in entries], charges=[e[2] for e in entries],
        horizon=draw(st.none() | finite), boot=draw(st.none() | names),
        tctx=draw(tctxs))


messages = deltas() | st.builds(UsageResyncRequest, site=names,
                                sent_at=finite, target=names)


class TestCodecProperties:
    @given(messages)
    def test_roundtrip_is_the_identity(self, message):
        """Every field survives; charges bit-exact (subnormals, 1.7e308,
        0.0 deletes), names in any script, heartbeats, full snapshots,
        with and without a trace context."""
        decoded = _roundtrip(message)
        assert decoded == message
        if type(message) is UsageDeltaMessage:
            assert decoded.charges.tobytes() \
                == np.asarray(message.charges, dtype="<f8").tobytes()
            assert decoded.tctx == message.tctx

    @given(deltas(), st.data())
    def test_damaged_frame_decodes_or_raises_wire_error(self, message, data):
        """A truncated or byte-flipped frame either decodes to a delta that
        passed the checks — and then applies without fault — or raises
        WireError; no other exception reaches the transport."""
        payload = encode_frame("uss:a", "uss:b", message)[4:]
        if data.draw(st.booleans(), label="truncate"):
            damaged = payload[:data.draw(st.integers(0, len(payload) - 1))]
        else:
            at = data.draw(st.integers(0, len(payload) - 1))
            flip = data.draw(st.integers(1, 255))
            damaged = bytearray(payload)
            damaged[at] ^= flip
            damaged = bytes(damaged)
        try:
            _src, _dst, decoded = decode_frame(damaged)
        except WireError:
            return
        if type(decoded) is UsageDeltaMessage:
            mirror = UsageHistogram(60.0)
            mirror.apply_arrays(decoded.user_table, decoded.user_idx,
                                decoded.bin_idx, decoded.charges,
                                full=decoded.full)
            assert mirror.n_bins() == int((decoded.charges > 0).sum())
