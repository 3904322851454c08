"""Unit tests for the service message payloads."""

import pytest

from repro.core.policy import parse_policy
from repro.services import messages
from repro.services.messages import (PolicyExportMessage, UsageDeltaMessage,
                                     UsageResyncRequest)


class TestUsageExchangeWireAccounting:
    """The exchange plane's modelled wire cost (``NetworkStats`` sums it)."""

    def entries(self, n_bins):
        return UsageDeltaMessage(
            site="a", sent_at=0.0, interval=60.0, seq=1, full=True,
            user_table=["u"], user_idx=[0] * n_bins,
            bin_idx=list(range(n_bins)), charges=[1.0] * n_bins)

    def test_wire_entries_counts_bins(self):
        assert self.entries(3).wire_entries() == 3

    def test_wire_bytes_grow_with_payload(self):
        assert self.entries(1).wire_bytes() < self.entries(10).wire_bytes()


class TestUsageDeltaMessage:
    def delta(self, **kwargs):
        base = dict(site="a", sent_at=1.0, interval=60.0, seq=3, full=False,
                    user_table=["alice", "bob"], user_idx=[0, 0, 1],
                    bin_idx=[0, 1, 0], charges=[10.0, 20.0, 5.0])
        base.update(kwargs)
        return UsageDeltaMessage(**base)

    def test_total_charge(self):
        assert self.delta().total_charge() == 35.0

    def test_wire_entries(self):
        assert self.delta().wire_entries() == 3

    def test_heartbeat_is_tiny(self):
        hb = self.delta(user_table=[], user_idx=[], bin_idx=[], charges=[])
        assert hb.wire_entries() == 0
        assert hb.wire_bytes() < 50

    def test_frozen(self):
        """Payloads are plain immutable data: a message handed to several
        peers' handlers cannot be altered by one of them."""
        with pytest.raises(AttributeError):
            self.delta().site = "b"

    def test_array_format_more_compact_than_dicts_at_equal_content(self):
        """Packed arrays skip the per-map-entry framing that dict-of-dict
        serializations pay: one more (user, bin) entry for a user already
        in the table costs two integers and a float, less than the same
        entry as a map item under the module's own cost model."""
        base = self.delta()
        more = self.delta(user_idx=[0, 0, 1, 1], bin_idx=[0, 1, 0, 1],
                          charges=[10.0, 20.0, 5.0, 1.0])
        per_entry = more.wire_bytes() - base.wire_bytes()
        assert per_entry == 2 * messages._INT + messages._FLOAT
        assert per_entry < (messages._INT + messages._FLOAT
                            + messages._MAP_ENTRY)


class TestUsageResyncRequest:
    def test_carries_no_entries(self):
        req = UsageResyncRequest(site="b", sent_at=2.0, target="a")
        assert req.wire_entries() == 0
        assert req.wire_bytes() > 0


class TestPolicyExportMessage:
    def test_text_roundtrips_through_parser(self):
        msg = PolicyExportMessage(source="pds", sent_at=1.0,
                                  lines=["/g = 2", "/g/u = 3"])
        tree = parse_policy(msg.text())
        assert tree["/g/u"].weight == 3.0

    def test_empty_lines(self):
        msg = PolicyExportMessage(source="pds", sent_at=1.0)
        assert msg.text() == ""
        assert parse_policy(msg.text()).size() == 1
