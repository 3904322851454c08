"""Unit tests for the Usage Statistics Service (USS)."""

import pytest

from repro.core.usage import UsageRecord
from repro.services.messages import UsageDeltaMessage, UsageResyncRequest
from repro.services.network import Network
from repro.services.uss import UsageStatisticsService
from repro.sim.engine import SimulationEngine


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def network(engine):
    return Network(engine, base_latency=0.1)


def make_uss(name, engine, network, **kwargs):
    return UsageStatisticsService(name, engine, network,
                                  histogram_interval=60.0,
                                  exchange_interval=10.0, **kwargs)


def record(user="u", site="s", start=0.0, end=60.0):
    return UsageRecord(user=user, site=site, start=start, end=end)


class TestLocalRecording:
    def test_record_job_lands_in_histogram(self, engine, network):
        uss = make_uss("a", engine, network)
        uss.record_job(record(end=120.0))
        assert uss.local.total("u") == pytest.approx(120.0)
        assert uss.records_received == 1


class TestExchange:
    def test_peers_receive_snapshots(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        b.add_peer("a")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(15.0)
        assert "a" in b.remote
        assert b.remote["a"].total("alice") == pytest.approx(100.0)

    def test_snapshot_is_full_state_idempotent(self, engine, network):
        """Repeated exchanges must not double-count usage."""
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(55.0)  # several exchange rounds
        assert b.remote["a"].total("alice") == pytest.approx(100.0)

    def test_non_publishing_site_sends_nothing(self, engine, network):
        a = make_uss("a", engine, network, publish=False)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record())
        engine.run_until(30.0)
        assert "a" not in b.remote

    def test_global_usage_merges_local_and_remote(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        b.add_peer("a")
        a.record_job(record(user="u", end=50.0))
        b.record_job(record(user="u", end=70.0))
        engine.run_until(15.0)
        merged = a.global_usage()
        assert merged.total("u") == pytest.approx(120.0)

    def test_global_usage_local_only_view(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        b.add_peer("a")
        b.record_job(record(user="u", end=70.0))
        engine.run_until(15.0)
        assert a.global_usage(include_remote=False).total("u") == 0.0

    def test_interval_mismatch_dropped(self, engine, network):
        from repro.obs.export import render

        a = make_uss("a", engine, network)
        b = UsageStatisticsService("b", engine, network,
                                   histogram_interval=30.0,
                                   exchange_interval=10.0)
        # pre-created: a healthy site renders the series at zero
        assert ('aequus_uss_exchanges_total{site="b",'
                'event="interval_mismatch"} 0') in render(b.registry)
        a.add_peer("b")
        a.record_job(record())
        engine.run_until(15.0)
        assert "a" not in b.remote
        # ... and the drop is visible, not just a silent partition:
        # a's t=0 and t=10 publishes were both refused and counted
        assert b.interval_mismatch == 2
        assert b.exchanges_received == 0
        assert "a" not in b.usage_horizons()
        assert ('aequus_uss_exchanges_total{site="b",'
                'event="interval_mismatch"} 2') in render(b.registry)

    def test_self_peering_rejected(self, engine, network):
        a = make_uss("a", engine, network)
        with pytest.raises(ValueError):
            a.add_peer("a")

    def test_known_sites(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        b.add_peer("a")
        b.record_job(record())
        engine.run_until(15.0)
        assert a.known_sites() == ["a", "b"]

    def test_stop_halts_exchange(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.stop()
        a.record_job(record())
        engine.run_until(30.0)
        assert "a" not in b.remote

    def test_partition_isolates_sites(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        network.partition("uss:a", "uss:b")
        a.record_job(record())
        engine.run_until(30.0)
        assert "a" not in b.remote


class TestDeltaProtocol:
    def test_first_publish_is_full_snapshot(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(15.0)
        assert b._recv_seq["a"] == 1
        assert b.remote["a"].total("alice") == pytest.approx(100.0)

    def test_idle_ticks_send_heartbeats_not_data(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(55.0)  # one full publish, then idle ticks
        assert a.exchanges_skipped >= 3
        # heartbeats neither advance nor disturb the receiver
        assert b.exchanges_received == 1
        assert b.exchanges_stale == 0
        assert b._recv_seq["a"] == 1
        assert b.remote["a"].total("alice") == pytest.approx(100.0)

    def test_subsequent_changes_ship_as_deltas(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(15.0)
        a.record_job(record(user="bob", start=20.0, end=50.0))
        engine.run_until(25.0)
        assert b._recv_seq["a"] == 2
        assert b.remote["a"].total("bob") == pytest.approx(30.0)
        assert b.remote["a"].total("alice") == pytest.approx(100.0)

    def test_stale_delta_dropped_and_counted(self, engine, network):
        """Satellite: a reordered in-flight message older than the last
        applied one must be discarded, not applied as a rollback."""
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(15.0)
        a.record_job(record(user="alice", start=20.0, end=50.0))
        engine.run_until(25.0)
        assert b._recv_seq["a"] == 2
        total = b.remote["a"].total("alice")
        # a delayed duplicate of seq=2 arrives after it was already applied
        stale = UsageDeltaMessage(
            site="a", sent_at=20.0, interval=60.0, seq=2, full=False,
            user_table=["alice"], user_idx=[0], bin_idx=[0], charges=[1.0])
        b._on_message(stale)
        assert b.exchanges_stale == 1
        assert b.remote["a"].total("alice") == pytest.approx(total)

    def test_stale_full_snapshot_dropped_and_counted(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(25.0)
        stale = UsageDeltaMessage(
            site="a", sent_at=5.0, interval=60.0, seq=0, full=True)
        b._on_message(stale)
        assert b.exchanges_stale == 1
        assert b.remote["a"].total("alice") == pytest.approx(100.0)

    def test_legacy_snapshot_reordering_dropped_by_sent_at(self, engine, network):
        """The ``sent_at`` gate went with the full-histogram plane: order
        is decided by ``seq`` alone, so a sender whose clock stepped back
        is still applied, and a reordered snapshot is still dropped
        however new its timestamp claims to be."""
        b = make_uss("b", engine, network)

        def snapshot(seq, sent_at, charge, full):
            return UsageDeltaMessage(
                site="a", sent_at=sent_at, interval=60.0, seq=seq, full=full,
                user_table=["u"], user_idx=[0], bin_idx=[0], charges=[charge])

        b._on_message(snapshot(1, 10.0, 60.0, full=True))
        b._on_message(snapshot(2, 5.0, 70.0, full=False))   # clock stepped
        assert b.exchanges_stale == 0
        assert b.remote["a"].total("u") == pytest.approx(70.0)
        b._on_message(snapshot(1, 99.0, 1.0, full=True))    # reordered
        assert b.exchanges_stale == 1
        assert b.remote["a"].total("u") == pytest.approx(70.0)

    def test_sequence_gap_triggers_resync(self, engine, network):
        """A delta lost to a partition is repaired by request/reply resync
        once the link heals — even if the sender has gone idle since."""
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(15.0)
        network.partition("uss:a", "uss:b")
        a.record_job(record(user="alice", start=100.0, end=500.0))
        engine.run_until(25.0)  # delta seq=2 dropped at send
        assert b.remote["a"].total("alice") == pytest.approx(100.0)
        network.heal("uss:a", "uss:b")
        engine.run_until(45.0)  # heartbeat exposes the gap -> resync
        assert b.resyncs_requested >= 1
        assert a.resyncs_served >= 1
        assert b.remote["a"].total("alice") == pytest.approx(500.0)

    def test_late_joiner_catches_up_via_resync(self, engine, network):
        a = make_uss("a", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(25.0)  # publishes dropped: b does not exist yet
        b = make_uss("b", engine, network)
        engine.run_until(55.0)
        assert b.resyncs_requested >= 1
        assert b.remote["a"].total("alice") == pytest.approx(100.0)

    def test_pruned_bin_propagates_as_deletion(self, engine, network):
        a = make_uss("a", engine, network, prune_horizon=100.0)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="old", end=60.0))
        engine.run_until(15.0)
        assert b.remote["a"].total("old") == pytest.approx(60.0)
        # once bin 0 ages past the horizon, the prune is itself a change
        # and the next delta deletes it at every peer
        engine.run_until(200.0)
        assert a.local.total("old") == 0.0
        assert b.remote["a"].total("old") == 0.0

    def test_resync_request_wire_shape(self):
        req = UsageResyncRequest(site="b", sent_at=1.0, target="a")
        assert req.target == "a"

    def test_legacy_mode_still_full_snapshots(self, engine, network):
        """Complete-state snapshots still exist, inside the one message
        type: the first publish and every resync reply are ``full=True``;
        everything in between is a delta or a heartbeat."""
        a = make_uss("a", engine, network)
        inbox = []
        network.connect("uss:b", inbox.append)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(25.0)
        assert all(type(m) is UsageDeltaMessage for m in inbox)
        assert [m.full for m in inbox] == [True, False, False]
        assert list(inbox[0].charges) == [pytest.approx(60.0),
                                          pytest.approx(40.0)]
        a._on_message(UsageResyncRequest(site="b", sent_at=25.0, target="a"))
        engine.run_until(26.0)
        reply = inbox[-1]
        assert reply.full and reply.seq == inbox[0].seq
        assert sorted(reply.charges) == sorted(inbox[0].charges)

    def test_mixed_modes_interoperate(self, engine, network):
        """The modes that remain are participation modes: a site that
        consumes without publishing interoperates with a full peer — it
        mirrors the peer, sends nothing, and answers no resync."""
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network, publish=False)
        a.add_peer("b")
        b.add_peer("a")
        a.record_job(record(user="alice", end=100.0))
        b.record_job(record(user="bob", end=50.0))
        engine.run_until(25.0)
        assert b.remote["a"].snapshot() == a.local.snapshot()
        assert "b" not in a.remote and b.exchanges_sent == 0
        b._on_message(UsageResyncRequest(site="a", sent_at=25.0, target="b"))
        engine.run_until(26.0)
        assert b.resyncs_served == 0 and "b" not in a.remote


class TestFreshnessWatermarks:
    """Per-origin usage horizons (DESIGN.md §10): advance with applied
    deltas and current-seq heartbeats, stall across partitions."""

    def pair(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        b.add_peer("a")
        return a, b

    def test_local_horizon_is_now(self, engine, network):
        a = make_uss("a", engine, network)
        engine.run_until(42.0)
        assert a.usage_horizons() == {"a": 42.0}
        assert a.usage_staleness() == {"a": 0.0}

    def test_delta_advances_remote_horizon(self, engine, network):
        a, b = self.pair(engine, network)
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(11.0)
        # a's t=10 delta (stamped horizon=10.0) arrived at 10.1
        assert b.usage_horizons()["a"] == pytest.approx(10.0)
        assert b.usage_staleness()["a"] == pytest.approx(1.0)

    def test_heartbeats_keep_idle_horizon_advancing(self, engine, network):
        a, b = self.pair(engine, network)
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(51.0)
        # a went idle after t=10, but its heartbeats carry fresh horizons:
        # b's watermark follows the t=50 heartbeat, not the last delta
        assert b.usage_horizons()["a"] == pytest.approx(50.0)

    def test_horizon_stalls_across_partition(self, engine, network):
        a, b = self.pair(engine, network)
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(15.0)
        network.partition("uss:a", "uss:b")
        a.record_job(record(user="alice", start=100.0, end=200.0))
        engine.run_until(45.0)
        # nothing got through: the horizon is frozen at the last delivery
        assert b.usage_horizons()["a"] == pytest.approx(10.0)
        assert b.usage_staleness()["a"] == pytest.approx(35.0)

    def test_resync_restores_horizon_after_heal(self, engine, network):
        a, b = self.pair(engine, network)
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(15.0)
        network.partition("uss:a", "uss:b")
        a.record_job(record(user="alice", start=100.0, end=200.0))
        engine.run_until(35.0)  # the seq=3 delta is lost
        network.heal("uss:a", "uss:b")
        engine.run_until(55.0)  # heartbeat exposes the gap -> full resync
        assert b.resyncs_requested >= 1
        # the resync reply is a fresh full snapshot: horizon jumps forward
        assert b.usage_horizons()["a"] >= 40.0
        assert b.remote["a"].total("alice") == pytest.approx(200.0)

    def test_gap_does_not_advance_horizon(self, engine, network):
        """A message that is *not applied* must not move the watermark."""
        b = make_uss("b", engine, network)
        b._on_message(UsageDeltaMessage(
            site="a", sent_at=0.0, interval=60.0, seq=1, full=True,
            user_table=["u"], user_idx=[0], bin_idx=[0], charges=[10.0],
            horizon=5.0))
        assert b.usage_horizons()["a"] == pytest.approx(5.0)
        # seq jumps 1 -> 5: gap detected, delta rejected, resync requested
        b._on_message(UsageDeltaMessage(
            site="a", sent_at=20.0, interval=60.0, seq=5, full=False,
            user_table=["u"], user_idx=[0], bin_idx=[0], charges=[99.0],
            horizon=20.0))
        assert b.usage_horizons()["a"] == pytest.approx(5.0)
        assert b.resyncs_requested == 1

    def test_legacy_full_snapshots_carry_horizons(self, engine, network):
        """Full snapshots are stamped like deltas: a late joiner's resync
        reply carries the horizon of the moment it was served, not of the
        sender's original first publish."""
        a = make_uss("a", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(25.0)  # full seq=1 at t=0 went nowhere
        b = make_uss("b", engine, network)
        engine.run_until(31.0)  # t=30 heartbeat -> resync -> full reply
        assert b.resyncs_requested == 1
        assert b.remote["a"].snapshot() == a.local.snapshot()
        # heartbeat lands 30.1, request lands 30.2: that is when a served it
        assert b.usage_horizons()["a"] == pytest.approx(30.2)

    def test_staleness_histogram_exported(self, engine, network):
        from repro.obs.export import render

        a, b = self.pair(engine, network)
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(25.0)
        text = render(b.registry)
        assert "aequus_usage_staleness_seconds" in text
        assert 'origin="a"' in text


class TestDaemonRestartResync:
    """A USS that restarts loses its sequence space; peers must repair via
    resync instead of silently stale-dropping every post-restart exchange."""

    def test_restarted_peer_full_snapshot_accepted(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(2.0)   # t=0 tick: full seq=1 delivered
        a.record_job(record(user="alice", start=100.0, end=400.0))
        engine.run_until(12.0)  # t=10 tick: delta seq=2 delivered
        assert b._recv_seq["a"] == 2
        # "a" restarts: new instance, fresh seq space, reset clock histogram
        a.stop()
        a2 = make_uss("a", engine, network)
        a2.add_peer("b")
        a2.record_job(record(user="alice", end=50.0))
        engine.run_until(22.0)  # restarted a's first publish: full seq=1
        # without boot-id detection this full (seq=1 < last=2) was dropped
        assert b.peer_restarts == 1
        assert b._recv_seq["a"] == 1
        assert b.remote["a"].total("alice") == pytest.approx(50.0)
        assert b.exchanges_stale == 0

    def test_restarted_peer_delta_triggers_resync(self, engine, network):
        b = make_uss("b", engine, network)
        # first incarnation: full seq=1 then delta seq=2, both applied
        b._on_message(UsageDeltaMessage(
            site="a", sent_at=5.0, interval=60.0, seq=1, full=True,
            user_table=["u"], user_idx=[0], bin_idx=[0], charges=[10.0],
            boot="boot-1"))
        b._on_message(UsageDeltaMessage(
            site="a", sent_at=15.0, interval=60.0, seq=2, full=False,
            user_table=["u"], user_idx=[0], bin_idx=[0], charges=[20.0],
            boot="boot-1"))
        assert b._recv_seq["a"] == 2
        # second incarnation announces itself with a non-full delta whose
        # seq would read as stale against the dead incarnation's cursor
        b._on_message(UsageDeltaMessage(
            site="a", sent_at=1.0, interval=60.0, seq=2, full=False,
            user_table=["u"], user_idx=[0], bin_idx=[0], charges=[7.0],
            boot="boot-2"))
        assert b.peer_restarts == 1
        # not applied (gap from the fresh cursor), resync requested instead
        assert b.remote["a"].total("u") == pytest.approx(20.0)
        assert b.resyncs_requested == 1
        assert b.exchanges_stale == 0

    def test_restart_resync_round_trip_repairs_state(self, engine, network):
        a = make_uss("a", engine, network)
        b = make_uss("b", engine, network)
        a.add_peer("b")
        b.add_peer("a")
        a.record_job(record(user="alice", end=100.0))
        engine.run_until(12.0)
        assert b.remote["a"].total("alice") == pytest.approx(100.0)
        a.stop()
        a2 = make_uss("a", engine, network)
        a2.add_peer("b")
        # advance past the first tick (full seq=1, applied via boot change),
        # then let a2 churn and heartbeat so the protocol keeps flowing
        a2.record_job(record(user="bob", end=30.0))
        engine.run_until(42.0)
        # b's copy of "a" is exactly the new incarnation's state: the old
        # alice usage is gone (full snapshots drop unlisted entries)
        assert b.remote["a"].total("bob") == pytest.approx(30.0)
        assert b.remote["a"].total("alice") == pytest.approx(0.0)
        # and the restarted site pulled b's state the normal late-join way
        assert a2.known_sites() == ["a", "b"]

    def test_same_incarnation_stale_drops_still_work(self, engine, network):
        b = make_uss("b", engine, network)
        b._on_message(UsageDeltaMessage(
            site="a", sent_at=5.0, interval=60.0, seq=1, full=True,
            user_table=["u"], user_idx=[0], bin_idx=[0], charges=[10.0],
            boot="boot-1"))
        b._on_message(UsageDeltaMessage(
            site="a", sent_at=15.0, interval=60.0, seq=2, full=False,
            user_table=["u"], user_idx=[0], bin_idx=[0], charges=[20.0],
            boot="boot-1"))
        # reordered duplicate from the SAME incarnation: still stale-dropped
        b._on_message(UsageDeltaMessage(
            site="a", sent_at=10.0, interval=60.0, seq=2, full=False,
            user_table=["u"], user_idx=[0], bin_idx=[0], charges=[15.0],
            boot="boot-1"))
        assert b.exchanges_stale == 1
        assert b.peer_restarts == 0
        assert b.remote["a"].total("u") == pytest.approx(20.0)

    def test_stop_disconnects_endpoint(self, engine, network):
        a = make_uss("a", engine, network)
        assert "uss:a" in network.endpoints()
        a.stop()
        assert "uss:a" not in network.endpoints()
        a.stop()  # idempotent
