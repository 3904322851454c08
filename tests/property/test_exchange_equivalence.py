"""Property: after quiescence the usage data plane is an exact mirror.

One grid runs a randomly generated world — a random job record schedule
on a jitter-free network, a randomly placed partition/heal window between
a site pair, and in the second case a site that restarts mid-run (new
USS incarnation: fresh ``boot_id``, sequence space back at 1, local
history gone).  Once traffic has quiesced, two references that share nothing
with the protocol state under test must agree with it:

* **the sender itself** — for every ordered site pair,
  ``b.remote[a].snapshot() == a.local.snapshot()``, exactly (bin values
  travel as absolute floats; nothing is re-derived on the way);
* **a cold start** — each site's long-lived incrementally refreshed UMS
  serves, at 1e-9, the totals of a UMS constructed at that instant over
  the same USS (``tests/conftest.py::cold_start``).

This covers the whole protocol surface: full first publish, content
deltas, heartbeats, stale-message drops, the partition-gap resync path
and boot-id restart detection.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import ExponentialDecay
from repro.core.usage import UsageRecord
from repro.services.network import Network
from repro.services.ums import UsageMonitoringService
from repro.services.uss import UsageStatisticsService
from repro.sim.engine import SimulationEngine

from ..conftest import cold_start

N_SITES = 3
EXCHANGE_INTERVAL = 10.0
HISTOGRAM_INTERVAL = 60.0
END_TIME = 200.0

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),            # user
        st.integers(min_value=0, max_value=N_SITES - 1),  # site
        st.floats(min_value=0.0, max_value=150.0,         # submit time
                  allow_nan=False),
        st.floats(min_value=1.0, max_value=300.0,         # duration
                  allow_nan=False)),
    min_size=1, max_size=25)

# a partition window [t_cut, t_cut + length) between sites 0 and 1; it
# heals by t=180, leaving two exchange ticks for heartbeat -> resync
partitions = st.tuples(
    st.floats(min_value=5.0, max_value=120.0, allow_nan=False),
    st.floats(min_value=5.0, max_value=60.0, allow_nan=False))

# when site 2 restarts: possibly inside the partition window
restarts = st.floats(min_value=5.0, max_value=150.0, allow_nan=False)


class World:
    """N fully meshed sites (USS + UMS each) on one engine."""

    def __init__(self):
        self.engine = SimulationEngine()
        self.network = Network(self.engine, base_latency=0.1)
        self.usses = [None] * N_SITES
        self.umses = [None] * N_SITES
        for i in range(N_SITES):
            self.boot(i)

    def boot(self, i):
        """(Re)start site ``i``'s stack, as a daemon restart would."""
        if self.usses[i] is not None:
            self.umses[i].stop()
            self.usses[i].stop()
        # re-phase onto the common tick so every site refreshes at END_TIME
        phase = -self.engine.now % EXCHANGE_INTERVAL
        uss = UsageStatisticsService(
            f"s{i}", self.engine, self.network,
            histogram_interval=HISTOGRAM_INTERVAL,
            exchange_interval=EXCHANGE_INTERVAL, start_offset=phase)
        for j in range(N_SITES):
            if j != i:
                uss.add_peer(f"s{j}")
        self.usses[i] = uss
        self.umses[i] = UsageMonitoringService(
            f"s{i}", self.engine, sources=[uss],
            decay=ExponentialDecay(half_life=3600.0),
            refresh_interval=EXCHANGE_INTERVAL, start_offset=phase)

    def run(self, recs, partition_window, restart_at):
        engine, network = self.engine, self.network
        for user, site, submit, duration in recs:
            # looked up at fire time: a restarted site records into its
            # new incarnation
            engine.schedule_at(
                submit,
                lambda u=user, s=site, t=submit, d=duration:
                self.usses[s].record_job(UsageRecord(
                    user=f"u{u}", site=f"s{s}", start=t, end=t + d)))
        t_cut, length = partition_window
        engine.schedule_at(t_cut,
                           lambda: network.partition("uss:s0", "uss:s1"))
        engine.schedule_at(t_cut + length,
                           lambda: network.heal("uss:s0", "uss:s1"))
        if restart_at is not None:
            engine.schedule_at(restart_at, lambda: self.boot(2))
        engine.run_until(END_TIME)

    def assert_mirrors_and_cold_totals(self):
        for a in self.usses:
            for b in self.usses:
                if a is not b:
                    assert b.remote[a.site].snapshot() \
                        == a.local.snapshot(), f"{a.site} at {b.site}"
        for ums in self.umses:
            got = ums.usage_totals()
            with cold_start(ums) as (cold, _):
                want = cold.usage_totals()
            assert set(got) == set(want), ums.site
            for user in want:
                assert got[user] == pytest.approx(
                    want[user], rel=1e-9, abs=1e-9), f"{ums.site}/{user}"


class TestDataPlaneEquivalence:
    @given(records, partitions)
    @settings(max_examples=25, deadline=None)
    def test_totals_match_reference_including_partition_heal(
            self, recs, partition_window):
        world = World()
        world.run(recs, partition_window, restart_at=None)
        world.assert_mirrors_and_cold_totals()
        assert all(uss.peer_restarts == 0 for uss in world.usses)

    @given(records, partitions, restarts)
    @settings(max_examples=25, deadline=None)
    def test_sender_restart_converges_to_the_same_mirror(
            self, recs, partition_window, restart_at):
        world = World()
        old_boot = world.usses[2].boot_id
        world.run(recs, partition_window, restart_at)
        world.assert_mirrors_and_cold_totals()
        reborn = world.usses[2]
        assert reborn.boot_id != old_boot
        for peer in world.usses[:2]:
            assert peer.peer_restarts == 1
            assert peer._recv_boot["s2"] == reborn.boot_id
            # following the new incarnation's sequence space, from 1:
            # it cannot have published more often than it has ticked
            assert peer._recv_seq["s2"] == reborn._seq \
                <= (END_TIME - restart_at) / EXCHANGE_INTERVAL + 1
