import math

import pytest

from bench.live import GOLDEN, phase_sweep, stratified_schedule


@pytest.mark.parametrize("n, spacing, period", [
    (64, 1.25, 0.5),     # the issue's shape: sparser than the tick
    (95, 0.05, 0.5),     # grid_live: ten reports per exchange tick
    (70, 0.05, 1.0),     # serve_mixed
])
class TestStratifiedSchedule:
    def test_in_time_order_and_complete(self, n, spacing, period):
        due = stratified_schedule(n, spacing, period)
        assert len(due) == n and due == sorted(due)

    def test_each_report_is_due_within_one_tick_of_its_slot(self, n, spacing,
                                                            period):
        due = sorted(stratified_schedule(n, spacing, period))
        # the multiset of slots is {i * spacing}; matching in time order
        # cannot do worse than the per-report guarantee of < one period
        assert due[0] >= 0.0
        assert due[-1] < (n - 1) * spacing + period + 1e-9

    def test_phases_are_the_golden_rotation(self, n, spacing, period):
        phases = sorted((d / period) % 1.0
                        for d in stratified_schedule(n, spacing, period))
        expected = sorted((i * GOLDEN) % 1.0 for i in range(n))
        assert phases == pytest.approx(expected, abs=1e-9)

    def test_every_prefix_covers_the_tick_phase_evenly(self, n, spacing,
                                                       period):
        # three-gap theorem: n golden-rotation points leave no phase gap
        # wider than ~2.62/n, where n random points leave ~ln(n)/n
        phases = sorted((i * GOLDEN) % 1.0 for i in range(n))
        gaps = [b - a for a, b in zip(phases, phases[1:])]
        gaps.append(1.0 - phases[-1] + phases[0])
        assert max(gaps) < 2.7 / n


def test_alternating_directions_each_stay_stratified():
    # grid_live alternates origin per report: each direction still sees
    # an even spread of exchange phases
    due = stratified_schedule(96, 0.05, 0.5)
    for parity in (0, 1):
        phases = sorted((d / 0.5) % 1.0 for d in due[parity::2])
        gaps = [b - a for a, b in zip(phases, phases[1:])]
        gaps.append(1.0 - phases[-1] + phases[0])
        assert max(gaps) < 6.0 / len(phases)


def test_phase_sweep_is_the_beat_period_of_the_two_tick_trains():
    # grid_live: 0.5 s exchange against 0.45 s refresh drift through every
    # relative phase in 4.5 s (ten refreshes, nine exchanges)
    assert phase_sweep(0.5, 0.45) == 4.5
    assert phase_sweep(0.45, 0.5) == 4.5
    # equal periods never change phase: nothing to cut the window to
    assert phase_sweep(1.0, 1.0) == math.inf
