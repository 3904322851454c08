"""Pure-logic tests for experiment result objects (no simulation)."""

import pytest

from repro.experiments.common import ScenarioResult, TestbedConfig
from repro.experiments.policy_change import PolicyChangeResult
from repro.experiments.scenarios import UpdateDelayComparison
from repro.obs.timeseries import SeriesStore


def fake_result(span: float, decayed_conv: float) -> ScenarioResult:
    return ScenarioResult(
        name="fake", config=TestbedConfig(span=span),
        metrics=SeriesStore(capacity=None), targets={},
        jobs_submitted=10, jobs_completed=10, final_shares={},
        mean_utilization=0.9, throughput_per_minute=100.0,
        peak_submission_rate=200.0, convergence_seconds=None,
        decayed_convergence_seconds=decayed_conv)


class TestUpdateDelayComparison:
    def test_fractions_and_improvement(self):
        cmp = UpdateDelayComparison(
            baseline=fake_result(1000.0, 200.0),
            scaled=fake_result(10_000.0, 1700.0),
            time_scale=10.0)
        assert cmp.baseline_fraction == pytest.approx(0.2)
        assert cmp.scaled_fraction == pytest.approx(0.17)
        assert cmp.improvement == pytest.approx(0.15)

    def test_unconverged_gives_none(self):
        cmp = UpdateDelayComparison(
            baseline=fake_result(1000.0, None),
            scaled=fake_result(10_000.0, 1700.0),
            time_scale=10.0)
        assert cmp.baseline_fraction is None
        assert cmp.improvement is None

    def test_zero_baseline_fraction_guarded(self):
        cmp = UpdateDelayComparison(
            baseline=fake_result(1000.0, 0.0),
            scaled=fake_result(10_000.0, 500.0),
            time_scale=10.0)
        assert cmp.improvement is None


class TestPolicyChangeResult:
    def _result(self):
        return PolicyChangeResult(
            switch_time=100.0, span=200.0,
            priorities_before={"U65": 0.3, "U30": 0.25},
            priorities_after={"U65": 0.15, "U30": 0.5},
            deviation_times=[0.0, 50.0, 100.0, 150.0, 200.0],
            deviation_values=[0.2, 0.2, 0.18, 0.1, 0.05],
            shares_at_switch={"U65": 0.6, "U30": 0.3},
            shares_at_end={"U65": 0.5, "U30": 0.4},
            jobs_completed=42)

    def test_deviation_at_switch(self):
        assert self._result().deviation_at_switch() == 0.18

    def test_final_deviation(self):
        assert self._result().final_deviation() == 0.05

    def test_rows_include_priorities_and_shares(self):
        text = "\n".join(self._result().rows())
        assert "0.300 -> 0.150" in text
        assert "decayed share 0.600 -> 0.500" in text
        assert "deviation vs new targets" in text
