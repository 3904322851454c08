"""Integration: scaled-down versions of the paper's evaluation scenarios.

The benchmarks run the paper-scale configurations; these tests assert the
same qualitative findings at a size that keeps the suite fast.
"""

import pytest

from repro.experiments.scenarios import (
    baseline,
    bursty,
    non_optimal_policy,
    partial_participation,
)
from repro.obs.evaluate import render_report
from repro.obs.timeseries import SeriesStore
from repro.workload.reference import BURSTY_USAGE_SHARES, GRID_IDENTITIES, USAGE_SHARES

SMALL = dict(n_jobs=4000, span=3600.0, n_sites=2, hosts_per_site=20, seed=3)


@pytest.fixture(scope="module")
def baseline_result():
    return baseline(**SMALL)


class TestBaseline:
    def test_all_jobs_dispatch(self, baseline_result):
        assert baseline_result.jobs_submitted == SMALL["n_jobs"]

    def test_most_jobs_complete(self, baseline_result):
        assert baseline_result.jobs_completed > 0.9 * SMALL["n_jobs"]

    def test_utilization_near_target(self, baseline_result):
        # paper: 93%-97% (our window includes ramp-up, hence the wider floor)
        tail = baseline_result.series("utilization").tail_mean(0.5)
        assert 0.85 <= tail <= 1.0

    def test_shares_converge_to_targets(self, baseline_result):
        final_dev = baseline_result.series("share_deviation").values[-1]
        assert final_dev < 0.03
        assert baseline_result.convergence_seconds is not None

    def test_final_shares_close_per_user(self, baseline_result):
        for user, target in USAGE_SHARES.items():
            got = baseline_result.final_shares[GRID_IDENTITIES[user]]
            assert got == pytest.approx(target, abs=0.05)

    def test_priorities_respond_to_usage(self, baseline_result):
        series = baseline_result.priority_series(GRID_IDENTITIES["U65"])
        assert max(series.values) - min(series.values) > 0.1

    def test_deviation_decreases_over_run(self, baseline_result):
        dev = baseline_result.series("share_deviation")
        early = dev.values[1]
        late = dev.tail_mean(0.25)
        assert late < early


class TestPaperRunThroughLiveReport:
    """A paper run's series are the daemon's series: they export, reload
    and render through the same report as a recorded daemon."""

    def test_metrics_round_trip_and_render(self, baseline_result, tmp_path):
        path = str(tmp_path / "baseline.jsonl")
        baseline_result.metrics.to_jsonl(path)
        loaded = SeriesStore.from_jsonl(path, capacity=None)
        site = baseline_result.config.site_names()[0]
        priority = f"priority/{site}/{GRID_IDENTITIES['U65']}"
        for name in ("share_deviation", priority):
            original = baseline_result.metrics[name]
            assert len(original) > 1
            assert loaded[name].times == original.times
            assert loaded[name].values == original.values
        report = render_report(loaded)
        assert "| share_deviation |" in report
        assert f"| {priority} |" in report


class TestNonOptimalPolicy:
    def test_system_keeps_running_despite_mismatch(self):
        result = non_optimal_policy(**SMALL)
        assert result.jobs_completed > 0.9 * SMALL["n_jobs"]
        # usage cannot converge to an unreachable 70/20/8/2 policy;
        # utilization must be preserved by running available (low-priority)
        # jobs anyway — the Figure 12 finding
        tail_util = result.series("utilization").tail_mean(0.5)
        assert tail_util > 0.8

    def test_underserved_u3_keeps_high_priority(self):
        result = non_optimal_policy(**SMALL)
        # U3's 8% target is far above its 2.86% usage: priority stays high
        u3 = result.priority_series(GRID_IDENTITIES["U3"]).tail_mean(0.3)
        u30 = result.priority_series(GRID_IDENTITIES["U30"]).tail_mean(0.3)
        assert u3 > u30


class TestPartialParticipation:
    @pytest.fixture(scope="class")
    def outcome(self):
        return partial_participation(n_jobs=4000, span=3600.0, n_sites=4,
                                     hosts_per_site=10, seed=3)

    def test_read_only_site_well_aligned(self, outcome):
        """Paper: priority on the site reading global data remains well
        aligned with the priority of fully participating sites."""
        for dn in GRID_IDENTITIES.values():
            assert outcome.priority_alignment(dn, outcome.read_only_site) < 0.08

    def test_local_only_less_aligned_than_read_only(self, outcome):
        gaps_ro = [outcome.priority_alignment(dn, outcome.read_only_site)
                   for dn in GRID_IDENTITIES.values()]
        gaps_lo = [outcome.priority_alignment(dn, outcome.local_only_site)
                   for dn in GRID_IDENTITIES.values()]
        assert sum(gaps_lo) > sum(gaps_ro)

    def test_global_convergence_not_noticeably_impacted(self, outcome):
        assert outcome.result.series("share_deviation").values[-1] < 0.05


class TestBursty:
    @pytest.fixture(scope="class")
    def result(self):
        return bursty(**SMALL)

    def test_u3_priority_bounded_by_k_formula(self, result):
        """Figure 13b: k=0.5 and U3 share 0.12 bound priority at 0.56."""
        series = result.priority_series(GRID_IDENTITIES["U3"])
        assert max(series.values) <= 0.56 + 1e-6

    def test_u3_priority_reaches_near_maximum_before_burst(self, result):
        span = result.config.span
        series = result.priority_series(GRID_IDENTITIES["U3"])
        pre_burst = [v for t, v in zip(series.times, series.values)
                     if t < span / 3]
        assert max(pre_burst) > 0.5  # unused allocation: near the 0.56 cap

    def test_system_readjusts_after_burst(self, result):
        """After the burst lands, U3's priority must fall from the cap."""
        span = result.config.span
        series = result.priority_series(GRID_IDENTITIES["U3"])
        post = [v for t, v in zip(series.times, series.values) if t > 0.7 * span]
        assert min(post) < 0.45

    def test_final_shares_approach_bursty_targets(self, result):
        for user, target in BURSTY_USAGE_SHARES.items():
            got = result.final_shares[GRID_IDENTITIES[user]]
            assert got == pytest.approx(target, abs=0.08)
