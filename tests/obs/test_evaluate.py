"""Unit tests for the fairness-quality recorder, the convergence measure
and the report renderers."""

import math

import pytest

from repro.core.policy import PolicyTree
from repro.core.usage import UsageRecord
from repro.obs.evaluate import (FairnessRecorder, convergence_time,
                                cross_site_divergence, distance_stats,
                                parse_exposition, render_report,
                                report_from_daemon)
from repro.obs.timeseries import RingSeries, SeriesStore
from repro.services.network import Network
from repro.services.site import AequusSite, SiteConfig, connect_sites
from repro.sim.engine import SimulationEngine


def make_sites(n=2, latency=0.1, exchange=10.0):
    engine = SimulationEngine()
    network = Network(engine, base_latency=latency)
    policy = PolicyTree.from_dict({"p": {"a": 1, "b": 1, "c": 2}})
    config = SiteConfig(histogram_interval=60.0,
                        uss_exchange_interval=exchange,
                        ums_refresh_interval=exchange,
                        fcs_refresh_interval=exchange)
    sites = [AequusSite(f"s{i}", engine, network, policy=policy,
                        config=config) for i in range(n)]
    connect_sites(sites)
    return engine, sites


class TestDistanceStats:
    def test_zero_distance_when_usage_matches_policy(self):
        engine, (site,) = make_sites(1)
        # usage proportional to target shares: a=1, b=1, c=2
        for user, hours in (("a", 1.0), ("b", 1.0), ("c", 2.0)):
            site.uss.record_job(UsageRecord(user=user, site="s0", start=0.0,
                                            end=3600.0 * hours))
        engine.run_until(25.0)
        stats = distance_stats(site.fcs.flat_result())
        assert stats["max"] == pytest.approx(0.0, abs=1e-9)

    def test_skew_increases_distance(self):
        engine, (site,) = make_sites(1)
        site.uss.record_job(UsageRecord(user="a", site="s0",
                                        start=0.0, end=3600.0))
        engine.run_until(25.0)
        stats = distance_stats(site.fcs.flat_result())
        assert stats["max"] > 0.2
        assert 0.0 < stats["mean"] <= stats["max"]

    def test_empty_result(self):
        assert distance_stats(None) == {"mean": 0.0, "max": 0.0}


class TestCrossSiteDivergence:
    def test_identical_maps_diverge_zero(self):
        worst, users = cross_site_divergence(
            [{"a": 0.5, "b": 0.2}, {"a": 0.5, "b": 0.2}])
        assert worst == 0.0 and users == 2

    def test_aligned_fast_path(self):
        worst, users = cross_site_divergence(
            [{"a": 0.5, "b": 0.2}, {"a": 0.1, "b": 0.25}])
        assert worst == pytest.approx(0.4) and users == 2

    def test_ragged_maps_fall_back(self):
        worst, users = cross_site_divergence(
            [{"a": 0.5, "b": 0.2}, {"b": 0.3, "c": 0.9}])
        assert worst == pytest.approx(0.1)
        assert users == 1  # only b is shared

    def test_fewer_than_two_sites(self):
        assert cross_site_divergence([]) == (0.0, 0)
        assert cross_site_divergence([{"a": 0.5}]) == (0.0, 0)
        assert cross_site_divergence([{"a": 0.5}, {}]) == (0.0, 0)


#: (values sampled 1 s apart, hold, expected convergence_time at 0.02)
CONVERGENCE_CASES = {
    "simple": ([0.5, 0.3, 0.1, 0.05, 0.01, 0.01, 0.01], 0.0, 4.0),
    "transient_dip_then_rise": ([0.5, 0.01, 0.5, 0.01, 0.01], 0.0, 3.0),
    "never": ([0.5, 0.4, 0.3], 0.0, None),
    "hold_not_met": ([0.5, 0.01, 0.01], 10.0, None),
    "hold_met": ([0.5, 0.01, 0.01], 1.0, 1.0),
    "from_start": ([0.001, 0.001], 0.0, 0.0),
    "nan_counts_as_not_below": ([0.5, 0.01, math.nan, 0.01, 0.01], 0.0, 3.0),
    "final_run_lasts_exactly_hold": ([0.5, 0.01, 0.01, 0.01], 2.0, 1.0),
}


class TestConvergenceTime:
    @pytest.mark.parametrize("values,hold,expected",
                             list(CONVERGENCE_CASES.values()),
                             ids=list(CONVERGENCE_CASES))
    def test_convergence_time(self, values, hold, expected):
        s = RingSeries("dev", capacity=None)
        for i, v in enumerate(values):
            s.append(float(i), v)
        assert convergence_time(s, threshold=0.02, hold=hold) == expected


class TestFairnessRecorder:
    def test_periodic_sampling_populates_all_series(self):
        engine, sites = make_sites(2)
        rec = FairnessRecorder(sites, interval=10.0)
        rec.attach(engine)
        sites[0].uss.record_job(UsageRecord(user="a", site="s0",
                                            start=0.0, end=3600.0))
        engine.run_for(100.0)
        assert rec.samples == 10
        names = set(rec.store.names())
        for site in ("s0", "s1"):
            assert f"distance_mean/{site}" in names
            assert f"distance_max/{site}" in names
        assert "divergence_max" in names and "divergence_users" in names
        assert rec.store.names(prefix="staleness/s0/")  # remote horizons
        assert rec.divergence().last()[1] == pytest.approx(0.0)
        assert "staleness/s0/s1" in names

    def test_single_site_skips_divergence(self):
        engine, sites = make_sites(1)
        rec = FairnessRecorder(sites, interval=10.0)
        rec.attach(engine)
        engine.run_for(30.0)
        assert rec.divergence() is None
        assert rec.samples == 3

    def test_divergence_spikes_then_converges(self):
        engine, sites = make_sites(2)
        rec = FairnessRecorder(sites, interval=5.0)
        rec.attach(engine)
        engine.run_for(50.0)
        # a large one-sided burst: sites disagree until it propagates
        sites[0].uss.record_job(UsageRecord(user="a", site="s0",
                                            start=50.0, end=30_000.0))
        engine.run_for(100.0)
        div = rec.divergence()
        assert div.max() > 0.05
        assert div.last()[1] == pytest.approx(0.0, abs=1e-9)
        converged = convergence_time(div, threshold=0.01)
        assert converged is not None and converged > 50.0

    def test_stop_cancels_sampling(self):
        engine, sites = make_sites(1)
        rec = FairnessRecorder(sites, interval=10.0)
        task = rec.attach(engine)
        assert rec.attach(engine) is task  # idempotent
        engine.run_for(20.0)
        rec.stop()
        engine.run_for(50.0)
        assert rec.samples == 2

    def test_needs_at_least_one_site(self):
        with pytest.raises(ValueError):
            FairnessRecorder([])

    def test_disabled_recorder_is_quiet(self):
        engine, sites = make_sites(1)
        rec = FairnessRecorder(sites, interval=10.0, enabled=False)
        rec.attach(engine)
        engine.run_for(50.0)
        assert rec.samples == 0
        assert len(rec.store) == 0

    def test_kill_switch_snapshot_at_construction(self):
        """Like registries, the recorder freezes the global observability
        flag at construction: built under REPRO_OBS_DISABLED it stays
        quiet even though it is attached and ticking."""
        from repro import obs

        engine, sites = make_sites(1)
        previous = obs.default_enabled()
        obs.set_enabled(False)
        try:
            rec = FairnessRecorder(sites, interval=10.0)
        finally:
            obs.set_enabled(previous)
        rec.attach(engine)
        engine.run_for(30.0)
        assert rec.samples == 0


#: ``render_report`` of the store built in ``test_golden_report``
GOLDEN_REPORT = """\
# Golden

Window: t=0 .. t=180 (virtual seconds, ring-bounded)

## Policy-vs-usage distance

| series | last | mean | max | samples |
|---|---|---|---|---|
| distance_mean/s0 | 0.3 | 0.2 | 0.3 | 3 |

## Usage staleness (seconds behind origin)

| series | last | mean | max | samples |
|---|---|---|---|---|
| staleness/s0/s1 | 12.5 | 14.1667 | 30 | 3 |

## Cross-site divergence

| series | last | mean | max | samples |
|---|---|---|---|---|
| divergence_max | 0.25 | 0.1252 | 0.25 | 2 |

## Fleet gauges

| series | last | mean | max | samples |
|---|---|---|---|---|
| fleet/qps | 2.500e+03 | 2.000e+03 | 2.500e+03 | 2 |

## Worst remote staleness per site

| series | last | mean | max | samples |
|---|---|---|---|---|
| staleness_max/s0 | 7 | 7 | 7 | 1 |

## Serve throughput per site

| series | last | mean | max | samples |
|---|---|---|---|---|
| qps/s0 | 0.6667 | 0.5 | 0.6667 | 2 |

## Exchange frame backlog per link (bytes)

| series | last | mean | max | samples |
|---|---|---|---|---|
| frame_backlog/s0->s1 | 4.096e+03 | 2.048e+03 | 4.096e+03 | 2 |

## Daemon liveness

| series | last | mean | max | samples |
|---|---|---|---|---|
| up/s0 | 0 | 0.5 | 1 | 2 |

## Other series

| series | last | mean | max | samples |
|---|---|---|---|---|
| share_deviation | 0.011 | 0.037 | 0.07 | 3 |
"""


class TestRenderReport:
    def test_empty_store(self):
        text = render_report(SeriesStore())
        assert "no samples recorded" in text

    def test_sections_and_rows(self):
        store = SeriesStore()
        store.sample("distance_mean/s0", 10.0, 0.25)
        store.sample("staleness/s0/s1", 10.0, 30.0)
        store.sample("divergence_max", 10.0, 0.0)
        store.sample("custom_series", 10.0, 1.0)
        text = render_report(store, title="T")
        assert text.startswith("# T")
        assert "## Policy-vs-usage distance" in text
        assert "## Usage staleness" in text
        assert "## Cross-site divergence" in text
        assert "## Other series" in text
        assert "| distance_mean/s0 | 0.25 |" in text

    def test_golden_report(self):
        """One series per report section plus a paper series, rendered
        byte for byte (section order, ``_fmt`` branches, mean arithmetic)."""
        samples = {
            "distance_mean/s0": [(0.0, 0.1), (30.0, 0.2), (60.0, 0.3)],
            "staleness/s0/s1": [(0.0, 30.0), (30.0, 0.0), (60.0, 12.5)],
            "divergence_max": [(10.0, 0.0004), (40.0, 0.25)],
            "fleet/qps": [(5.0, 1500.0), (35.0, 2500.0)],
            "staleness_max/s0": [(5.0, 7.0)],
            "qps/s0": [(5.0, 1.0 / 3.0), (35.0, 2.0 / 3.0)],
            "frame_backlog/s0->s1": [(5.0, 0.0), (35.0, 4096.0)],
            "up/s0": [(5.0, 1.0), (35.0, 0.0)],
            "share_deviation": [(60.0, 0.07), (120.0, 0.03), (180.0, 0.011)],
        }
        store = SeriesStore()
        for name, rows in samples.items():
            for t, v in rows:
                store.sample(name, t, v)
        assert render_report(store, title="Golden") == GOLDEN_REPORT


class TestExpositionParsing:
    TEXT = """# HELP aequus_snapshot_staleness_seconds x
# TYPE aequus_snapshot_staleness_seconds histogram
aequus_snapshot_staleness_seconds_bucket{origin="s1",le="30.0"} 8
aequus_snapshot_staleness_seconds_bucket{origin="s1",le="60.0"} 10
aequus_snapshot_staleness_seconds_bucket{origin="s1",le="+Inf"} 10
aequus_snapshot_staleness_seconds_count{origin="s1"} 10
aequus_snapshot_staleness_seconds_sum{origin="s1"} 250.0
plain_counter 42
"""

    def test_parse_exposition(self):
        samples = parse_exposition(self.TEXT)
        assert ("plain_counter", {}, 42.0) in samples
        buckets = [s for s in samples
                   if s[0] == "aequus_snapshot_staleness_seconds_bucket"]
        assert len(buckets) == 3
        assert buckets[0][1] == {"origin": "s1", "le": "30.0"}

    def test_parse_escaped_label_values(self):
        samples = parse_exposition(
            'm{k="a\\"b\\nc"} 1.0\n')
        assert samples == [("m", {"k": 'a"b\nc'}, 1.0)]

    def test_report_from_daemon(self):
        info = {
            "site": "s0", "time": 120.0, "refresh_interval": 30.0,
            "usage_horizons": {
                "s1": {"horizon": 90.0, "staleness": 30.0},
                "s0": {"horizon": 120.0, "staleness": 0.0},
            },
        }
        text = report_from_daemon(info, self.TEXT)
        assert "site s0" in text
        assert "| s1 | 90 | 30 |" in text
        assert "## Snapshot staleness distribution" in text
        assert "| s1 | 10 | 25 | 60 |" in text  # count / mean / p99 bucket

    def test_report_from_daemon_empty(self):
        text = report_from_daemon({"site": "x"}, "")
        assert "no per-origin horizons" in text
        assert "no staleness observations" in text
