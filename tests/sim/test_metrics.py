"""The series plane as the simulation experiments use it: an unbounded
store, step reads and tail means over its series, and share deviation.

The experiments keep every sample of a run (``SeriesStore(capacity=None)``,
``ScenarioResult.metrics``); the paper drivers read it back through
:meth:`RingSeries.at` and :meth:`RingSeries.tail_mean`.
"""

import pytest

from repro.obs.evaluate import share_deviation
from repro.obs.timeseries import RingSeries, SeriesStore


class TestTimeSeries:
    def test_record_and_length(self):
        ts = RingSeries("x", capacity=None)
        ts.append(0.0, 1.0)
        ts.append(1.0, 2.0)
        assert len(ts) == 2

    def test_time_must_not_go_backwards(self):
        ts = RingSeries("x", capacity=None)
        ts.append(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(4.0, 1.0)

    def test_at_step_interpolation(self):
        ts = RingSeries("x", capacity=None)
        ts.append(0.0, 10.0)
        ts.append(10.0, 20.0)
        assert ts.at(5.0) == 10.0
        assert ts.at(10.0) == 20.0
        assert ts.at(100.0) == 20.0

    def test_at_before_first_sample(self):
        ts = RingSeries("x", capacity=None)
        ts.append(10.0, 5.0)
        assert ts.at(0.0) == 5.0

    def test_at_empty_raises(self):
        with pytest.raises(ValueError):
            RingSeries("x", capacity=None).at(0.0)

    def test_tail_mean(self):
        ts = RingSeries("x", capacity=None)
        for i in range(8):
            ts.append(float(i), float(i))
        assert ts.tail_mean(0.25) == pytest.approx((6 + 7) / 2)


class TestRecorder:
    def test_series_created_on_demand(self):
        rec = SeriesStore(capacity=None)
        rec.sample("a", 0.0, 1.0)
        assert "a" in rec
        assert rec["a"].values == [1.0]

    def test_record_many_prefixes(self):
        rec = SeriesStore(capacity=None)
        rec.sample_many("share", 0.0, {"u1": 0.5, "u2": 0.5})
        assert set(rec.names("share/")) == {"share/u1", "share/u2"}

    def test_names_filter(self):
        rec = SeriesStore(capacity=None)
        rec.sample("a/x", 0.0, 1.0)
        rec.sample("b/y", 0.0, 1.0)
        assert rec.names("a/") == ["a/x"]

    def test_unbounded_store_keeps_every_sample(self):
        rec = SeriesStore(capacity=None)
        n = 10_000  # beyond the bounded default capacity
        for i in range(n):
            rec.sample("x", float(i), float(i))
        series = rec["x"]
        assert len(series) == series.appended == n
        assert series.times[0] == 0.0 and series.values[-1] == n - 1.0
        assert series.at(n / 2 + 0.5) == n / 2


class TestShareDeviation:
    def test_zero_when_matching(self):
        assert share_deviation({"a": 0.6, "b": 0.4}, {"a": 0.6, "b": 0.4}) == 0.0

    def test_mean_absolute(self):
        d = share_deviation({"a": 0.5, "b": 0.5}, {"a": 0.7, "b": 0.3})
        assert d == pytest.approx(0.2)

    def test_missing_keys_count_as_zero(self):
        d = share_deviation({}, {"a": 0.5})
        assert d == pytest.approx(0.5)

    def test_empty_is_zero(self):
        assert share_deviation({}, {}) == 0.0
