"""Unit tests for the bounded ring-series store."""

import io
import json

import pytest

from repro.obs.timeseries import RingSeries, SeriesStore


class TestRingSeries:
    def test_append_and_reads(self):
        s = RingSeries("x", capacity=10)
        for t in range(5):
            s.append(float(t), float(t) * 2.0)
        assert len(s) == 5 and s.appended == 5
        assert s.times == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert s.values == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert s.last() == (4.0, 8.0)
        assert s.max() == 8.0
        assert s.mean() == pytest.approx(4.0)

    def test_capacity_evicts_oldest(self):
        s = RingSeries("x", capacity=3)
        for t in range(10):
            s.append(float(t), float(t))
        assert len(s) == 3
        assert s.times == [7.0, 8.0, 9.0]
        assert s.appended == 10  # lifetime count survives eviction

    def test_time_must_not_go_backwards(self):
        s = RingSeries("x")
        s.append(5.0, 1.0)
        s.append(5.0, 2.0)  # equal times are fine (same tick)
        with pytest.raises(ValueError):
            s.append(4.0, 3.0)

    def test_empty_and_bad_capacity(self):
        s = RingSeries("x")
        assert s.last() is None and len(s) == 0
        with pytest.raises(ValueError):
            RingSeries("x", capacity=0)


class TestSeriesStore:
    def test_sample_creates_series_on_demand(self):
        store = SeriesStore()
        store.sample("a/b", 1.0, 2.0)
        assert "a/b" in store and len(store) == 1
        assert store["a/b"].last() == (1.0, 2.0)
        assert "missing" not in store

    def test_sample_many_prefixes_keys(self):
        store = SeriesStore()
        store.sample_many("staleness/s0", 5.0, {"s1": 30.0, "s2": 40.0})
        assert store.names() == ["staleness/s0/s1", "staleness/s0/s2"]
        assert store.names(prefix="staleness/") == store.names()
        assert store.names(prefix="nope") == []

    def test_store_capacity_applies_to_new_series(self):
        store = SeriesStore(capacity=2)
        for t in range(5):
            store.sample("x", float(t), float(t))
        assert store["x"].times == [3.0, 4.0]

    def test_csv_round_shape(self):
        store = SeriesStore()
        store.sample("b", 1.0, 2.5)
        store.sample("a", 1.0, 1.5)
        buf = io.StringIO()
        assert store.to_csv(buf) == 2
        lines = buf.getvalue().splitlines()
        assert lines[0] == "series,time,value"
        assert lines[1].startswith("a,") and lines[2].startswith("b,")

    def test_jsonl_round_trip(self):
        store = SeriesStore()
        for t in range(4):
            store.sample("d/max", float(t), 0.1 * t)
            store.sample("d/mean", float(t), 0.05 * t)
        buf = io.StringIO()
        assert store.to_jsonl(buf) == 8
        for line in buf.getvalue().splitlines():
            record = json.loads(line)
            assert set(record) == {"series", "t", "v"}
        loaded = SeriesStore.from_jsonl(io.StringIO(buf.getvalue()))
        assert loaded.names() == store.names()
        assert loaded["d/max"].values == store["d/max"].values

    def test_from_jsonl_skips_torn_and_blank_lines(self):
        text = ('{"series":"x","t":1.0,"v":2.0}\n'
                "\n"
                '{"series":"x","t":2.0,"v":3.0}\n'
                '{"series":"x","t":3.0,"v"')  # writer mid-line
        store = SeriesStore.from_jsonl(io.StringIO(text))
        assert store["x"].values == [2.0, 3.0]

    def test_file_target_round_trip(self, tmp_path):
        store = SeriesStore()
        store.sample("x", 1.0, 2.0)
        path = str(tmp_path / "series.jsonl")
        store.to_jsonl(path)
        loaded = SeriesStore.from_jsonl(path)
        assert loaded["x"].last() == (1.0, 2.0)


class TestClockedSeries:
    """Satellite fix: a series wired to the daemon's virtual-epoch clock
    stamps samples itself and clamps (rather than raises on) the small
    backward steps that wall-clock adjustments can produce."""

    def test_clock_overrides_caller_timestamps(self):
        ticks = iter([10.0, 11.0, 12.0])
        s = RingSeries("x", capacity=8, clock=lambda: next(ticks))
        s.append(999.0, 1.0)   # caller t is ignored
        s.append(-5.0, 2.0)
        assert s.times == [10.0, 11.0]

    def test_backward_clock_steps_clamp_instead_of_raising(self):
        ticks = iter([10.0, 9.5, 11.0])
        s = RingSeries("x", capacity=8, clock=lambda: next(ticks))
        for v in (1.0, 2.0, 3.0):
            s.append(0.0, v)
        assert s.times == [10.0, 10.0, 11.0]
        assert s.clamped == 1
        assert s.values == [1.0, 2.0, 3.0]  # no sample was lost

    def test_unclocked_series_still_rejects_backward_time(self):
        s = RingSeries("x")
        s.append(5.0, 1.0)
        with pytest.raises(ValueError):
            s.append(4.0, 2.0)

    def test_store_clock_propagates_to_created_series(self):
        ticks = iter([1.0, 2.0, 1.5])
        store = SeriesStore(clock=lambda: next(ticks))
        store.sample("a", 0.0, 1.0)
        store.sample("a", 0.0, 2.0)
        store.sample("a", 0.0, 3.0)
        assert store["a"].times == [1.0, 2.0, 2.0]
        assert store["a"].clamped == 1

    def test_from_jsonl_keeps_file_timestamps(self):
        src = SeriesStore()
        src.sample("a", 3.0, 1.0)
        src.sample("a", 7.0, 2.0)
        buf = io.StringIO()
        src.to_jsonl(buf)
        clone = SeriesStore.from_jsonl(io.StringIO(buf.getvalue()))
        assert clone["a"].times == [3.0, 7.0]
