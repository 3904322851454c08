import statistics

import pytest

from bench.stats import (MIN_BEYOND, percentile, spread, summarize,
                         supported_tail)


class TestSupportedTail:
    @pytest.mark.parametrize("n, expected", [
        (1, None), (19, None), (99, None),      # p90 needs 100 samples
        (100, 90.0), (999, 90.0),               # p99 needs 1000
        (1000, 99.0), (9999, 99.0),             # p99.9 needs 10000
        (10000, 99.9), (10 ** 6, 99.9),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert supported_tail(n) == expected

    def test_rule_is_ten_samples_beyond(self):
        for n in (100, 1000, 10000):
            q = supported_tail(n)
            assert round(n * (100.0 - q) / 100.0, 9) >= MIN_BEYOND
            assert (supported_tail(n - 1) or 0.0) < q


class TestPercentile:
    def test_interpolates_between_order_statistics(self):
        assert percentile([1, 2, 3, 4], 50.0) == 2.5
        assert percentile([4, 1, 3, 2], 0.0) == 1.0
        assert percentile([4, 1, 3, 2], 100.0) == 4.0
        assert percentile([10.0], 99.0) == 10.0

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)


class TestSummarize:
    def test_small_sample_has_no_tail(self):
        out = summarize(range(50))
        assert out["n"] == 50 and "tail" not in out
        assert out["q1"] <= out["p50"] <= out["q3"]

    def test_tail_is_the_supported_percentile(self):
        samples = list(range(1000))
        out = summarize(samples)
        assert out["tail_q"] == 99.0
        assert out["tail"] == percentile(samples, 99.0)

    def test_no_samples(self):
        assert summarize([]) == {"n": 0}


def test_spread_is_the_acceptance_rule():
    values = [10.0, 10.4, 9.8, 10.1, 10.9, 9.5, 10.2, 10.0, 10.3, 9.9]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
