import pytest

import sampling


def test_tail_reports_p95_only_with_ten_samples_beyond_it():
    # 200 samples: exactly ten lie beyond p95.
    assert sampling.supported_percentile(200, 95) == 95.0
    # 100 samples leave five beyond p95; ten lie beyond p90.
    assert sampling.supported_percentile(100, 95) == pytest.approx(90.0)
    assert sampling.supported_percentile(1000, 99) == 99.0
    assert sampling.supported_percentile(500, 99) == pytest.approx(98.0)


def test_tail_of_a_tiny_sample_falls_back_to_the_median():
    assert sampling.supported_percentile(15, 95) == 50.0
    value, q_used = sampling.tail([1.0, 2.0, 3.0], 95)
    assert (value, q_used) == (2.0, 50.0)


def test_tail_value_matches_the_percentile_it_names():
    values = list(range(1, 101))
    value, q_used = sampling.tail(values, 95)
    assert q_used == pytest.approx(90.0)
    assert value == pytest.approx(sampling.percentile(values, q_used))


def test_percentile_of_nothing_is_an_error_not_nan():
    with pytest.raises(ValueError):
        sampling.percentile([], 50)


def test_over_segments_is_the_median_with_quartile_spread():
    reduced = sampling.over_segments([10.0, 12.0, 11.0, 30.0, 9.0])
    assert reduced["value"] == 11.0
    # statistics.quantiles(n=4) of the five values: q1 = 9.5, q3 = 21.
    assert reduced["spread"] == pytest.approx((21.0 - 9.5) / 11.0)
    assert reduced["segments"] == [10.0, 12.0, 11.0, 30.0, 9.0]
    assert sampling.over_segments([4.0])["spread"] == 0.0
