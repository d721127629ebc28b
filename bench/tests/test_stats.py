import statistics

import pytest

from bench.stats import percentile, quartiles


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(99)), 90)
    assert percentile(list(range(1, 101)), 90) == 90


def test_p99_needs_a_thousand_samples():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1, 1001)), 99) == 990


def test_nearest_rank_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert percentile(values, 75) == 4.0


@pytest.mark.parametrize("q", [50, 100, 10])
def test_only_tail_percentiles(q):
    with pytest.raises(ValueError, match="tail percentile"):
        percentile(list(range(1000)), q)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert quartiles(values) == statistics.quantiles(values, n=4)
