"""Order statistics: which tail percentile a sample supports."""

import statistics

import pytest

import quant


@pytest.mark.parametrize("n, expected", [
    (19, None),         # fewer than 10 beyond even p90
    (99, None),         # 9.9 samples beyond p90
    (100, 90.0),        # exactly 10 beyond p90, 5 beyond p95
    (200, 95.0),
    (999, 95.0),        # 9.99 beyond p99: not enough
    (1000, 99.0),
    (10_000, 99.9),
    (100_000, 99.99),
    (2_000_000, 99.999),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert quant.tail_percentile(n) == expected


def test_tail_has_at_least_ten_samples_beyond():
    for n in (100, 150, 1000, 12345):
        p = quant.tail_percentile(n)
        values = list(range(n))
        cut = quant.percentile(values, p)
        assert sum(1 for v in values if v >= cut) >= quant.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert quant.percentile(values, 50) == 51
    assert quant.percentile(values, 99) == 100
    assert quant.percentile([7], 99.9) == 7
    with pytest.raises(ValueError):
        quant.percentile([], 50)


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.9, 7.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quant.quartiles(values) == (q1, q3)
    assert quant.spread_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert quant.quartiles([2.0]) == (2.0, 2.0)


def test_summarize_reports_median_of_reps_and_pooled_tail():
    out = quant.summarize([10.0, 12.0, 11.0], pooled=list(range(1000)))
    assert out["median"] == 11.0
    assert out["reps"] == 3
    assert out["samples"] == 1000
    assert out["tail_p"] == 99.0
    assert out["tail"] == 990
    assert out["iqr"] == out["q3"] - out["q1"]


def test_quiet_median_reads_the_fast_level_of_a_two_speed_run():
    # 5000 samples at 27 with slow spells at 40 covering 70 % of the time:
    # the plain median reads the slow level, the quiet one the fast level.
    samples = []
    for block in range(50):
        level = 27.0 if block % 10 in (3, 4, 5) else 40.0
        samples += [level + 0.01 * (i % 7) for i in range(100)]
    assert statistics.median(samples) > 39
    assert quant.quiet_median(samples) == pytest.approx(27.03, abs=0.05)


def test_quiet_median_moves_with_a_change_that_slows_every_sample():
    samples = [20.0 + (i % 13) for i in range(3000)]
    slower = [s * 1.1 for s in samples]
    assert quant.quiet_median(slower) == pytest.approx(
        1.1 * quant.quiet_median(samples))


def test_quiet_median_of_a_few_samples_is_the_fastest_one():
    # Fewer than ten blocks: the 10th percentile is the lowest block.
    assert quant.quiet_median([5.0, 3.0, 4.0]) == 3.0
    assert quant.quiet_median([7.0]) == 7.0
