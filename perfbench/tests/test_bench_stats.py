import pytest

import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7], 99) == 7
    assert stats.median([3, 1, 2]) == 2


def test_percentile_ignores_input_order():
    assert stats.percentile([5, 1, 4, 2, 3], 80) == 4


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        stats.percentile([1, 2, 3], bad)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [
        (100000, 90.0),
        (100, 90.0),    # exactly ten beyond p90
        (99, 75.0),
        (40, 75.0),
        (39, 50.0),
        (20, 50.0),
        (5, 50.0),      # too few for any percentile: the median
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_selected_tail_has_ten_beyond_and_next_higher_does_not():
    for count in range(20, 3000, 7):
        pct = stats.tail_percentile(count)
        assert stats.samples_beyond(count, pct) >= stats.MIN_BEYOND
        higher = [c for c in stats.TAIL_CANDIDATES if c > pct]
        assert all(stats.samples_beyond(count, c) < stats.MIN_BEYOND for c in higher)


def test_quiet_time_is_the_fastest_of_each_inputs_repeats():
    keys = [0, 1, 0, 1, 0]
    lat = [100, 7, 180, 9, 90]
    assert stats.quiet_times(keys, lat, 2) == [90, 7]


def test_quiet_times_leave_out_inputs_never_reached():
    assert stats.quiet_times([2, 0, 2], [5, 3, 4], 4) == [3, 4]


def test_batch_quiet_time_sums_its_inputs_and_needs_all_of_them():
    keys = [0, 1, 2, 3, 0, 1, 2]
    lat = [4, 6, 5, 9, 3, 8, 1]
    assert stats.quiet_times(keys, lat, 4) == [3, 6, 1, 9]
    assert stats.quiet_times(keys, lat, 4, batch=2) == [9, 10]
    assert stats.quiet_times(keys[:3], lat[:3], 4, batch=2) == [10]
