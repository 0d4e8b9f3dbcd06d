import pytest

from perfbench import stats


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(100)), 90) == 89


def test_nearest_rank():
    samples = [5, 1, 4, 2, 3] * 10
    assert stats.percentile(samples, 50) == 3
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(samples, 90)
