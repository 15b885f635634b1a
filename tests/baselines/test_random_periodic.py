"""Tests for the random and periodic sampling baselines."""

import pytest

from repro.baselines.periodic import PeriodicSampler
from repro.baselines.random_sampling import RandomSampler
from repro.profiling.nvbit import NVBitProfiler


@pytest.fixture(scope="module")
def table(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    return table


def test_random_sampler_selects_requested_count(table):
    selection = RandomSampler(sample_size=50).select(table)
    assert selection.num_representatives == 50
    rows = [r.row for r in selection.representatives]
    assert len(set(rows)) == 50


def test_random_sampler_deterministic(table):
    a = RandomSampler(64).select(table)
    b = RandomSampler(64).select(table)
    assert [r.row for r in a.representatives] == [r.row for r in b.representatives]


def test_random_sampler_caps_at_population(table):
    selection = RandomSampler(sample_size=10**9).select(table)
    assert selection.num_representatives == len(table)


def test_random_estimator_reasonable(table, toy_measurement):
    sampler = RandomSampler(sample_size=400)
    selection = sampler.select(table)
    prediction = sampler.predict(selection, toy_measurement)
    assert prediction.error_against(toy_measurement.total_cycles) < 0.6


def test_periodic_sampler_takes_every_kth(table):
    sampler = PeriodicSampler(period=100)
    selection = sampler.select(table)
    rows = [r.row for r in selection.representatives]
    assert rows == list(range(0, len(table), 100))


def test_periodic_estimator_runs(table, toy_measurement):
    sampler = PeriodicSampler(period=37)
    selection = sampler.select(table)
    prediction = sampler.predict(selection, toy_measurement)
    assert prediction.predicted_cycles > 0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        RandomSampler(sample_size=0)
    with pytest.raises(ValueError):
        PeriodicSampler(period=0)
