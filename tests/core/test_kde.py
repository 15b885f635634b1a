"""Tests for KDE-based Tier-3 stratification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kde import GaussianKDE1D, kde_strata
from repro.utils.stats import coefficient_of_variation


class TestGaussianKDE:
    def test_density_peaks_at_modes(self):
        samples = np.concatenate([np.full(50, 1.0), np.full(50, 10.0)])
        kde = GaussianKDE1D.fit(samples)
        at_mode = kde.density(np.array([1.0]))[0]
        at_valley = kde.density(np.array([5.5]))[0]
        assert at_mode > at_valley

    def test_density_integrates_to_about_one(self):
        rng = np.random.default_rng(0)
        kde = GaussianKDE1D.fit(rng.normal(0, 1, 200))
        grid = kde.grid(2048)
        density = kde.density(grid)
        integral = np.trapezoid(density, grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_valleys_found_between_separated_modes(self):
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            [rng.normal(0.0, 0.1, 100), rng.normal(5.0, 0.1, 100)]
        )
        valleys = GaussianKDE1D.fit(samples).valley_points()
        assert len(valleys) >= 1
        assert any(1.0 < v < 4.0 for v in valleys)

    def test_no_valleys_for_unimodal_data(self):
        rng = np.random.default_rng(2)
        valleys = GaussianKDE1D.fit(rng.normal(0, 1, 300)).valley_points()
        assert len(valleys) == 0

    def test_degenerate_identical_samples(self):
        kde = GaussianKDE1D.fit(np.full(10, 3.0))
        assert kde.bandwidth > 0
        assert np.isfinite(kde.density(np.array([3.0]))[0])


class TestKdeStrata:
    def test_separated_modes_become_separate_strata(self):
        values = np.concatenate([np.full(40, 1e6), np.full(40, 1e9)])
        strata = kde_strata(values, theta=0.4)
        assert len(strata) == 2
        assert {len(s) for s in strata} == {40}

    def test_cov_postcondition(self):
        rng = np.random.default_rng(4)
        values = rng.lognormal(mean=15, sigma=1.5, size=500)
        for stratum in kde_strata(values, theta=0.4):
            if len(stratum) > 1:
                assert coefficient_of_variation(values[stratum]) <= 0.4 + 1e-9

    def test_strata_partition_the_population(self):
        rng = np.random.default_rng(5)
        values = rng.lognormal(15, 2.0, 300)
        strata = kde_strata(values, theta=0.4)
        combined = np.sort(np.concatenate(strata))
        assert np.array_equal(combined, np.arange(len(values)))

    def test_strata_ordered_by_size(self):
        values = np.concatenate([np.full(10, 1e9), np.full(10, 1e6)])
        strata = kde_strata(values, theta=0.4)
        means = [values[s].mean() for s in strata]
        assert means == sorted(means)

    def test_low_variability_yields_single_stratum(self):
        rng = np.random.default_rng(6)
        values = rng.normal(1e8, 1e6, 200).clip(min=1)
        assert len(kde_strata(values, theta=0.4)) == 1

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            kde_strata(np.array([1.0, 0.0]), theta=0.4)

    @settings(max_examples=25, deadline=None)
    @given(
        sigma=st.floats(min_value=0.3, max_value=2.5),
        theta=st.floats(min_value=0.15, max_value=1.0),
        n=st.integers(min_value=2, max_value=400),
    )
    def test_property_cov_bound_and_partition(self, sigma, theta, n):
        """Core invariant from Section III-B: after stratification, every
        multi-member stratum satisfies CoV <= theta, and the strata
        partition the invocations."""
        rng = np.random.default_rng(42)
        values = np.maximum(rng.lognormal(10.0, sigma, n), 1.0)
        strata = kde_strata(values, theta=theta)
        combined = np.sort(np.concatenate(strata))
        assert np.array_equal(combined, np.arange(n))
        for stratum in strata:
            if len(stratum) > 1:
                assert coefficient_of_variation(values[stratum]) <= theta + 1e-9
