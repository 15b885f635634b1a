"""Tests for the from-scratch k-means and bisecting k-means."""

import contextlib
import signal

import numpy as np
import pytest

from repro.baselines.kmeans import BisectingKMeans, KMeans
from repro.utils.errors import SelectionError


def blobs(centers, per=100, scale=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.normal(center, scale, size=(per, len(center))) for center in centers]
    )


@contextlib.contextmanager
def returns_within(seconds):
    """Fail, instead of hanging the suite, when the block never returns."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestKMeans:
    def test_recovers_separated_blobs(self):
        points = blobs([(0, 0), (10, 0), (0, 10)])
        result = KMeans(3, seed_label="blobs").fit(points)
        # Each blob lands in one cluster.
        for start in range(0, 300, 100):
            labels = result.labels[start : start + 100]
            assert len(np.unique(labels)) == 1

    def test_deterministic(self):
        points = blobs([(0, 0), (5, 5)])
        a = KMeans(2, seed_label="det").fit(points)
        b = KMeans(2, seed_label="det").fit(points)
        assert np.array_equal(a.labels, b.labels)

    def test_inertia_decreases_with_k(self):
        points = blobs([(0, 0), (10, 0), (0, 10), (10, 10)])
        inertia = [
            KMeans(k, seed_label="ine").fit(points).inertia for k in (1, 2, 4)
        ]
        assert inertia[0] > inertia[1] > inertia[2]

    def test_subsampled_fit_assigns_full_population(self):
        points = blobs([(0, 0), (20, 20)], per=2000)
        result = KMeans(2, seed_label="sub", fit_sample_size=200).fit(points)
        assert len(result.labels) == 4000
        assert len(np.unique(result.labels)) == 2

    def test_k_larger_than_points_clamps(self):
        points = np.array([[0.0], [1.0]])
        result = KMeans(5, seed_label="clamp").fit(points)
        assert result.k <= 2

    def test_identical_points(self):
        points = np.zeros((50, 3))
        result = KMeans(4, seed_label="same").fit(points)
        assert result.inertia == pytest.approx(0.0)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KMeans(0, seed_label="bad")

    def test_empty_fit_sample_rejected(self):
        with pytest.raises(ValueError, match="fit_sample_size"):
            KMeans(2, seed_label="bad", fit_sample_size=0)
        with pytest.raises(ValueError, match="fit_sample_size"):
            BisectingKMeans(4, seed_label="bad", fit_sample_size=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_points_rejected(self, bad):
        points = blobs([(0, 0), (5, 5)])
        points[7, 1] = bad
        with pytest.raises(SelectionError, match="non-finite"):
            KMeans(2, seed_label="nan").fit(points)


class TestBisectingKMeans:
    def test_returns_every_k_up_to_max(self):
        points = blobs([(0, 0), (10, 0), (0, 10), (10, 10)])
        results = BisectingKMeans(8, seed_label="bi").fit_all(points)
        assert sorted(results) == list(range(1, 9))
        for k, result in results.items():
            assert result.k == k

    def test_inertia_monotone_in_k(self):
        points = blobs([(0, 0), (6, 6), (12, 0)], per=150)
        results = BisectingKMeans(10, seed_label="mono").fit_all(points)
        inertias = [results[k].inertia for k in sorted(results)]
        assert all(a >= b - 1e-6 for a, b in zip(inertias, inertias[1:]))

    def test_nested_structure(self):
        """Clusters at k are unions of clusters at k+1 (up to assignment
        noise at blob boundaries, so we test on well-separated blobs)."""
        points = blobs([(0, 0), (50, 0), (0, 50), (50, 50)], scale=0.01)
        results = BisectingKMeans(4, seed_label="nest").fit_all(points)
        for k in (2, 3):
            coarse, fine = results[k].labels, results[k + 1].labels
            # Every fine cluster maps into exactly one coarse cluster.
            for cluster in np.unique(fine):
                assert len(np.unique(coarse[fine == cluster])) == 1

    def test_deterministic(self):
        points = blobs([(0, 0), (9, 9)])
        a = BisectingKMeans(5, seed_label="det").fit_all(points)
        b = BisectingKMeans(5, seed_label="det").fit_all(points)
        for k in a:
            assert np.array_equal(a[k].labels, b[k].labels)

    def test_stops_at_population_size(self):
        points = np.array([[0.0], [5.0], [10.0]])
        results = BisectingKMeans(10, seed_label="tiny").fit_all(points)
        assert max(results) == 3

    def test_identical_points_stop_instead_of_hanging(self):
        with returns_within(30):
            results = BisectingKMeans(5, seed_label="same").fit_all(np.zeros((50, 3)))
        assert list(results) == [1]
        assert results[1].inertia == 0.0
        assert not results[1].labels.any()

    def test_repeated_points_stop_at_the_distinct_count(self):
        distinct = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0]])
        points = np.tile(distinct, (10, 1))
        with returns_within(30):
            results = BisectingKMeans(20, seed_label="repeat").fit_all(points)
        assert list(results) == [1, 2, 3]
        labels = results[3].labels
        assert sorted(np.unique(labels)) == [0, 1, 2]
        for row in range(3):  # each distinct point is a cluster of its own
            assert len(np.unique(labels[row::3])) == 1
        assert results[3].inertia == 0.0

    def test_non_finite_points_rejected(self):
        points = blobs([(0, 0), (5, 5)])
        points[3, 0] = np.nan
        with pytest.raises(SelectionError, match="non-finite"):
            BisectingKMeans(4, seed_label="nan").fit_all(points)
