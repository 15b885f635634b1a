"""Tests for the from-scratch PCA."""

import numpy as np
import pytest

from repro.baselines.pca import PCA, standardize


def test_standardize_zero_mean_unit_std():
    rng = np.random.default_rng(0)
    matrix = rng.normal(5.0, 3.0, (500, 4))
    z, mean, std = standardize(matrix)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_standardize_handles_constant_columns():
    matrix = np.column_stack([np.ones(10), np.arange(10.0)])
    z, _, std = standardize(matrix)
    assert np.all(np.isfinite(z))
    assert np.allclose(z[:, 0], 0.0)
    assert std[0] == 1.0


def test_low_rank_data_needs_few_components():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(300, 2))
    # Embed a rank-2 structure in 8 dimensions plus tiny noise.
    mixing = rng.normal(size=(2, 8))
    data = base @ mixing + rng.normal(scale=1e-6, size=(300, 8))
    result = PCA(variance_target=0.99).fit(data)
    assert result.n_components == 2


def test_explained_variance_sums_near_target():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(400, 6)) * np.array([10, 5, 2, 1, 0.5, 0.1])
    result = PCA(variance_target=0.9).fit(data)
    assert result.explained_variance_ratio.sum() >= 0.85


def test_transform_shape_and_determinism():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(100, 12))
    result = PCA(0.9).fit(data)
    projected = result.transform(data)
    assert projected.shape == (100, result.n_components)
    assert np.array_equal(projected, result.transform(data))


def test_components_are_orthonormal():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(200, 5)) * np.array([4, 3, 2, 1, 0.5])
    result = PCA(1.0).fit(data)
    gram = result.components @ result.components.T
    assert np.allclose(gram, np.eye(result.n_components), atol=1e-8)


def test_invalid_variance_target():
    with pytest.raises(ValueError):
        PCA(variance_target=0.0)
