"""Principal Component Analysis (from scratch, SVD-based).

PKS applies PCA to the standardized 12-characteristic matrix "to reduce
the dimensionality of the data set" (Section II-A) before clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require


def standardize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score columns of ``matrix``; zero-variance columns map to zero.

    Returns ``(standardized, mean, std)`` where ``std`` has zeros replaced
    by one so the transform is always well-defined.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    require(matrix.ndim == 2, "expected a 2-D matrix")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (matrix - mean) / std, mean, std


@dataclass(frozen=True)
class PCAResult:
    """Fitted projection: ``transform(X) = (X - mean)/std @ components.T``."""

    mean: np.ndarray
    std: np.ndarray
    components: np.ndarray  # (n_components, n_features)
    explained_variance_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        return ((matrix - self.mean) / self.std) @ self.components.T


class PCA:
    """PCA keeping enough components to explain a variance target."""

    def __init__(self, variance_target: float = 0.9):
        require(0.0 < variance_target <= 1.0, "variance target in (0, 1]")
        self.variance_target = variance_target

    def fit(self, matrix: np.ndarray) -> PCAResult:
        """Fit on ``matrix`` (rows = observations, columns = features)."""
        standardized, mean, std = standardize(matrix)
        # Economy SVD of the centered data gives principal axes in V.
        _, singular_values, vt = np.linalg.svd(standardized, full_matrices=False)
        n = max(len(standardized) - 1, 1)
        explained = (singular_values**2) / n
        total = explained.sum()
        ratios = explained / total if total > 0 else np.zeros_like(explained)
        cumulative = np.cumsum(ratios)
        keep = int(np.searchsorted(cumulative, self.variance_target) + 1)
        keep = max(min(keep, len(ratios)), 1)
        return PCAResult(
            mean=mean,
            std=std,
            components=vt[:keep],
            explained_variance_ratio=ratios[:keep],
        )
