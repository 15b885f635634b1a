"""1-D Gaussian kernel density estimation and valley-based stratification.

Section III-B: Tier-3 kernels are further stratified with Kernel Density
Estimation so that (1) the number of strata is minimized and (2) the
instruction-count CoV within every stratum stays below θ. We estimate the
density of *log* instruction counts (invocation sizes are ratio-scaled),
split the population at density valleys, and recursively re-split any
stratum whose CoV still exceeds θ — falling back to a median split when the
density is unimodal, which guarantees termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.observability import metrics, span
from repro.utils.errors import SelectionError
from repro.utils.segments import Segments
from repro.utils.stats import coefficient_of_variation
from repro.utils.validation import require

#: Points of the grid the density is evaluated on to find its valleys
#: (the samples' range plus three bandwidths on each side).
GRID_POINTS = 512


@dataclass(frozen=True)
class GaussianKDE1D:
    """Gaussian KDE with Scott's-rule bandwidth.

    >>> kde = GaussianKDE1D.fit(np.array([1.0, 1.1, 5.0, 5.2]))
    >>> float(kde.density(np.array([1.05]))) > float(kde.density(np.array([3.0])))
    True
    """

    samples: np.ndarray
    bandwidth: float

    @classmethod
    def fit(cls, samples: np.ndarray) -> "GaussianKDE1D":
        """Fit a KDE with Scott's-rule bandwidth ``1.06 sigma n^(-1/5)``."""
        samples = np.asarray(samples, dtype=np.float64)
        require(len(samples) >= 1, "KDE needs at least one sample", SelectionError)
        require(
            bool(np.all(np.isfinite(samples))),
            "KDE samples must be finite",
            SelectionError,
        )
        sigma = float(samples.std())
        n = len(samples)
        bandwidth = 1.06 * sigma * n ** (-1.0 / 5.0)
        if bandwidth <= 0:  # degenerate: all samples identical
            bandwidth = max(abs(float(samples[0])), 1.0) * 1e-6
        return cls(samples=samples, bandwidth=bandwidth)

    def density(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the density estimate at ``points``."""
        points = np.asarray(points, dtype=np.float64)
        z = (points[:, None] - self.samples[None, :]) / self.bandwidth
        kernel = np.exp(-0.5 * z * z)
        norm = len(self.samples) * self.bandwidth * math.sqrt(2.0 * math.pi)
        return kernel.sum(axis=1) / norm

    def grid(self, points: int) -> np.ndarray:
        """An evaluation grid covering the samples plus 3 bandwidths."""
        lo = float(self.samples.min()) - 3.0 * self.bandwidth
        hi = float(self.samples.max()) + 3.0 * self.bandwidth
        return np.linspace(lo, hi, points)

    def valley_points(self) -> np.ndarray:
        """Locations of local density minima (stratum boundaries)."""
        grid = self.grid(GRID_POINTS)
        dens = self.density(grid)
        interior = np.flatnonzero(
            (dens[1:-1] < dens[:-2]) & (dens[1:-1] <= dens[2:])
        )
        return grid[interior + 1]


def _split_by_boundaries(
    values: np.ndarray, boundaries: np.ndarray
) -> list[np.ndarray]:
    """Partition indices of ``values`` by the boundary points.

    One stable argsort of the bin labels instead of one ``flatnonzero``
    scan per occupied bin (the scalar original survives as
    :func:`repro.core.reference.split_by_boundaries_scalar`); groups come
    back in ascending bin order with ascending indices inside each group,
    exactly like the per-bin scans produced.
    """
    if len(boundaries) == 0:
        return [np.arange(len(values))]
    bins = np.digitize(values, boundaries)
    segments = Segments.group_by(bins)
    return [segments.rows(i) for i in range(len(segments))]


def _median_split(values: np.ndarray, indices: np.ndarray) -> list[np.ndarray]:
    """Fallback split: halve the group at its median value."""
    member_values = values[indices]
    median = float(np.median(member_values))
    low = indices[member_values <= median]
    high = indices[member_values > median]
    if len(low) == 0 or len(high) == 0:
        # All values equal to the median: split by position instead.
        half = len(indices) // 2
        low, high = indices[:half], indices[half:]
    return [low, high]


def kde_strata(insn_count: np.ndarray, theta: float) -> list[np.ndarray]:
    """Stratify one kernel's invocations so each stratum's CoV <= θ.

    Returns a list of index arrays into ``insn_count``. Strata are ordered
    by ascending instruction count. The KDE operates on log instruction
    counts; any stratum still exceeding θ is recursively re-stratified,
    with a median split as the unimodal fallback, so the CoV bound is a
    postcondition (except for single-invocation strata, which trivially
    satisfy it).
    """
    insn_count = np.asarray(insn_count, dtype=np.float64)
    require(
        bool(np.all(insn_count > 0)),
        "instruction counts must be positive (run "
        "repro.robustness.validate.repair_table on dirty profiles)",
        SelectionError,
    )
    log_values = np.log(insn_count)

    def refine(indices: np.ndarray, allow_kde: bool) -> list[np.ndarray]:
        if len(indices) <= 1:
            return [indices]
        if coefficient_of_variation(insn_count[indices]) <= theta:
            return [indices]
        groups: list[np.ndarray] = []
        if allow_kde:
            # Fit on an evenly strided subsample for very large populations;
            # the boundary set barely moves and the cost drops from O(n^2).
            fit_values = np.sort(log_values[indices])
            if len(fit_values) > 4096:
                stride = -(-len(fit_values) // 4096)
                fit_values = fit_values[::stride]
            boundaries = GaussianKDE1D.fit(fit_values).valley_points()
            parts = _split_by_boundaries(log_values[indices], boundaries)
            metrics.inc("sieve.kde.fits")
            if len(parts) > 1:
                groups = [indices[part] for part in parts]
        if not groups:
            metrics.inc("sieve.kde.median_splits")
            groups = _median_split(log_values, indices)
        refined: list[np.ndarray] = []
        for group in groups:
            refined.extend(refine(group, allow_kde=len(group) < len(indices)))
        return refined

    with span("sieve.kde", samples=len(insn_count)):
        strata = refine(np.arange(len(insn_count)), allow_kde=True)
        strata.sort(key=lambda idx: float(insn_count[idx].mean()))
        return strata
