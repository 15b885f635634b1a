"""k-means clustering (from scratch, Lloyd + k-means++).

PKS "uses Cluster Analysis (i.e., k-means clustering) to group the kernel
invocations in this (reduced) multi-dimensional workload space" (Section
II-A). Deterministic given the seed label; supports fitting on a subsample
and assigning the full population, which keeps million-invocation
workloads tractable.

Each fit copies its points once into a feature-major ``(d, n)`` layout
and computes their squared norms once, so every centroid's distances come
out as one contiguous row. The arithmetic is bit-identical to the
row-major original kept in :mod:`repro.core.reference` (DESIGN.md §14
states which products that relies on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import SelectionError
from repro.utils.seeding import rng_for
from repro.utils.validation import require


@dataclass(frozen=True)
class KMeansResult:
    """Fitted clustering of one data set."""

    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,), cluster index per row
    inertia: float  # sum of squared distances to assigned centroids

    @property
    def k(self) -> int:
        return len(self.centroids)

    def cluster_rows(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


class _Layout:
    """One fit's points, laid out for distance rows and centroid sums."""

    def __init__(self, points: np.ndarray):
        self.points = points
        self.points_t = np.ascontiguousarray(points.T)
        self.x_sq = np.einsum("ij,ij->i", points, points)
        # Finite norms rule out NaN distances, the one input on which the
        # strict-< first minimum in _nearest and argmin disagree.
        require(
            bool(np.isfinite(self.x_sq).all()),
            "cannot cluster non-finite points (or points whose squared norm overflows)",
            SelectionError,
        )

    def distances(self, centroids: np.ndarray) -> np.ndarray:
        """(k, n) squared Euclidean distances, one row per centroid."""
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2. Doubling the centroid
        # instead of the points forms the same exact products.
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        twice = 2.0 * centroids
        if len(centroids) == 1:
            # A one-row product rounds differently in the two layouts.
            products = (self.points @ twice.T).T
        else:
            products = twice @ self.points_t
        np.subtract(self.x_sq, products, out=products)
        products += c_sq[:, None]
        return np.maximum(products, 0.0, out=products)

    def recenter(self, labels: np.ndarray, centroids: np.ndarray) -> None:
        """Move each non-empty cluster's centroid to its members' mean."""
        k, d = centroids.shape
        if d == 1:
            # numpy sums a single column pairwise, not row by row.
            for cluster in range(k):
                members = self.points[labels == cluster]
                if len(members):
                    centroids[cluster] = members.mean(axis=0)
            return
        # For d >= 2 ``members.mean(axis=0)`` adds rows in order, as
        # bincount does (from +0.0, so an all -0.0 column comes out +0.0).
        counts = np.bincount(labels, minlength=k)
        sums = np.empty((k, d))
        for feature, column in enumerate(self.points_t):
            sums[:, feature] = np.bincount(labels, weights=column, minlength=k)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]


def _nearest(rows) -> tuple[np.ndarray, np.ndarray]:
    """Index and value of each column's first minimum over ``rows``.

    Equals ``argmin(axis=0)`` for non-NaN distances, without its strided
    scan; ``rows`` is a (k, n) array or a list of k length-n rows.
    """
    labels, closest = np.zeros(len(rows[0]), dtype=np.intp), rows[0]
    for index in range(1, len(rows)):
        labels, closest = _closer(labels, closest, index, rows[index])
    return labels, closest


def _closer(labels, closest, index, row) -> tuple[np.ndarray, np.ndarray]:
    """One step of a running first minimum: ``row`` wins only if strictly less."""
    closer = row < closest
    return np.where(closer, index, labels), np.where(closer, row, closest)


class _Assignment:
    """The full population's first minimum over the live centroids' rows.

    A bisection retires one row and appends two. Points of the retired
    centroid rescan the remaining rows; every other point keeps its
    minimum and compares it with the new rows only. Each label stays the
    first minimum over the live rows in order, as a full rescan gives.
    """

    def __init__(self, rows):
        self.rows = list(rows)
        self.labels, self.closest = _nearest(self.rows)

    def retire(self, position: int) -> None:
        del self.rows[position]
        orphans = np.flatnonzero(self.labels == position)
        labels = self.labels - (self.labels > position)
        closest = self.closest.copy()
        if self.rows:
            labels[orphans], closest[orphans] = _nearest([row[orphans] for row in self.rows])
        else:
            closest[orphans] = np.inf  # any finite distance beats it
        self.labels, self.closest = labels, closest

    def append(self, rows) -> None:
        for row in rows:
            self.labels, self.closest = _closer(self.labels, self.closest, len(self.rows), row)
            self.rows.append(row)

    def result(self, centroids: np.ndarray) -> KMeansResult:
        return KMeansResult(
            centroids=centroids, labels=self.labels, inertia=float(self.closest.sum())
        )


class KMeans:
    """Lloyd's algorithm with k-means++ seeding."""

    def __init__(
        self,
        k: int,
        seed_label: str,
        max_iterations: int = 50,
        fit_sample_size: int | None = 20_000,
        n_init: int = 4,
    ):
        require(k >= 1, "k must be >= 1")
        require(max_iterations >= 1, "need at least one iteration")
        require(n_init >= 1, "need at least one initialization")
        require(
            fit_sample_size is None or fit_sample_size >= 1,
            "fit_sample_size must be None or >= 1",
        )
        self.k = k
        self.seed_label = seed_label
        self.max_iterations = max_iterations
        self.fit_sample_size = fit_sample_size
        self.n_init = n_init

    def _plus_plus_init(self, layout: _Layout, rng: np.random.Generator) -> np.ndarray:
        points = layout.points
        n = len(points)
        centroids = np.empty((self.k, points.shape[1]))
        centroids[0] = points[rng.integers(n)]
        closest = layout.distances(centroids[:1])[0]
        for i in range(1, self.k):
            total = closest.sum()
            if total <= 0:
                centroids[i:] = centroids[0]
                break
            probabilities = closest / total
            centroids[i] = points[rng.choice(n, p=probabilities)]
            if i + 1 < self.k:  # no draw depends on the last centroid's distances
                distance_to_new = layout.distances(centroids[i : i + 1])[0]
                np.minimum(closest, distance_to_new, out=closest)
        return centroids

    def _lloyd(self, layout: _Layout, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """One k-means++-seeded Lloyd run; returns (centroids, fit inertia)."""
        k = min(self.k, len(layout.points))
        centroids = self._plus_plus_init(layout, rng)[:k]
        labels: np.ndarray | None = None
        closest = None
        for _iteration in range(self.max_iterations):
            new_labels, closest = _nearest(layout.distances(centroids))
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            layout.recenter(labels, centroids)
        assert closest is not None
        return centroids, float(closest.sum())

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` ((n, d) array); keeps the best of n_init runs."""
        points = np.asarray(points, dtype=np.float64)
        require(points.ndim == 2, "expected (n, d) points")
        require(len(points) >= 1, "cannot cluster an empty set")
        rng = rng_for("kmeans", self.seed_label, self.k)

        population = _Layout(points)
        fit_layout = population
        if self.fit_sample_size is not None and len(points) > self.fit_sample_size:
            chosen = rng.choice(len(points), size=self.fit_sample_size, replace=False)
            fit_layout = _Layout(points[np.sort(chosen)])

        best_centroids: np.ndarray | None = None
        best_inertia = np.inf
        for _attempt in range(self.n_init):
            centroids, inertia = self._lloyd(fit_layout, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                best_centroids = centroids
        assert best_centroids is not None

        # Assign the full population (== fit set when no subsampling).
        labels, closest = _nearest(population.distances(best_centroids))
        return KMeansResult(centroids=best_centroids, labels=labels, inertia=float(closest.sum()))


class BisectingKMeans:
    """Divisive hierarchical k-means.

    Starts from one cluster and repeatedly bisects the cluster with the
    largest inertia using 2-means, yielding a *nested* family of
    clusterings for every k up to ``max_k`` in a single pass. Because the
    k-cluster and (k+1)-cluster solutions share all but one split, metrics
    evaluated across k (such as PKS's golden-reference error) vary
    smoothly instead of re-rolling a fresh local optimum per k.
    """

    def __init__(
        self,
        max_k: int,
        seed_label: str,
        max_iterations: int = 50,
        fit_sample_size: int | None = 20_000,
        n_init: int = 2,
    ):
        require(max_k >= 1, "max_k must be >= 1")
        require(
            fit_sample_size is None or fit_sample_size >= 1,
            "fit_sample_size must be None or >= 1",
        )
        self.max_k = max_k
        self.seed_label = seed_label
        self.max_iterations = max_iterations
        self.fit_sample_size = fit_sample_size
        self.n_init = n_init

    def fit_all(self, points: np.ndarray) -> dict[int, KMeansResult]:
        """Cluster ``points``; returns one nested result per k in 1..max_k.

        Each snapshot's full-population labels come from one distance row
        per live centroid: a bisection retires one row and adds two, so a
        pass computes 2k - 1 rows instead of k(k + 1) / 2 columns, and at
        most ``max_k`` rows are held at once.
        """
        points = np.asarray(points, dtype=np.float64)
        require(points.ndim == 2, "expected (n, d) points")
        require(len(points) >= 1, "cannot cluster an empty set")
        population = _Layout(points)
        rng = rng_for("bisecting-kmeans", self.seed_label)

        fit_points = points
        if self.fit_sample_size is not None and len(points) > self.fit_sample_size:
            chosen = rng.choice(len(points), size=self.fit_sample_size, replace=False)
            fit_points = points[np.sort(chosen)]

        # Current partition of the fit sample: list of (member_indices,
        # centroid, inertia), with the full population assigned to it.
        all_indices = np.arange(len(fit_points))
        centroid = fit_points.mean(axis=0)
        inertia = float(((fit_points - centroid) ** 2).sum())
        clusters: list[tuple[np.ndarray, np.ndarray, float]] = [
            (all_indices, centroid, inertia)
        ]
        snapshot = np.array([centroid])
        assignment = _Assignment(population.distances(snapshot))
        results = {1: assignment.result(snapshot)}
        while len(clusters) < min(self.max_k, len(fit_points)):
            # Bisect the cluster with the largest inertia (skip singletons).
            splittable = [i for i, c in enumerate(clusters) if len(c[0]) >= 2]
            if not splittable:
                break
            target = max(splittable, key=lambda i: clusters[i][2])
            members = clusters[target][0]
            two_means = KMeans(
                2,
                seed_label=f"{self.seed_label}/bisect{len(clusters) - 1}",
                max_iterations=self.max_iterations,
                fit_sample_size=None,
                n_init=self.n_init,
            ).fit(fit_points[members])
            halves = [members[two_means.labels == half] for half in (0, 1)]
            if not (len(halves[0]) and len(halves[1])):
                # Only identical members leave a half empty (k-means++
                # seeds both centroids on one point), and the cluster
                # would be chosen and split the same way forever.
                break
            del clusters[target]
            assignment.retire(target)
            for half in halves:
                half_points = fit_points[half]
                sub_centroid = half_points.mean(axis=0)
                sub_inertia = float(((half_points - sub_centroid) ** 2).sum())
                clusters.append((half, sub_centroid, sub_inertia))
            snapshot = np.array([c[1] for c in clusters])
            assignment.append(population.distances(snapshot[-2:]))
            results[len(clusters)] = assignment.result(snapshot)
        return results
