"""Property tests: the feature-major k-means equals the row-major original.

:mod:`repro.baselines.kmeans` lays each fit's points out feature-major
and keeps one full-population distance row per centroid. PKS's chosen k,
its clusters and the fig3/4/6 goldens all follow from k-means' exact
output, so the rewrite must reproduce :mod:`repro.core.reference`'s
row-major code bit for bit: centroids and labels (dtype included) equal
as arrays, inertia equal as a float.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.kmeans import BisectingKMeans, KMeans
from repro.core.reference import ReferenceBisectingKMeans, ReferenceKMeans


@st.composite
def point_sets(draw):
    """(n, d) points with duplicate rows, exact ties and constant columns."""
    n = draw(st.integers(min_value=1, max_value=3000))
    d = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(("blobs", "normal", "grid")))
    if shape == "blobs":
        centers = rng.normal(scale=10.0, size=(draw(st.integers(1, 6)), d))
        points = centers[rng.integers(len(centers), size=n)]
        points = points + rng.normal(scale=draw(st.sampled_from((0.01, 1.0))), size=(n, d))
    elif shape == "normal":
        points = rng.normal(scale=draw(st.sampled_from((1e-3, 1.0, 1e3))), size=(n, d))
    else:  # small integer grid: many exactly tied distances
        points = rng.integers(-2, 3, size=(n, d)) * draw(st.sampled_from((1.0, 0.1)))
    distinct = draw(st.integers(min_value=1, max_value=n))
    if distinct < n:  # every row repeats one of the first `distinct`
        points = points[rng.integers(distinct, size=n)]
    for column in range(d):
        if draw(st.booleans()) and draw(st.booleans()):
            points[:, column] = draw(st.sampled_from((0.0, -0.0, 2.5)))
    return np.asarray(points, order=draw(st.sampled_from(("C", "F"))))


def _assert_same(result, reference):
    assert np.array_equal(result.centroids, reference.centroids)
    assert result.labels.dtype == reference.labels.dtype
    assert np.array_equal(result.labels, reference.labels)
    assert result.inertia == reference.inertia


fit_samples = st.one_of(st.none(), st.integers(min_value=1, max_value=2999))
iterations = st.sampled_from((1, 2, 50))
inits = st.integers(min_value=1, max_value=3)


@settings(max_examples=40, deadline=None)
@given(
    points=point_sets(),
    max_k=st.integers(min_value=1, max_value=24),
    max_iterations=iterations,
    fit_sample_size=fit_samples,
    n_init=inits,
)
def test_bisecting_kmeans_matches_reference(
    points, max_k, max_iterations, fit_sample_size, n_init
):
    kwargs = dict(
        seed_label="prop",
        max_iterations=max_iterations,
        fit_sample_size=fit_sample_size,
        n_init=n_init,
    )
    results = BisectingKMeans(max_k, **kwargs).fit_all(points)
    references = ReferenceBisectingKMeans(max_k, **kwargs).fit_all(points)
    assert list(results) == list(references)
    for k in references:
        _assert_same(results[k], references[k])


@settings(max_examples=40, deadline=None)
@given(
    points=point_sets(),
    k=st.integers(min_value=1, max_value=6),
    max_iterations=iterations,
    fit_sample_size=fit_samples,
    n_init=inits,
)
def test_kmeans_matches_reference(points, k, max_iterations, fit_sample_size, n_init):
    kwargs = dict(
        seed_label="prop",
        max_iterations=max_iterations,
        fit_sample_size=fit_sample_size,
        n_init=n_init,
    )
    _assert_same(
        KMeans(k, **kwargs).fit(points), ReferenceKMeans(k, **kwargs).fit(points)
    )
