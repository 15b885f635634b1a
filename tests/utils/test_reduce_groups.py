"""Oracle tests: ``reduce_groups`` equals numpy's per-group reductions.

Each group's sum, mean and std must be the value numpy gives on that
group's gathered values, bit for bit, and its CoV the value of
``coefficient_of_variation``. The groups include empty, singleton,
overlapping and repeated ones, and groups longer than numpy's
8,192-element integer cast buffer, over int64 and float64 columns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.segments import CAST_BUFFER, reduce_groups
from repro.utils.stats import coefficient_of_variation

#: Group lengths around the pairwise-sum block (8, 128) and the cast
#: buffer, plus small ones.
LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.sampled_from((127, 128, 129, 1000)),
    st.sampled_from((CAST_BUFFER, CAST_BUFFER + 1, 3 * CAST_BUFFER + 7)),
)


def per_group(values, groups, name):
    """The per-group numpy call ``reduce_groups`` must reproduce."""
    out = []
    for rows in groups:
        member = values[rows]
        if name == "cov":
            out.append(coefficient_of_variation(member))
        elif name != "sum" and len(member) == 0:
            out.append(np.nan)
        else:
            out.append(getattr(member, name)())
    return np.array(out)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(LENGTHS, min_size=1, max_size=12),
    integer=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_reduce_groups_matches_per_group_numpy(lengths, integer, seed):
    rng = np.random.default_rng(seed)
    n = max(max(lengths), 1) + int(rng.integers(0, 50))
    if integer:
        values = rng.integers(1, 10**13, size=n, dtype=np.int64)
    else:
        values = rng.lognormal(mean=10.0, sigma=3.0, size=n)
    # Random rows overlap and repeat across (and within) groups.
    groups = [rng.integers(0, n, size=length) for length in lengths]
    names = ("sum", "mean", "std", "cov")
    results = reduce_groups(values, groups, *names)
    for name, result in zip(names, results):
        expected = per_group(values, groups, name)
        np.testing.assert_array_equal(result, expected, err_msg=name)
        assert result.dtype == (
            np.int64 if integer and name == "sum" else np.float64
        )


def test_empty_singleton_and_overlapping_groups():
    values = np.array([4.0, 1.0, 9.0, 16.0])
    groups = [np.array([], dtype=np.int64), np.array([2]), np.array([0, 2, 2, 3])]
    sums, means, covs = reduce_groups(values, groups, "sum", "mean", "cov")
    np.testing.assert_array_equal(sums, [0.0, 9.0, 38.0])
    assert np.isnan(means[0]) and means[1] == 9.0 and means[2] == 9.5
    assert covs[0] == 0.0 and covs[1] == 0.0
    assert covs[2] == coefficient_of_variation(values[[0, 2, 2, 3]])


def test_integer_groups_past_the_cast_buffer_reduce_one_by_one():
    """Past the cast buffer numpy sums an integer group buffer by buffer;
    the helper must give that sum, not the whole group's float64 cast."""
    rng = np.random.default_rng(3)
    values = rng.integers(1, 10**12, size=4 * CAST_BUFFER, dtype=np.int64)
    groups = [np.arange(len(values)), np.arange(len(values))[::-1]]
    means, stds = reduce_groups(values, groups, "mean", "std")
    for i, rows in enumerate(groups):
        assert means[i] == values[rows].mean()
        assert stds[i] == values[rows].std()


def test_zero_mean_with_spread_raises_like_coefficient_of_variation():
    values = np.array([-1.0, 1.0, 5.0, 5.0])
    with pytest.raises(ValueError, match="zero mean"):
        coefficient_of_variation(values[[0, 1]])
    with pytest.raises(ValueError, match="zero mean"):
        reduce_groups(values, [np.array([2, 3]), np.array([0, 1])], "cov")
    # All-zero groups have no spread: CoV 0, as the scalar function says.
    (covs,) = reduce_groups(np.zeros(3), [np.arange(3)], "cov")
    assert covs[0] == 0.0


def test_unknown_reduction_rejected():
    with pytest.raises(ValueError, match="unknown group reduction"):
        reduce_groups(np.ones(2), [np.arange(2)], "median")
