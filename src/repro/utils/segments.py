"""Grouped array operations (argsort-by-key + segment reductions).

The profile-side hot paths — stratification, tier CoV, golden-cycle
alignment, PKS cluster bookkeeping — all reduce to the same shape of
work: *group rows by an integer key, then reduce a value column within
each group*. Done naively (one ``np.flatnonzero(key == k)`` scan per
group) that is O(rows x groups); at MLPerf scale (1e5-1e6 invocations)
the scans dominate the whole profile pass. This module does it once:

* one **stable** argsort of the key column, so rows within a group keep
  their chronological (ascending-index) order;
* segment boundaries from the sorted keys;
* ``np.<ufunc>.reduceat`` segment reductions over the sorted values.

Integer reductions (counts, sums, mins, maxs) are exact, so grouped
results are bit-identical to the per-group loops they replace. Float
segment sums reassociate (``reduceat`` accumulates sequentially while
``np.sum`` is pairwise), which can move derived statistics such as the
coefficient of variation by an ulp; the golden suites tolerate this
(rtol 1e-6) and the property tests in
``tests/core/test_vectorized_reference.py`` pin the structural outputs
(group membership, tiers, representative rows) exactly against the
retained scalar references in :mod:`repro.core.reference`.

Where a pinned float depends on numpy's own per-group reduction (the
Figure 4 dispersion, attribution sums), :func:`reduce_groups` gives that
reduction exactly: groups of one length form a 2-D block, and numpy
reduces each row of a C-contiguous block along its last axis with the
same pairwise loop it runs on the group alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

#: numpy sums integer input for ``mean``/``std`` by casting it to float64
#: in buffers of this many elements and adding the buffers' pairwise sums
#: in sequence. Up to this length a group is one buffer, the same sum as
#: its float64 cast; a longer integer group is reduced on its own.
CAST_BUFFER = 8192

REDUCTIONS = ("sum", "mean", "std", "cov")


@dataclass(frozen=True)
class Segments:
    """Rows grouped by an integer key, ready for segment reductions.

    ``order`` is the stable argsort of the key column: rows of group
    ``keys[i]`` occupy ``order[starts[i]:ends[i]]`` in ascending original
    index (chronological) order. ``keys`` lists the *present* key values
    in ascending order; keys with no rows simply do not appear.
    """

    order: np.ndarray  # (n,) int64, stable argsort of the key column
    starts: np.ndarray  # (g,) segment start offsets into ``order``
    counts: np.ndarray  # (g,) rows per group
    keys: np.ndarray  # (g,) ascending present key values

    @classmethod
    def group_by(cls, key: np.ndarray) -> "Segments":
        """Group row indices of ``key`` by value (one sort, no scans)."""
        key = np.asarray(key)
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        if len(sorted_keys) == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(order=order, starts=empty, counts=empty, keys=empty)
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_keys)]))
        return cls(
            order=order,
            starts=starts,
            counts=ends - starts,
            keys=sorted_keys[starts],
        )

    def __len__(self) -> int:
        return len(self.starts)

    @cached_property
    def ends(self) -> np.ndarray:
        return self.starts + self.counts

    @cached_property
    def segment_of_position(self) -> np.ndarray:
        """Segment index of each position in ``order`` (length n)."""
        seg = np.zeros(len(self.order), dtype=np.int64)
        if len(self.starts) > 1:
            seg[self.starts[1:]] = 1
            np.cumsum(seg, out=seg)
        return seg

    def rows(self, segment: int) -> np.ndarray:
        """Row indices of one group, ascending (chronological) order."""
        return self.order[self.starts[segment] : self.ends[segment]]

    def gather(self, values: np.ndarray) -> np.ndarray:
        """``values`` re-ordered group-contiguously (``values[order]``)."""
        return np.asarray(values)[self.order]

    def reduce(self, sorted_values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """Per-group reduction of already-gathered (sorted) values."""
        if len(self.starts) == 0:
            return np.empty(0, dtype=np.asarray(sorted_values).dtype)
        return ufunc.reduceat(sorted_values, self.starts)

    def sums(self, sorted_values: np.ndarray) -> np.ndarray:
        return self.reduce(sorted_values, np.add)

    def mins(self, sorted_values: np.ndarray) -> np.ndarray:
        return self.reduce(sorted_values, np.minimum)

    def maxs(self, sorted_values: np.ndarray) -> np.ndarray:
        return self.reduce(sorted_values, np.maximum)

    def means(self, sorted_values: np.ndarray) -> np.ndarray:
        return self.sums(np.asarray(sorted_values, dtype=np.float64)) / self.counts

    def covs(self, sorted_values: np.ndarray) -> np.ndarray:
        """Per-group population coefficient of variation ``sigma / |mu|``.

        Two-pass (mean, then mean squared deviation), matching
        :func:`repro.utils.stats.coefficient_of_variation` semantics:
        single-row groups have zero dispersion; an all-zero group maps to
        0. A zero mean with non-zero dispersion cannot occur on the
        positive-clamped instruction counts this is used for, so it is
        resolved to ``inf`` rather than raising.
        """
        values = np.asarray(sorted_values, dtype=np.float64)
        means = self.means(values)
        deviations = values - np.repeat(means, self.counts)
        variances = self.sums(deviations * deviations) / self.counts
        stds = np.sqrt(variances)
        with np.errstate(divide="ignore", invalid="ignore"):
            covs = stds / np.abs(means)
        covs = np.where(self.counts <= 1, 0.0, covs)
        return np.where((means == 0.0) & (stds == 0.0), 0.0, covs)

    def first_positions(self, mask_sorted: np.ndarray) -> np.ndarray:
        """First position (into ``order``) where ``mask_sorted`` holds, per group.

        Every group must contain at least one ``True``; used to pick the
        first-chronological row matching a per-group condition (e.g. the
        per-cluster distance minimum) without per-group scans.
        """
        candidates = np.flatnonzero(mask_sorted)
        picks = np.searchsorted(candidates, self.starts)
        return candidates[picks]


def reduce_groups(
    values: np.ndarray, groups: Sequence[np.ndarray], *reductions: str
) -> tuple[np.ndarray, ...]:
    """Per-group reductions of ``values``, each bit-identical to numpy's.

    ``groups`` is a sequence of row-index arrays into ``values`` (an
    integer or float64 column); they may be empty, overlap or repeat
    rows. For each name in ``reductions`` the result holds, per group:

    * ``"sum"``, ``"mean"``, ``"std"``: ``values[rows].sum()`` (and so
      on) exactly. The mean and std of an empty group are NaN.
    * ``"cov"``: :func:`repro.utils.stats.coefficient_of_variation` of
      ``values[rows]`` exactly, raising its ``ValueError`` for a zero
      mean with non-zero spread.

    Groups are bucketed by length, every row is gathered once in bucket
    order, and each bucket is viewed as one C-contiguous ``(groups,
    length)`` block reduced along its rows, which numpy does with the
    pairwise loop it runs on one group. Integer
    ``mean``/``std`` reduce the block's float64 cast, the same sum up to
    :data:`CAST_BUFFER` rows; longer integer groups are reduced one by
    one.
    """
    for name in reductions:
        if name not in REDUCTIONS:
            raise ValueError(f"unknown group reduction {name!r}")
    values = np.asarray(values)
    is_int = values.dtype.kind in "iub"
    cast = is_int and any(name != "sum" for name in reductions)
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    sum_dtype = np.int64 if is_int else np.float64
    results = [
        np.empty(len(groups), dtype=sum_dtype if name == "sum" else np.float64)
        for name in reductions
    ]
    # Every row, gathered once with the groups ordered by length: each
    # bucket is then one contiguous run, viewed as its block.
    by_length = Segments.group_by(sizes)
    nonempty = [groups[i] for i in by_length.order.tolist() if len(groups[i])]
    gathered = values[np.concatenate(nonempty)] if nonempty else values[:0]
    floats = gathered.astype(np.float64) if cast else gathered
    offset = 0
    for bucket, length in enumerate(by_length.keys.tolist()):
        members = by_length.rows(bucket)
        if length == 0:
            for name, out in zip(reductions, results):
                out[members] = {"sum": 0, "cov": 0.0}.get(name, np.nan)
            continue
        span = slice(offset, offset + len(members) * length)
        offset = span.stop
        block = gathered[span].reshape(len(members), length)
        for name, out in zip(reductions, results):
            if name == "sum":
                out[members] = block.sum(axis=1)
            elif name == "cov":
                out[members] = _block_covs(floats[span].reshape(block.shape))
            elif is_int and length > CAST_BUFFER:
                out[members] = [getattr(row, name)() for row in block]
            else:
                out[members] = getattr(floats[span].reshape(block.shape), name)(axis=1)
    return tuple(results)


def _block_covs(block: np.ndarray) -> np.ndarray:
    """``coefficient_of_variation`` of each row of a float64 block."""
    if block.shape[1] <= 1:
        return np.zeros(len(block))
    means = block.mean(axis=1)
    stds = block.std(axis=1)
    zero = means == 0.0
    if np.any(zero & (stds != 0.0)):
        raise ValueError("CoV undefined: zero mean with non-zero dispersion")
    with np.errstate(divide="ignore", invalid="ignore"):
        covs = stds / np.abs(means)
    covs[zero] = 0.0
    return covs
