"""Within-cluster cycle-count dispersion (Figure 4).

The paper reports the invocation-count-weighted average coefficient of
variation of cycle counts within each cluster/stratum: "a measure for the
degree of cycle count variability or dispersion within each cluster".
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.utils.segments import reduce_groups
from repro.utils.validation import require


def weighted_cycle_cov(
    groups: Iterable[np.ndarray], cycles_by_row: np.ndarray
) -> float:
    """Invocation-count-weighted average within-group CoV of cycles.

    ``groups`` yields row-index arrays (a Sieve stratification or a PKS
    clustering); ``cycles_by_row`` is the golden cycle count per profile row.
    Every group's CoV is :func:`~repro.utils.stats.coefficient_of_variation`
    bit for bit (:func:`~repro.utils.segments.reduce_groups`); the per-group
    loop survives as :func:`repro.core.reference.weighted_cycle_cov_scalar`.
    """
    groups = [rows for rows in groups if len(rows)]
    require(len(groups) > 0, "no non-empty groups")
    (covs,) = reduce_groups(cycles_by_row, groups, "cov")
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    return float(np.average(covs, weights=sizes))
