"""Sieve configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import require

#: Paper default: "a threshold of θ = 0.4 strikes a good balance between
#: accuracy and speed" (Section III-B).
DEFAULT_THETA = 0.4

#: Selection policies for Tier-2/Tier-3 strata. The paper's default picks
#: the first-chronological invocation with the stratum's dominant CTA size;
#: "max_cta" is the alternative the authors tried and found less accurate;
#: "first", "random" and "centroid" exist for ablation studies.
SELECTION_POLICIES = ("dominant_cta", "max_cta", "first", "random", "centroid")


@dataclass(frozen=True)
class SieveConfig:
    """Tunable parameters of the Sieve pipeline."""

    theta: float = DEFAULT_THETA
    selection_policy: str = "dominant_cta"

    def __post_init__(self) -> None:
        require(
            self.theta > 0 and math.isfinite(self.theta), "theta must be positive and finite"
        )
        require(
            self.selection_policy in SELECTION_POLICIES,
            f"selection_policy must be one of {SELECTION_POLICIES}",
        )
