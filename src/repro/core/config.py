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

#: The finest KDE grid a config may ask for: 8x the paper's 512. A
#: density evaluation holds grid x (at most 4,096 fit samples) temporaries.
MAX_KDE_GRID_POINTS = 4096


@dataclass(frozen=True)
class SieveConfig:
    """Tunable parameters of the Sieve pipeline."""

    theta: float = DEFAULT_THETA
    selection_policy: str = "dominant_cta"
    kde_grid_points: int = 512
    #: Relative bandwidth multiplier on the Scott rule (1.0 = Scott).
    kde_bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        require(
            self.theta > 0 and math.isfinite(self.theta), "theta must be positive and finite"
        )
        require(
            self.selection_policy in SELECTION_POLICIES,
            f"selection_policy must be one of {SELECTION_POLICIES}",
        )
        require(
            16 <= self.kde_grid_points <= MAX_KDE_GRID_POINTS,
            f"kde_grid_points must be in [16, {MAX_KDE_GRID_POINTS}]",
        )
        require(
            self.kde_bandwidth_scale > 0 and math.isfinite(self.kde_bandwidth_scale),
            "bandwidth scale must be positive and finite",
        )
