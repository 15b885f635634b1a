"""Statistical workload specifications.

A :class:`WorkloadSpec` captures the knobs needed to regenerate a Table I
workload's *sampling-relevant* structure:

* exact kernel and invocation counts (Table I);
* the invocation-weighted mix of tier behaviours (Figure 2): Tier-1
  kernels repeat the exact same instruction count, Tier-2 kernels vary a
  little, Tier-3 kernels are multimodal;
* cross-kernel *aliasing*: how many distinct characteristic families the
  kernels collapse into in the 12-dimensional PKS metric space;
* *heterogeneity*: how much hidden microarchitectural behaviour differs
  between kernels that alias to the same family;
* *chronological drift*: the fraction of early invocations doing smaller
  work (warm-up iterations, growing working sets), which is what biases
  first-chronological representative selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.utils.errors import SieveError
from repro.utils.validation import require


#: The smallest CoV a Tier-2 kernel draws (see ``KernelBehavior``).
MIN_TIER2_COV = 0.02


class Tier(Enum):
    """Sieve's three-way kernel categorization (Section III-B)."""

    TIER1 = 1  # no variation in instruction count across invocations
    TIER2 = 2  # little variation (CoV below threshold theta)
    TIER3 = 3  # large variation (CoV above threshold theta)


@dataclass(frozen=True)
class KernelBehavior:
    """Per-tier instruction-count behaviour parameters.

    ``tier2_cov`` bounds the CoV of Tier-2 kernels' lognormal instruction
    counts: each Tier-2 kernel draws its CoV uniformly from
    ``[MIN_TIER2_COV, tier2_cov]``. Tier-3 kernels draw from
    ``tier3_modes`` geometrically spaced modes spanning a factor
    ``tier3_spread`` between the smallest and largest mode, each mode
    itself having CoV ``tier3_mode_cov``.
    """

    tier2_cov: float = 0.12
    tier3_modes: int = 6
    tier3_spread: float = 30.0
    tier3_mode_cov: float = 0.05
    #: Mode population ∝ size^(-exponent): smaller invocations are more
    #: numerous (1.0 ⇒ every mode carries equal total work; above 1.0 the
    #: small-call population collectively dominates the cycle mass).
    tier3_count_exponent: float = 0.0

    def __post_init__(self) -> None:
        require(
            MIN_TIER2_COV <= self.tier2_cov < 1.0,
            f"tier2_cov must be in [{MIN_TIER2_COV}, 1): Tier-2 kernels draw "
            f"their CoV from [{MIN_TIER2_COV}, tier2_cov]",
        )
        require(self.tier3_modes >= 2, "tier3 needs at least two modes")
        require(self.tier3_spread > 1.0, "tier3_spread must exceed 1.0")
        require(0.0 <= self.tier3_mode_cov < 0.5, "tier3_mode_cov out of range")
        require(self.tier3_count_exponent >= 0.0, "count exponent must be >= 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete statistical description of one Table I workload."""

    name: str
    suite: str
    num_kernels: int
    num_invocations: int
    #: Invocation-weighted target fractions per tier; must sum to 1.
    tier_fractions: tuple[float, float, float] = (0.4, 0.4, 0.2)
    behavior: KernelBehavior = field(default_factory=KernelBehavior)
    #: Mean thread-level instruction count per invocation (log-space center).
    insn_scale: float = 5.0e7
    #: Lognormal sigma of per-kernel base instruction counts around the scale.
    insn_kernel_sigma: float = 1.0
    #: Zipf-like skew of invocation counts across kernels (0 = uniform).
    invocation_skew: float = 0.8
    #: Number of characteristic families kernels alias into (<= num_kernels).
    alias_groups: int = 4
    #: Lognormal sigma of each kernel's metric-rate deviation from its
    #: family template. Small values keep aliased kernels on nearly the
    #: same ray in the 12-D space (easy for k-means to slice by size);
    #: large values scatter kernels directionally, forcing PKS to spend
    #: its <=20 clusters separating kernels instead of resolving size.
    metric_direction_sigma: float = 0.3
    #: Lognormal sigma of hidden per-kernel personality within a family.
    heterogeneity: float = 0.35
    #: Fraction of each drifting kernel's earliest invocations that execute
    #: reduced work, and the work-reduction factor applied to them.
    drift_fraction: float = 0.0
    drift_factor: float = 0.25
    #: How strongly a kernel's invocation sizes grow over program time
    #: (0 = launch order independent of size, 1 = strictly ascending).
    #: Real long-running programs ramp up (growing working sets, longer
    #: sequences), which is what makes first-chronological representatives
    #: systematically undersized for high-dispersion clusters.
    chrono_size_correlation: float = 0.0
    #: Fraction of kernels whose Turing-family cycles are scaled by
    #: ``turing_factor`` (captures workload-dependent arch affinity, Fig 9).
    turing_biased_fraction: float = 0.0
    turing_factor: float = 1.0
    #: Optional: force kernel 0 to carry this share of invocations (the
    #: paper's gst has one dominant, highly variable kernel).
    dominant_kernel_share: float = 0.0
    #: Per-invocation measurement noise CoV on the modeled hardware.
    measurement_noise_cov: float = 0.01
    #: Relative richness of the workload's instruction/metric types; scales
    #: the number of Nsight replay passes (the paper attributes MLPerf's
    #: larger profiling-time gap to its larger number of instruction types).
    profiling_complexity: float = 1.0

    def __post_init__(self) -> None:
        require(bool(self.name), "workload name must be non-empty")
        require(bool(self.suite), "suite name must be non-empty")
        require(self.num_kernels >= 1, "workload needs at least one kernel")
        require(
            self.num_invocations >= self.num_kernels,
            "need at least one invocation per kernel",
        )
        require(len(self.tier_fractions) == 3, "three tier fractions required")
        require(
            all(f >= 0 for f in self.tier_fractions),
            "tier fractions must be non-negative",
        )
        require(
            abs(sum(self.tier_fractions) - 1.0) < 1e-9,
            "tier fractions must sum to one",
        )
        require(
            1 <= self.alias_groups <= self.num_kernels,
            "alias_groups must be in [1, num_kernels]",
        )
        require(0.0 <= self.drift_fraction < 1.0, "drift_fraction in [0, 1)")
        require(self.drift_factor > 0.0, "drift_factor must be positive")
        require(
            0.0 <= self.chrono_size_correlation <= 1.0,
            "chrono_size_correlation in [0, 1]",
        )
        require(
            0.0 <= self.turing_biased_fraction <= 1.0,
            "turing_biased_fraction in [0, 1]",
        )
        require(self.turing_factor > 0.0, "turing_factor must be positive")
        require(
            0.0 <= self.dominant_kernel_share < 1.0,
            "dominant_kernel_share in [0, 1)",
        )
        require(self.insn_scale > 0, "insn_scale must be positive")
        require(self.measurement_noise_cov >= 0, "noise CoV must be >= 0")
        require(self.profiling_complexity >= 1.0, "profiling_complexity >= 1.0")

    @property
    def label(self) -> str:
        """Fully qualified workload label, e.g. ``cactus/lmc``."""
        return f"{self.suite}/{self.name}"

    def to_dict(self) -> dict:
        """JSON-ready form (fuzz checkpoints, findings files, the
        committed adversarial suite). Round-trips via :meth:`from_dict`."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["behavior"] = asdict(self.behavior)
        payload["tier_fractions"] = list(self.tier_fractions)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output (validates fully)."""
        fields = dict(payload)
        fields["behavior"] = KernelBehavior(**fields.get("behavior", {}))
        fields["tier_fractions"] = tuple(fields["tier_fractions"])
        return cls(**fields)

    def scaled(self, max_invocations: int) -> "WorkloadSpec":
        """Return a spec with invocations capped at ``max_invocations``.

        Kernel counts, tier structure and all statistical knobs are kept;
        only the invocation budget shrinks. This mirrors the paper's own
        practice of profiling a bounded number of invocations for the
        long-running Cactus/MLPerf workloads (Section IV).
        """
        if max_invocations < self.num_kernels:
            raise SieveError(
                "cap below one per kernel",
                workload=self.label,
                cap=max_invocations,
                num_kernels=self.num_kernels,
            )
        if self.num_invocations <= max_invocations:
            return self
        return WorkloadSpec(
            **{
                **self.__dict__,
                "num_invocations": max_invocations,
            }
        )
