"""Catalog of the paper's 40 workloads (Table I).

Each entry reproduces the exact kernel/invocation counts from Table I and
encodes per-workload statistical knobs calibrated against the paper's
observations:

* Figure 2 tier structure (e.g. gms/lmr are all Tier-1/2 even at θ=0.1;
  gru/lmc/bert/resnet50 become all Tier-1/2 at larger θ; gst is the most
  Tier-3-heavy workload);
* Figure 3/5 PKS failure modes (heterogeneity within alias families,
  chronological drift that biases first-chronological selection — worst in
  spt and rnnt);
* Figure 4 dispersion extremes (dcg's enormous within-cluster cycle CoV);
* Figure 6 speedup outlier (gst's dominant highly variable kernel);
* Figure 9 architecture affinity (lmc/lmr run faster on Turing; gst, dcg
  and lgt run much faster on Ampere).
"""

from __future__ import annotations

from repro.utils.validation import require
from repro.workloads.spec import KernelBehavior, WorkloadSpec

SIMPLE_SUITES: tuple[str, ...] = ("parboil", "rodinia", "sdk")
CHALLENGING_SUITES: tuple[str, ...] = ("cactus", "mlperf")


def _simple(
    suite: str,
    name: str,
    kernels: int,
    invocations: int,
    *,
    tiers: tuple[float, float, float] = (0.7, 0.3, 0.0),
    tier2_cov: float = 0.15,
    drift: float = 0.0,
    heterogeneity: float = 0.25,
    alias_groups: int | None = None,
    insn_scale: float = 2.0e8,
    size_correlation: float = 0.0,
    direction_sigma: float = 0.2,
) -> WorkloadSpec:
    """Spec template for the easy-to-sample Parboil/Rodinia/SDK workloads."""
    return WorkloadSpec(
        name=name,
        suite=suite,
        num_kernels=kernels,
        num_invocations=invocations,
        tier_fractions=tiers,
        behavior=KernelBehavior(tier2_cov=tier2_cov),
        insn_scale=insn_scale,
        invocation_skew=0.5,
        alias_groups=alias_groups if alias_groups is not None else kernels,
        metric_direction_sigma=direction_sigma,
        heterogeneity=heterogeneity,
        drift_fraction=drift,
        chrono_size_correlation=size_correlation,
    )


_PARBOIL = [
    _simple("parboil", "bfs_ny", 2, 11),
    _simple("parboil", "histo", 4, 252),
    _simple("parboil", "lbm", 1, 3000, tiers=(1.0, 0.0, 0.0)),
    _simple("parboil", "mri-g", 9, 51),
    _simple("parboil", "stencil", 1, 100, tiers=(1.0, 0.0, 0.0)),
]

_RODINIA = [
    # cfd is the paper's one simple-suite PKS failure (23% error, Fig 8):
    # aliased kernels with drifting invocation sizes.
    _simple(
        "rodinia",
        "cfd",
        4,
        14003,
        tiers=(0.3, 0.4, 0.3),
        drift=0.25,
        heterogeneity=0.5,
        alias_groups=2,
        size_correlation=0.9,
        direction_sigma=0.7,
    ),
    _simple("rodinia", "dwt2d", 4, 10),
    _simple("rodinia", "gaussian", 2, 16382, tiers=(0.4, 0.6, 0.0), tier2_cov=0.12),
    _simple("rodinia", "heartwall", 1, 20, tiers=(1.0, 0.0, 0.0)),
    _simple("rodinia", "hotspot3d", 1, 100, tiers=(1.0, 0.0, 0.0)),
    _simple("rodinia", "huffman", 6, 46),
    _simple("rodinia", "lud", 3, 22, tiers=(0.3, 0.7, 0.0), tier2_cov=0.35),
    _simple("rodinia", "nw", 2, 255, tiers=(0.2, 0.8, 0.0), tier2_cov=0.15),
    _simple("rodinia", "srad", 6, 502),
]

_SDK = [
    _simple("sdk", "blackscholes", 1, 512, tiers=(1.0, 0.0, 0.0)),
    _simple("sdk", "cholesky", 25, 143, tiers=(0.5, 0.5, 0.0)),
    _simple("sdk", "gradient", 7, 84),
    _simple("sdk", "dct8x8", 8, 118),
    _simple("sdk", "histogram", 4, 68),
    _simple("sdk", "hsopticalflow", 6, 7576, tiers=(0.5, 0.4, 0.1)),
    _simple("sdk", "mergesort", 4, 49, tiers=(0.4, 0.6, 0.0), tier2_cov=0.3),
    _simple("sdk", "nvjpeg", 2, 32),
    _simple("sdk", "random", 2, 42, tiers=(1.0, 0.0, 0.0)),
    _simple("sdk", "sortingnet", 4, 290, tiers=(0.4, 0.6, 0.0)),
]


def _challenging(
    suite: str,
    name: str,
    kernels: int,
    invocations: int,
    *,
    tiers: tuple[float, float, float],
    behavior: KernelBehavior,
    alias_groups: int,
    heterogeneity: float,
    direction_sigma: float = 0.3,
    drift: float,
    drift_factor: float = 0.25,
    turing_biased_fraction: float = 0.0,
    turing_factor: float = 1.0,
    dominant_kernel_share: float = 0.0,
    insn_scale: float = 6.0e8,
    invocation_skew: float = 0.8,
    profiling_complexity: float = 1.0,
    size_correlation: float = 0.75,
) -> WorkloadSpec:
    """Spec template for the challenging Cactus/MLPerf workloads."""
    return WorkloadSpec(
        name=name,
        suite=suite,
        num_kernels=kernels,
        num_invocations=invocations,
        tier_fractions=tiers,
        behavior=behavior,
        insn_scale=insn_scale,
        invocation_skew=invocation_skew,
        alias_groups=alias_groups,
        metric_direction_sigma=direction_sigma,
        heterogeneity=heterogeneity,
        drift_fraction=drift,
        drift_factor=drift_factor,
        turing_biased_fraction=turing_biased_fraction,
        turing_factor=turing_factor,
        dominant_kernel_share=dominant_kernel_share,
        profiling_complexity=profiling_complexity,
        chrono_size_correlation=size_correlation,
    )


_CACTUS = [
    _challenging(
        "cactus", "gru", 8, 43_837,
        tiers=(0.50, 0.45, 0.05),
        behavior=KernelBehavior(
            tier2_cov=0.45, tier3_modes=5, tier3_spread=15.0, tier3_mode_cov=0.18
        ),
        alias_groups=3, heterogeneity=0.25, drift=0.18, drift_factor=0.35,
        turing_biased_fraction=0.4, turing_factor=0.78,
        direction_sigma=0.7,
        size_correlation=0.9,
    ),
    _challenging(
        # gst: one dominant kernel with wildly varying instruction counts;
        # both samplers end up selecting nearly all of its invocations.
        "cactus", "gst", 15, 175,
        tiers=(0.20, 0.20, 0.60),
        behavior=KernelBehavior(
            tier2_cov=0.3, tier3_modes=24, tier3_spread=200.0, tier3_mode_cov=0.25
        ),
        alias_groups=5, heterogeneity=0.3, drift=0.1,
        dominant_kernel_share=0.6,
        turing_biased_fraction=0.5, turing_factor=1.35,
        insn_scale=2.0e9,
        direction_sigma=0.5,
        size_correlation=0.5,
    ),
    _challenging(
        "cactus", "gms", 14, 92_520,
        tiers=(0.60, 0.40, 0.0),
        behavior=KernelBehavior(tier2_cov=0.08),
        alias_groups=4, heterogeneity=0.25, drift=0.12, drift_factor=0.4,
        direction_sigma=0.5,
        size_correlation=0.85,
    ),
    _challenging(
        "cactus", "lmc", 58, 248_548,
        tiers=(0.35, 0.62, 0.03),
        behavior=KernelBehavior(
            tier2_cov=0.85, tier3_modes=6, tier3_spread=12.0, tier3_mode_cov=0.18
        ),
        alias_groups=6, heterogeneity=0.25, drift=0.2, drift_factor=0.35,
        turing_biased_fraction=0.85, turing_factor=0.58,
        direction_sigma=0.65,
        size_correlation=0.9,
    ),
    _challenging(
        "cactus", "lmr", 62, 74_765,
        tiers=(0.55, 0.45, 0.0),
        behavior=KernelBehavior(tier2_cov=0.08),
        alias_groups=6, heterogeneity=0.25, drift=0.15, drift_factor=0.4,
        turing_biased_fraction=0.85, turing_factor=0.65,
        direction_sigma=0.5,
        size_correlation=0.88,
    ),
    _challenging(
        "cactus", "dcg", 59, 414_585,
        tiers=(0.40, 0.35, 0.25),
        behavior=KernelBehavior(
            tier2_cov=0.8, tier3_modes=10, tier3_spread=2000.0, tier3_mode_cov=0.3
        ),
        alias_groups=5, heterogeneity=0.3, drift=0.22, drift_factor=0.2,
        turing_biased_fraction=0.5, turing_factor=1.30,
        direction_sigma=0.85,
        size_correlation=0.92,
    ),
    _challenging(
        "cactus", "lgt", 74, 532_707,
        tiers=(0.42, 0.38, 0.20),
        behavior=KernelBehavior(
            tier2_cov=0.8, tier3_modes=8, tier3_spread=60.0, tier3_mode_cov=0.3
        ),
        alias_groups=6, heterogeneity=0.3, drift=0.28, drift_factor=0.22,
        turing_biased_fraction=0.4, turing_factor=1.25,
        direction_sigma=0.9,
        size_correlation=0.95,
    ),
    _challenging(
        "cactus", "nst", 50, 1_072_246,
        tiers=(0.40, 0.35, 0.25),
        behavior=KernelBehavior(
            tier2_cov=0.35, tier3_modes=9, tier3_spread=80.0, tier3_mode_cov=0.3
        ),
        alias_groups=4, heterogeneity=0.3, drift=0.4, drift_factor=0.15,
        turing_biased_fraction=0.5, turing_factor=0.75,
        direction_sigma=0.9,
        size_correlation=0.97,
    ),
    _challenging(
        "cactus", "rfl", 57, 206_407,
        tiers=(0.45, 0.40, 0.15),
        behavior=KernelBehavior(
            tier2_cov=0.3, tier3_modes=6, tier3_spread=40.0, tier3_mode_cov=0.18
        ),
        alias_groups=5, heterogeneity=0.25, drift=0.18, drift_factor=0.3,
        direction_sigma=0.75,
        size_correlation=0.92,
    ),
    _challenging(
        # spt: the paper's worst case for PKS (60.4% error with
        # first-chronological selection, 25.3% random, 17.9% centroid).
        "cactus", "spt", 43, 112_668,
        tiers=(0.25, 0.55, 0.20),
        behavior=KernelBehavior(
            tier2_cov=0.95, tier3_modes=12, tier3_spread=200.0, tier3_mode_cov=0.3
        ),
        alias_groups=2, heterogeneity=0.25, drift=0.5, drift_factor=0.06,
        turing_biased_fraction=0.5, turing_factor=0.70,
        direction_sigma=1.0,
        size_correlation=0.985,
    ),
]

_MLPERF = [
    _challenging(
        "mlperf", "3d-unet", 20, 113_183,
        tiers=(0.45, 0.45, 0.10),
        behavior=KernelBehavior(
            tier2_cov=0.7, tier3_modes=6, tier3_spread=30.0, tier3_mode_cov=0.18
        ),
        alias_groups=4, heterogeneity=0.25, drift=0.18, drift_factor=0.3,
        insn_scale=8.0e8, profiling_complexity=2.8,
        direction_sigma=0.65,
        size_correlation=0.85,
    ),
    _challenging(
        "mlperf", "bert", 11, 141_964,
        tiers=(0.50, 0.50, 0.0),
        behavior=KernelBehavior(tier2_cov=0.45),
        alias_groups=4, heterogeneity=0.25, drift=0.15, drift_factor=0.35,
        insn_scale=8.0e8, profiling_complexity=3.0,
        direction_sigma=0.55,
        size_correlation=0.85,
    ),
    _challenging(
        "mlperf", "resnet50", 20, 78_825,
        tiers=(0.60, 0.40, 0.0),
        behavior=KernelBehavior(tier2_cov=0.45),
        alias_groups=5, heterogeneity=0.25, drift=0.12, drift_factor=0.4,
        insn_scale=8.0e8, profiling_complexity=2.6,
        direction_sigma=0.45,
        size_correlation=0.8,
    ),
    _challenging(
        # rnnt: sequence-length-driven multimodality; PKS's 20-cluster cap
        # cannot cover the mode structure (46% error in the paper).
        "mlperf", "rnnt", 39, 205_440,
        tiers=(0.15, 0.55, 0.30),
        behavior=KernelBehavior(
            tier2_cov=0.9, tier3_modes=16, tier3_spread=150.0, tier3_mode_cov=0.3
        ),
        alias_groups=2, heterogeneity=0.25, drift=0.5, drift_factor=0.08,
        insn_scale=1.5e9, profiling_complexity=3.6,
        direction_sigma=1.0,
        size_correlation=0.98,
    ),
    _challenging(
        "mlperf", "ssd-mobilenet", 33, 64_138,
        tiers=(0.50, 0.35, 0.15),
        behavior=KernelBehavior(
            tier2_cov=0.3, tier3_modes=5, tier3_spread=25.0, tier3_mode_cov=0.18
        ),
        alias_groups=5, heterogeneity=0.25, drift=0.15, drift_factor=0.3,
        insn_scale=6.0e8, profiling_complexity=2.4,
        direction_sigma=0.6,
        size_correlation=0.85,
    ),
    _challenging(
        "mlperf", "ssd-resnet34", 26, 57_267,
        tiers=(0.45, 0.40, 0.15),
        behavior=KernelBehavior(
            tier2_cov=0.38, tier3_modes=5, tier3_spread=25.0, tier3_mode_cov=0.18
        ),
        alias_groups=5, heterogeneity=0.25, drift=0.18, drift_factor=0.3,
        insn_scale=6.0e8, profiling_complexity=2.4,
        direction_sigma=0.5,
        size_correlation=0.85,
    ),
]

_ALL: dict[str, WorkloadSpec] = {
    spec.label: spec
    for spec in [*_PARBOIL, *_RODINIA, *_SDK, *_CACTUS, *_MLPERF]
}
require(len(_ALL) == 40, "catalog must contain exactly the 40 Table I workloads")


def all_specs() -> list[WorkloadSpec]:
    """All 40 workload specs in Table I order.

    Deliberately excludes the :mod:`~repro.workloads.adversarial` suite:
    every figure/table driver and golden iterates this list, and the
    paper's experiments are defined over exactly the Table I inventory.
    Adversarial specs resolve through :func:`spec_for` and
    :func:`specs_for_suites` instead.
    """
    return list(_ALL.values())


#: ``(adversarial entries, extended catalog)`` of the last :func:`_extended`.
_extended_memo: tuple[tuple, dict[str, WorkloadSpec]] | None = None


def _extended() -> dict[str, WorkloadSpec]:
    """Catalog plus the committed fuzz-derived adversarial suite.

    Imported lazily: the adversarial module is regenerated by fuzzing
    campaigns, and a broken regeneration must not take down the whole
    catalog import. Rebuilt only when the adversarial entries change
    (their memo returns the same tuple while the promoted file does not).
    """
    from repro.workloads.adversarial import _all_entries

    global _extended_memo
    entries = _all_entries()
    if _extended_memo is None or _extended_memo[0] is not entries:
        specs = {entry.spec.label: entry.spec for entry in entries}
        _extended_memo = (entries, {**_ALL, **specs})
    return _extended_memo[1]


def specs_for_suites(suites: tuple[str, ...] | list[str]) -> list[WorkloadSpec]:
    """Specs belonging to the given suites, in Table I order.

    The ``adversarial`` suite (fuzz-derived regression workloads) is
    addressable here even though :func:`all_specs` excludes it.
    """
    return [spec for spec in _extended().values() if spec.suite in suites]


def spec_for(label_or_name: str) -> WorkloadSpec:
    """Look up a spec by ``suite/name`` label or bare workload name."""
    extended = _extended()
    if label_or_name in extended:
        return extended[label_or_name]
    matches = [s for s in extended.values() if s.name == label_or_name]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"no workload named {label_or_name!r}")
    labels = ", ".join(s.label for s in matches)
    raise KeyError(f"ambiguous workload name {label_or_name!r}: {labels}")


def workload_names(suites: tuple[str, ...] | list[str] | None = None) -> list[str]:
    """Bare workload names, optionally restricted to suites."""
    specs = all_specs() if suites is None else specs_for_suites(suites)
    return [spec.name for spec in specs]
