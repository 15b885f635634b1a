"""Deterministic synthetic workload generator.

Turns a :class:`~repro.workloads.spec.WorkloadSpec` into a concrete
:class:`WorkloadRun`: per-kernel hidden traits plus per-invocation
descriptor arrays (instruction counts, launch shapes, the 12 Table II
metric columns, and a global chronological order). All randomness is seeded
from the workload label, so generation is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.kernel import InvocationBatch, KernelTraits
from repro.utils.seeding import rng_for
from repro.utils.validation import require
from repro.workloads.allocation import assign_tiers, largest_remainder
from repro.workloads.spec import Tier, WorkloadSpec

#: Candidate CTA sizes (threads per block) used by generated kernels.
CTA_SIZE_CHOICES = np.array([64, 128, 192, 256, 384, 512, 1024])

#: Probability that a variable-size invocation uses its kernel's dominant
#: CTA size (launcher heuristics occasionally pick a different block size
#: for unusual problem sizes). Tier-1 kernels always use one CTA size:
#: an identical instruction count implies an identical launch.
DOMINANT_CTA_PROBABILITY = 0.95

#: Per-invocation multiplicative jitter (lognormal sigma) on metric
#: columns. Mild: an instruction mix is a property of the kernel's code
#: path, so same-size invocations execute near-identical streams. Tier-1
#: kernels (bit-identical work) use the tighter value.
METRIC_JITTER_SIGMA = 0.015
TIER1_METRIC_JITTER_SIGMA = 0.005

#: Tier-2/Tier-3 kernels are floored at this many CTAs per invocation so
#: variable-size kernels operate in the steady multi-wave regime (tiny
#: kernels in real workloads are overwhelmingly fixed-size, i.e. Tier-1).
MIN_VARIABLE_KERNEL_CTAS = 160


@dataclass(frozen=True)
class MetricMix:
    """Per-instruction metric rates shared by an alias family of kernels."""

    global_load_rate: float
    global_store_rate: float
    shared_load_rate: float
    shared_store_rate: float
    local_rate: float
    atomic_rate: float
    coalescing: float  # 1.0 = fully coalesced, 0.0 = fully scattered
    divergence: float  # mean divergence efficiency
    insn_per_thread: float  # thread-level instructions per launched thread


@dataclass(frozen=True)
class GeneratedKernel:
    """One generated kernel: hidden traits + invocation descriptors."""

    traits: KernelTraits
    batch: InvocationBatch
    intended_tier: Tier
    dominant_cta_size: int

    def __len__(self) -> int:
        return len(self.batch)


@dataclass(frozen=True)
class WorkloadRun:
    """A generated workload execution ready for profiling/measurement.

    ``_records`` memoizes the run's execution record per architecture
    (:func:`repro.gpu.hardware.execution_record`), which the golden
    measurement and every profiler of the run read.
    """

    name: str
    suite: str
    spec: WorkloadSpec
    kernels: tuple[GeneratedKernel, ...]
    _records: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def label(self) -> str:
        return f"{self.suite}/{self.name}"

    @property
    def num_invocations(self) -> int:
        return sum(len(k) for k in self.kernels)

    @property
    def total_instructions(self) -> int:
        return int(sum(int(k.batch.insn_count.sum()) for k in self.kernels))

    def kernel_by_name(self, name: str) -> GeneratedKernel:
        for kernel in self.kernels:
            if kernel.traits.name == name:
                return kernel
        raise KeyError(f"no kernel named {name!r} in {self.label}")


def _sample_mix(rng: np.random.Generator) -> MetricMix:
    """Draw one alias family's metric-rate template."""
    shared_load = float(rng.uniform(0.0, 0.10)) if rng.random() < 0.7 else 0.0
    return MetricMix(
        global_load_rate=float(rng.uniform(0.02, 0.12)),
        global_store_rate=float(rng.uniform(0.005, 0.05)),
        shared_load_rate=shared_load,
        shared_store_rate=shared_load * float(rng.uniform(0.3, 0.7)),
        local_rate=float(rng.uniform(0.0, 0.01)) if rng.random() < 0.3 else 0.0,
        atomic_rate=float(rng.uniform(0.0, 0.004)) if rng.random() < 0.3 else 0.0,
        coalescing=float(rng.uniform(0.5, 1.0)),
        divergence=float(rng.uniform(0.75, 1.0)),
        insn_per_thread=float(rng.lognormal(math.log(700.0), 0.4)),
    )


def _jittered_mix(mix: MetricMix, rng: np.random.Generator, sigma: float) -> MetricMix:
    """Perturb a family template into one kernel's concrete rates."""

    def jitter(value: float) -> float:
        return value * float(rng.lognormal(0.0, sigma)) if value > 0 else 0.0

    return MetricMix(
        global_load_rate=jitter(mix.global_load_rate),
        global_store_rate=jitter(mix.global_store_rate),
        shared_load_rate=jitter(mix.shared_load_rate),
        shared_store_rate=jitter(mix.shared_store_rate),
        local_rate=jitter(mix.local_rate),
        atomic_rate=jitter(mix.atomic_rate),
        coalescing=min(1.0, jitter(mix.coalescing)),
        divergence=float(np.clip(jitter(mix.divergence), 0.5, 1.0)),
        insn_per_thread=jitter(mix.insn_per_thread),
    )


def _lognormal_with_cov(
    rng: np.random.Generator, mean: float, cov: float, size: int
) -> np.ndarray:
    """Draw lognormal samples with the requested mean and CoV."""
    if cov <= 0:
        return np.full(size, mean)
    sigma = math.sqrt(math.log(1.0 + cov * cov))
    return rng.lognormal(math.log(mean) - 0.5 * sigma * sigma, sigma, size)


def _insn_counts(
    spec: WorkloadSpec,
    tier: Tier,
    base: float,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-invocation thread-level instruction counts for one kernel."""
    behavior = spec.behavior
    if tier is Tier.TIER1:
        values = np.full(count, base)
    elif tier is Tier.TIER2:
        cov = float(rng.uniform(0.02, behavior.tier2_cov))
        values = _lognormal_with_cov(rng, base, cov, count)
    else:
        modes = behavior.tier3_modes
        span = behavior.tier3_spread
        centers = base * span ** (np.linspace(0.0, 1.0, modes) - 0.5)
        # Small invocations are more numerous (power-law population), so
        # the many-small-calls end of the spectrum carries real cycle mass.
        mode_weights = centers ** (-behavior.tier3_count_exponent)
        mode_weights = mode_weights * rng.lognormal(0.0, 0.5, modes)
        mode_weights = mode_weights / mode_weights.sum()
        assignment = rng.choice(modes, size=count, p=mode_weights)
        values = np.empty(count)
        for mode in range(modes):
            members = assignment == mode
            n_members = int(members.sum())
            if n_members:
                values[members] = _lognormal_with_cov(
                    rng, float(centers[mode]), behavior.tier3_mode_cov, n_members
                )

    if tier is not Tier.TIER1 and count > 1:
        # Ramp-up: reorder the sequence so launch time correlates with
        # invocation size (index order IS within-kernel chronology).
        correlation = spec.chrono_size_correlation
        if correlation > 0:
            ranks = np.argsort(np.argsort(values)) / max(count - 1, 1)
            keys = correlation * ranks + (1.0 - correlation) * rng.random(count)
            values = values[np.argsort(keys, kind="stable")]
        # Warm-up: the earliest invocations of highly variable kernels
        # execute reduced work (growing working sets). Tier-2 kernels stay
        # genuinely low-variability, as Figure 2 observes.
        if tier is Tier.TIER3 and spec.drift_fraction > 0:
            drifted = max(1, math.ceil(spec.drift_fraction * count))
            values[:drifted] = values[:drifted] * spec.drift_factor

    return np.maximum(np.rint(values), 1024.0).astype(np.int64)


def _build_batch(
    spec: WorkloadSpec,
    mix: MetricMix,
    insn: np.ndarray,
    dominant_cta: int,
    tier: Tier,
    rng: np.random.Generator,
) -> InvocationBatch:
    """Derive launch shapes and Table II metric columns from insn counts."""
    count = len(insn)
    insn_f = insn.astype(np.float64)

    if tier is Tier.TIER1:
        cta_size = np.full(count, dominant_cta, dtype=np.int32)
        jitter_sigma = TIER1_METRIC_JITTER_SIGMA
    else:
        alt_sizes = CTA_SIZE_CHOICES[CTA_SIZE_CHOICES != dominant_cta]
        use_dominant = rng.random(count) < DOMINANT_CTA_PROBABILITY
        cta_size = np.where(
            use_dominant, dominant_cta, rng.choice(alt_sizes, size=count)
        ).astype(np.int32)
        jitter_sigma = METRIC_JITTER_SIGMA

    threads = np.maximum(insn_f / mix.insn_per_thread, 1.0)
    num_ctas = np.maximum(np.rint(threads / cta_size), 1.0).astype(np.int64)

    def metric(rate: float) -> np.ndarray:
        if rate <= 0:
            return np.zeros(count, dtype=np.int64)
        jitter = rng.lognormal(0.0, jitter_sigma, count)
        return np.rint(insn_f * rate * jitter).astype(np.int64)

    thread_gl = metric(mix.global_load_rate)
    thread_gs = metric(mix.global_store_rate)
    thread_ll = metric(mix.local_rate)
    # Transactions per warp-level access: 1 when fully coalesced, up to 32
    # when fully scattered.
    txn_per_access = 1.0 + 31.0 * (1.0 - mix.coalescing)
    coalesced = lambda thread_level: np.rint(  # noqa: E731 - tiny local helper
        thread_level / 32.0 * txn_per_access
    ).astype(np.int64)

    divergence = np.clip(
        mix.divergence + rng.normal(0.0, 0.01, count), 0.5, 1.0
    )

    return InvocationBatch(
        insn_count=insn,
        cta_size=cta_size,
        num_ctas=num_ctas,
        coalesced_global_loads=coalesced(thread_gl),
        coalesced_global_stores=coalesced(thread_gs),
        coalesced_local_loads=coalesced(thread_ll),
        thread_global_loads=thread_gl,
        thread_global_stores=thread_gs,
        thread_local_loads=thread_ll,
        thread_shared_loads=metric(mix.shared_load_rate),
        thread_shared_stores=metric(mix.shared_store_rate),
        thread_global_atomics=metric(mix.atomic_rate),
        divergence_efficiency=divergence,
        chrono_index=np.zeros(count, dtype=np.int64),  # filled in by generate()
    )


def _sample_traits(
    spec: WorkloadSpec,
    kernel_name: str,
    turing_biased: bool,
    rng: np.random.Generator,
) -> KernelTraits:
    """Draw one kernel's hidden microarchitectural behaviour."""
    smem = 0 if rng.random() < 0.5 else int(rng.choice([8, 16, 32, 48])) * 1024
    arch_efficiency = {"turing": spec.turing_factor} if turing_biased else {}
    return KernelTraits(
        name=kernel_name,
        # Capped at 64 so any CTA size up to 1024 threads can launch within
        # the 64K-register SM file (as nvcc's launch bounds would enforce).
        regs_per_thread=int(rng.choice([32, 40, 48, 56, 64])),
        smem_per_cta=smem,
        ilp=float(rng.uniform(1.2, 3.5)),
        l1_hit_rate=float(rng.uniform(0.2, 0.9)),
        l2_hit_rate=float(rng.uniform(0.2, 0.7)),
        fp_ratio=float(rng.uniform(0.15, 0.85)),
        sfu_ratio=float(rng.uniform(0.0, 0.05)),
        personality=float(rng.lognormal(0.0, spec.heterogeneity)),
        measurement_noise_cov=spec.measurement_noise_cov,
        arch_efficiency=arch_efficiency,
    )


def generate(
    spec: WorkloadSpec, max_invocations: int | None = None
) -> WorkloadRun:
    """Generate the workload described by ``spec``.

    ``max_invocations`` optionally caps the invocation budget (see
    :meth:`WorkloadSpec.scaled`); per-kernel structure is preserved.
    """
    if max_invocations is not None:
        spec = spec.scaled(max_invocations)
    rng = rng_for("workload", spec.suite, spec.name)

    # --- invocation counts per kernel -------------------------------------
    ranks = rng.permutation(spec.num_kernels) + 1
    weights = ranks.astype(np.float64) ** (-spec.invocation_skew)
    if spec.dominant_kernel_share > 0 and spec.num_kernels > 1:
        weights = weights / weights.sum() * (1.0 - spec.dominant_kernel_share)
        weights[0] = spec.dominant_kernel_share
    counts = largest_remainder(weights, spec.num_invocations)

    # --- tier assignment ---------------------------------------------------
    tier_order = rng.permutation(spec.num_kernels)
    tier_indices = assign_tiers(counts, spec.tier_fractions, tier_order)
    if spec.dominant_kernel_share > 0:
        tier_indices[0] = 2  # the dominant kernel is the highly variable one

    # --- alias families ----------------------------------------------------
    # Kernels in a family share both a metric-mix template and a base
    # invocation size scale: aliased kernels occupy the same region of the
    # 12-D characteristic space at the same magnitudes, which is what makes
    # PKS clusters mix kernels whose hidden behaviour differs. Fixed-size
    # (Tier-1) utility kernels draw from families disjoint from the
    # variable-size compute kernels: a copy/reduction kernel's instruction
    # mix looks nothing like a solver or convolution kernel's.
    family_mixes = [_sample_mix(rng) for _ in range(spec.alias_groups)]
    family_scale = np.exp(rng.normal(0.0, spec.insn_kernel_sigma, spec.alias_groups))
    tier1_families = max(1, spec.alias_groups // 2)
    variable_start = min(tier1_families, spec.alias_groups - 1)
    family_of = np.where(
        tier_indices == 0,
        rng.integers(0, tier1_families, size=spec.num_kernels),
        rng.integers(variable_start, spec.alias_groups, size=spec.num_kernels),
    )

    # --- arch affinity -----------------------------------------------------
    n_biased = int(round(spec.turing_biased_fraction * spec.num_kernels))
    biased = np.zeros(spec.num_kernels, dtype=bool)
    if n_biased:
        biased[rng.choice(spec.num_kernels, size=n_biased, replace=False)] = True

    # --- per-kernel generation ---------------------------------------------
    kernels: list[GeneratedKernel] = []
    start_times: list[np.ndarray] = []
    for k in range(spec.num_kernels):
        kernel_rng = rng_for("kernel", spec.suite, spec.name, k)
        kernel_name = f"{spec.name}_k{k:03d}"
        tier = Tier(tier_indices[k] + 1)
        mix = _jittered_mix(family_mixes[family_of[k]], kernel_rng, spec.metric_direction_sigma)
        dominant_cta = int(kernel_rng.choice(CTA_SIZE_CHOICES))
        base_insn = (
            spec.insn_scale
            * float(family_scale[family_of[k]])
            * float(kernel_rng.lognormal(0.0, 0.3))
        )
        if tier is not Tier.TIER1:
            floor = MIN_VARIABLE_KERNEL_CTAS * mix.insn_per_thread * dominant_cta
            base_insn = max(base_insn, floor)
        insn = _insn_counts(spec, tier, base_insn, int(counts[k]), kernel_rng)
        batch = _build_batch(spec, mix, insn, dominant_cta, tier, kernel_rng)
        traits = _sample_traits(spec, kernel_name, bool(biased[k]), kernel_rng)
        kernels.append(
            GeneratedKernel(
                traits=traits,
                batch=batch,
                intended_tier=tier,
                dominant_cta_size=dominant_cta,
            )
        )
        # Per-kernel launch times: sorted uniforms preserve within-kernel
        # chronology (index order) while interleaving kernels globally.
        start_times.append(np.sort(kernel_rng.random(int(counts[k]))))

    # --- global chronological order ----------------------------------------
    all_times = np.concatenate(start_times)
    owner = np.concatenate(
        [np.full(int(counts[k]), k, dtype=np.int64) for k in range(spec.num_kernels)]
    )
    global_order = np.argsort(all_times, kind="stable")
    chrono_of_flat = np.empty(len(all_times), dtype=np.int64)
    chrono_of_flat[global_order] = np.arange(len(all_times))
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    for k, kernel in enumerate(kernels):
        span = slice(int(offsets[k]), int(offsets[k] + counts[k]))
        kernel.batch.chrono_index[:] = chrono_of_flat[span]
        require(bool(np.all(owner[span] == k)), "chronology bookkeeping broken")

    return WorkloadRun(
        name=spec.name, suite=spec.suite, spec=spec, kernels=tuple(kernels)
    )
