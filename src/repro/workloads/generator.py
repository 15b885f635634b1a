"""Deterministic synthetic workload generator.

Turns a :class:`~repro.workloads.spec.WorkloadSpec` into a concrete
:class:`WorkloadRun`: per-kernel hidden traits plus per-invocation
descriptor arrays (instruction counts, launch shapes, the 12 Table II
metric columns, and a global chronological order). All randomness is seeded
from the workload label, so generation is bit-reproducible.

The descriptors are whole-run columns, one batch over every invocation
that the kernels' batches view. Each kernel draws from its own generator,
in a fixed order; the columns derived from the draws are computed once
per row, a block of kernels at a time, with the same elementwise
arithmetic a kernel's rows alone would get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.gpu.kernel import BATCH_COLUMNS, InvocationBatch, KernelTraits
from repro.utils.seeding import rng_for
from repro.utils.validation import require
from repro.workloads.allocation import assign_tiers, largest_remainder
from repro.workloads.spec import MIN_TIER2_COV, Tier, WorkloadSpec

#: Candidate CTA sizes (threads per block) used by generated kernels.
CTA_SIZE_CHOICES = np.array([64, 128, 192, 256, 384, 512, 1024])

#: Shared memory per CTA (KiB) and registers per thread a kernel draws from.
SMEM_KIB_CHOICES = (8, 16, 32, 48)
REGS_PER_THREAD_CHOICES = (32, 40, 48, 56, 64)

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

#: About how many rows :func:`generate` derives columns for at a time.
#: Every step is elementwise, so the blocking changes no value.
BLOCK_ROWS = 16_384

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
    """One generated kernel: hidden traits + invocation descriptors.

    In a :class:`WorkloadRun`, ``batch`` is a view of the kernel's rows
    of the run's batch.
    """

    traits: KernelTraits
    batch: InvocationBatch
    intended_tier: Tier
    dominant_cta_size: int

    def __len__(self) -> int:
        return len(self.batch)


@dataclass(frozen=True)
class WorkloadRun:
    """A generated workload execution ready for profiling/measurement.

    ``batch`` holds every invocation of the run in kernel-major rows:
    kernel ``k`` owns rows ``starts[k]:starts[k] + len(kernels[k])``,
    and ``kernels[k].batch`` is a view of them. The execution record, the
    profilers and the golden measurement read these columns as they are.
    :func:`generate` writes them in place; :meth:`from_kernels` builds a
    run from kernels made elsewhere. Runs compare by their kernels.

    ``_records`` memoizes the run's execution record per architecture
    (:func:`repro.gpu.hardware.execution_record`), which the golden
    measurement and every profiler of the run read.
    """

    name: str
    suite: str
    spec: WorkloadSpec
    kernels: tuple[GeneratedKernel, ...]
    batch: InvocationBatch = field(compare=False, repr=False)
    starts: np.ndarray = field(compare=False, repr=False)  # int64, read-only
    _records: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.starts.flags.writeable = False
        require(len(self.starts) == len(self.kernels), "one start per kernel")
        rising = np.diff(self.batch.chrono_index) > 0
        # Row i + 1 may start the next kernel, at any chronological position.
        inner = (self.starts > 0) & (self.starts < len(self.batch))
        rising[self.starts[inner] - 1] = True
        require(bool(rising.all()), "chronology must increase within each kernel")

    @classmethod
    def from_kernels(
        cls,
        name: str,
        suite: str,
        spec: WorkloadSpec,
        kernels: Sequence[GeneratedKernel],
    ) -> "WorkloadRun":
        """A run of ``kernels``, their batches concatenated into its rows."""
        sizes = np.array([len(k) for k in kernels], dtype=np.int64)
        batch = InvocationBatch(
            **{
                column: np.concatenate([getattr(k.batch, column) for k in kernels])
                for column in BATCH_COLUMNS
            }
        )
        starts = np.cumsum(sizes) - sizes
        views = tuple(
            replace(k, batch=batch.rows(slice(start, start + len(k))))
            for start, k in zip(starts.tolist(), kernels)
        )
        return cls(name=name, suite=suite, spec=spec, kernels=views, batch=batch, starts=starts)

    @property
    def label(self) -> str:
        return f"{self.suite}/{self.name}"

    @property
    def sizes(self) -> np.ndarray:
        """Invocations per kernel."""
        return np.diff(self.starts, append=len(self.batch))

    @property
    def num_invocations(self) -> int:
        return len(self.batch)

    @property
    def total_instructions(self) -> int:
        return int(self.batch.insn_count.sum())

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


def _insn_values(
    spec: WorkloadSpec,
    tier: Tier,
    base: float,
    count: int,
    rng: np.random.Generator,
) -> float | np.ndarray:
    """Per-invocation thread-level instruction counts for one kernel,
    before rounding: a Tier-1 kernel's one value, else an array."""
    behavior = spec.behavior
    if tier is Tier.TIER1:
        return base
    if tier is Tier.TIER2:
        cov = float(rng.uniform(MIN_TIER2_COV, behavior.tier2_cov))
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

    if count > 1:
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
    return values


#: The Table II columns a kernel draws as ``rint(insn × rate × jitter)``,
#: with the :class:`MetricMix` rate behind each, in the kernel's draw
#: order. Its divergence draw falls between the third and the fourth.
_RATE_COLUMNS = (
    ("thread_global_loads", "global_load_rate"),
    ("thread_global_stores", "global_store_rate"),
    ("thread_local_loads", "local_rate"),
    ("thread_shared_loads", "shared_load_rate"),
    ("thread_shared_stores", "shared_store_rate"),
    ("thread_global_atomics", "atomic_rate"),
)


class _RunColumns:
    """A run's whole-run columns, derived one block of kernels at a time.

    Kernel ``k`` owns rows ``starts[k]:starts[k] + counts[k]``. A block
    is the kernels that start within one :data:`BLOCK_ROWS` window. Each
    kernel of a block draws its invocations from its own generator into
    the block's buffers (:meth:`draw`); :meth:`derive` then computes the
    block's columns while its draws are in cache. Each element sees the
    arithmetic a kernel's rows alone would: elementwise ``+ - * /``,
    ``rint``, ``maximum``, ``clip`` and casts, in the same order.
    """

    def __init__(self, counts: np.ndarray):
        n = int(counts.sum())
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        firsts = np.flatnonzero(np.diff(self.starts // BLOCK_ROWS, prepend=-1)).tolist()
        self.blocks = list(zip(firsts, [*firsts[1:], len(counts)]))
        self.columns = {name: np.empty(n, dtype=np.int64) for name in BATCH_COLUMNS}
        self.columns["cta_size"] = np.empty(n, dtype=np.int32)
        self.columns["divergence_efficiency"] = np.empty(n)
        self.start_times = np.empty(n)
        # One block's draws, at rows relative to its first (``_offset``).
        size = max(int(counts[first:stop].sum()) for first, stop in self.blocks)
        self.insn = np.empty(size)  # before rounding
        self.use_dominant = np.empty(size)
        self.alt_size = np.zeros(size, dtype=np.int64)  # among the other sizes
        self.jitter = np.empty((len(_RATE_COLUMNS), size))
        self.divergence = np.empty(size)
        self._offset = 0

    def draw(
        self,
        k: int,
        spec: WorkloadSpec,
        tier: Tier,
        mix: MetricMix,
        base_insn: float,
        rng: np.random.Generator,
    ) -> None:
        """Kernel ``k``'s invocation draws, up to its divergence noise."""
        count = int(self.counts[k])
        start = int(self.starts[k]) - self._offset
        rows = slice(start, start + count)
        self.insn[rows] = _insn_values(spec, tier, base_insn, count, rng)
        if tier is Tier.TIER1:
            self.use_dominant[rows] = 0.0  # no draw: always the dominant size
            sigma = TIER1_METRIC_JITTER_SIGMA
        else:
            rng.random(out=self.use_dominant[rows])
            self.alt_size[rows] = rng.integers(0, len(CTA_SIZE_CHOICES) - 1, size=count)
            sigma = METRIC_JITTER_SIGMA
        for j, (_, rate) in enumerate(_RATE_COLUMNS):
            if j == 3:  # after thread_local_loads, where kernels draw it
                self.divergence[rows] = rng.normal(0.0, 0.01, count)
            if getattr(mix, rate) > 0:
                self.jitter[j, rows] = rng.lognormal(0.0, sigma, count)
            else:  # no draw: the column is rint(insn × 0 × 0)
                self.jitter[j, rows] = 0.0

    def launch_times(self, k: int, rng: np.random.Generator) -> None:
        """Kernel ``k``'s launch times: sorted uniforms preserve its
        chronology (index order) while interleaving kernels globally."""
        rows = slice(int(self.starts[k]), int(self.starts[k] + self.counts[k]))
        rng.random(out=self.start_times[rows])
        self.start_times[rows].sort()

    def derive(
        self, first: int, stop: int, mixes: Sequence[MetricMix], dominant_index: np.ndarray
    ) -> None:
        """The derived columns of kernels ``first:stop``, the block just drawn.

        Each row gets its kernel's constants; a block of one kernel, often
        a large one, broadcasts them instead. Assigning a float array to
        an integer column casts it as ``astype`` would.
        """
        counts = self.counts[first:stop]
        n = int(counts.sum())
        rows = slice(self._offset, self._offset + n)
        out = {name: column[rows] for name, column in self.columns.items()}

        def per_row(values) -> np.ndarray:
            values = np.asarray(values)
            return values if stop - first == 1 else np.repeat(values, counts, axis=-1)

        out["insn_count"][:] = np.maximum(np.rint(self.insn[:n]), 1024.0)
        insn_f = out["insn_count"].astype(np.float64)
        # The other sizes keep their order, so draw j is size j, skipping
        # the dominant one.
        dominant = per_row(dominant_index)
        alt = self.alt_size[:n]
        size_index = np.where(
            self.use_dominant[:n] < DOMINANT_CTA_PROBABILITY, dominant, alt + (alt >= dominant)
        )
        out["cta_size"][:] = CTA_SIZE_CHOICES[size_index]
        threads = np.maximum(insn_f / per_row([m.insn_per_thread for m in mixes]), 1.0)
        out["num_ctas"][:] = np.maximum(np.rint(threads / out["cta_size"]), 1.0)
        np.clip(
            per_row([m.divergence for m in mixes]) + self.divergence[:n],
            0.5,
            1.0,
            out=out["divergence_efficiency"],
        )
        rates = per_row([[getattr(m, rate) for m in mixes] for _, rate in _RATE_COLUMNS])
        for j, (column, _) in enumerate(_RATE_COLUMNS):
            out[column][:] = np.rint(insn_f * rates[j] * self.jitter[j, :n])
        # Transactions per warp-level access: 1 when fully coalesced, up to
        # 32 when fully scattered.
        txn_per_access = per_row([1.0 + 31.0 * (1.0 - m.coalescing) for m in mixes])
        for kind in ("global_loads", "global_stores", "local_loads"):
            out[f"coalesced_{kind}"][:] = np.rint(out[f"thread_{kind}"] / 32.0 * txn_per_access)
        self._offset += n

    def batch(self) -> InvocationBatch:
        """The run's batch, with each row's global chronological position."""
        global_order = np.argsort(self.start_times, kind="stable")
        self.columns["chrono_index"][global_order] = np.arange(len(global_order))
        return InvocationBatch(**self.columns)


def _sample_traits(
    spec: WorkloadSpec,
    kernel_name: str,
    turing_biased: bool,
    rng: np.random.Generator,
) -> KernelTraits:
    """Draw one kernel's hidden microarchitectural behaviour."""
    smem = 0
    if rng.random() >= 0.5:
        smem = SMEM_KIB_CHOICES[rng.integers(0, len(SMEM_KIB_CHOICES))] * 1024
    arch_efficiency = {"turing": spec.turing_factor} if turing_biased else {}
    return KernelTraits(
        name=kernel_name,
        # Capped at 64 so any CTA size up to 1024 threads can launch within
        # the 64K-register SM file (as nvcc's launch bounds would enforce).
        regs_per_thread=REGS_PER_THREAD_CHOICES[rng.integers(0, len(REGS_PER_THREAD_CHOICES))],
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

    # --- per-kernel draws and whole-run columns, one block at a time -------
    run_columns = _RunColumns(counts)
    tiers = [Tier(t + 1) for t in tier_indices.tolist()]
    mixes: list[MetricMix] = []
    dominant_index = np.empty(spec.num_kernels, dtype=np.int64)
    traits: list[KernelTraits] = []
    for first, stop in run_columns.blocks:
        for k in range(first, stop):
            tier = tiers[k]
            kernel_rng = rng_for("kernel", spec.suite, spec.name, k)
            mix = _jittered_mix(family_mixes[family_of[k]], kernel_rng, spec.metric_direction_sigma)
            dominant_index[k] = kernel_rng.integers(0, len(CTA_SIZE_CHOICES))
            base_insn = (
                spec.insn_scale
                * float(family_scale[family_of[k]])
                * float(kernel_rng.lognormal(0.0, 0.3))
            )
            if tier is not Tier.TIER1:
                dominant_cta = int(CTA_SIZE_CHOICES[dominant_index[k]])
                floor = MIN_VARIABLE_KERNEL_CTAS * mix.insn_per_thread * dominant_cta
                base_insn = max(base_insn, floor)
            run_columns.draw(k, spec, tier, mix, base_insn, kernel_rng)
            traits.append(
                _sample_traits(spec, f"{spec.name}_k{k:03d}", bool(biased[k]), kernel_rng)
            )
            run_columns.launch_times(k, kernel_rng)
            mixes.append(mix)
        run_columns.derive(first, stop, mixes[first:stop], dominant_index[first:stop])

    batch = run_columns.batch()
    starts = run_columns.starts
    dominant_sizes = CTA_SIZE_CHOICES[dominant_index].tolist()
    kernels = tuple(
        GeneratedKernel(
            traits=traits[k],
            batch=batch.rows(slice(start, start + count)),
            intended_tier=tiers[k],
            dominant_cta_size=dominant_sizes[k],
        )
        for k, (start, count) in enumerate(zip(starts.tolist(), counts.tolist()))
    )
    return WorkloadRun(
        name=spec.name, suite=spec.suite, spec=spec, kernels=kernels, batch=batch, starts=starts
    )
