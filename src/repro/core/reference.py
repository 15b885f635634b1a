"""Retained reference implementations of rewritten hot paths.

The profile-side math (stratify/CoV, KDE splits, golden-cycle alignment,
the harmonic-mean predictor, PKS cluster bookkeeping) runs as grouped
numpy array ops since the vectorization pass. These are the *pre-
vectorization* per-kernel / per-row Python loops, kept verbatim (minus
telemetry emission) for two reasons:

* the hypothesis property tests in
  ``tests/core/test_vectorized_reference.py`` pin every vectorized path
  equal to its scalar reference across methods x workloads x caps;
* ``scripts/scale_smoke.py`` times them against the vectorized paths on
  a cap=100k synthetic profile, turning the speedup into a pinned,
  regression-gated number (``BENCH_scale.json``).

:class:`ReferenceKMeans` and :class:`ReferenceBisectingKMeans` are PKS's
row-major k-means as it was before the feature-major rewrite of
:mod:`repro.baselines.kmeans`, verbatim but for the bisection's stop on
an empty half; ``tests/core/test_kmeans_reference.py`` pins the rewrite
to them bit for bit.

The GPU model's per-kernel path is kept the same way: occupancy over each
distinct CTA size, :func:`reference_invocation_timing` and
:func:`reference_memory_traffic` per kernel, :class:`ReferenceHardwareExecutor`
measuring kernel by kernel, and the profilers' chronological flatten and
per-kernel native runtimes. Production evaluates one execution record per
(run, architecture) instead (:func:`repro.gpu.hardware.execution_record`);
``tests/core/test_record_reference.py`` pins it, the golden measurement,
both profile tables and both profiling costs to these bit for bit.
They keep the original arithmetic line for line (comments dropped);
``reference_invocation_timing`` also returns the DRAM bytes it computed.

Nothing in the production pipeline calls this module.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.kmeans import KMeansResult
from repro.core.config import SieveConfig
from repro.core.kde import kde_strata
from repro.core.prediction import PredictionResult, predict_cycles, predict_ipc
from repro.core.stratify import Stratum
from repro.core.tiers import classify_invocations
from repro.core.types import SampleSelection
from repro.evaluation.imputation import (
    kernel_mean_cycles,
    kernel_mean_ipc,
    measured_ipc_or_none,
)
from repro.gpu.arch import SECTOR_BYTES, WARP_SIZE, GpuArchitecture
from repro.gpu.hardware import KernelMeasurement, WorkloadLike, WorkloadMeasurement
from repro.gpu.kernel import InvocationBatch, KernelTraits
from repro.gpu.memory import MemoryTraffic
from repro.gpu.occupancy import occupancy_for
from repro.gpu.timing import (
    ALU_LATENCY,
    ATOMIC_THROUGHPUT,
    L1_HIT_LATENCY,
    L2_HIT_LATENCY,
    OVERLAP_RESIDUAL,
    WAVE_TAIL_PENALTY,
    TimingBreakdown,
)
from repro.profiling.cost import ProfilingCost, ProfilingCostModel
from repro.profiling.metrics import PKS_METRICS
from repro.profiling.table import ProfileTable
from repro.utils.seeding import rng_for
from repro.utils.stats import coefficient_of_variation
from repro.utils.validation import require
from repro.workloads.generator import WorkloadRun
from repro.workloads.spec import Tier


def stratify_table_scalar(
    table: ProfileTable, config: SieveConfig
) -> list[Stratum]:
    """Pre-vectorization ``stratify_table``: one pass per kernel.

    ``rows_for_kernel`` scans the whole kernel-id column once per kernel,
    which is the O(rows x kernels) behaviour the grouped implementation
    replaced.
    """
    strata: list[Stratum] = []
    for kernel_id in range(table.num_kernels):
        rows = table.rows_for_kernel(kernel_id)
        if len(rows) == 0:
            continue
        insn = table.insn_count[rows]
        bad = insn <= 0
        if bad.any():
            insn = np.where(bad, 1, insn)
        classification = classify_invocations(insn, config.theta)
        if classification.tier in (Tier.TIER1, Tier.TIER2):
            groups = [np.arange(len(rows))]
        else:
            groups = kde_strata(
                insn,
                config.theta,
                grid_points=config.kde_grid_points,
                bandwidth_scale=config.kde_bandwidth_scale,
            )
        for index, group in enumerate(groups):
            order = np.sort(group)
            member_rows = rows[order]
            member_insn = insn[order]
            strata.append(
                Stratum(
                    kernel_id=kernel_id,
                    kernel_name=table.kernel_names[kernel_id],
                    tier=classification.tier,
                    index=index,
                    rows=member_rows,
                    insn_total=int(member_insn.sum()),
                    insn_cov=coefficient_of_variation(member_insn),
                )
            )
    return strata


def split_by_boundaries_scalar(
    values: np.ndarray, boundaries: np.ndarray
) -> list[np.ndarray]:
    """Pre-vectorization KDE split: one ``flatnonzero`` scan per bin."""
    if len(boundaries) == 0:
        return [np.arange(len(values))]
    bins = np.digitize(values, boundaries)
    return [np.flatnonzero(bins == b) for b in np.unique(bins)]


def cycles_in_table_order_scalar(
    table: ProfileTable, measurement: WorkloadMeasurement
) -> np.ndarray:
    """Pre-vectorization golden-cycle alignment: per-kernel row scans."""
    cycles = np.full(len(table), np.nan, dtype=np.float64)
    for kernel_id, kernel_name in enumerate(table.kernel_names):
        rows = table.rows_for_kernel(kernel_id)
        if len(rows) == 0:
            continue
        per_kernel = measurement.per_kernel.get(kernel_name)
        if per_kernel is None:
            continue
        ids = table.invocation_id[rows]
        valid = (ids >= 0) & (ids < len(per_kernel.cycles))
        values = np.full(len(rows), np.nan)
        values[valid] = per_kernel.cycles[ids[valid]].astype(np.float64)
        values[values <= 0] = np.nan
        cycles[rows] = values

    bad = ~np.isfinite(cycles)
    if bad.any():
        for kernel_id, kernel_name in enumerate(table.kernel_names):
            rows = table.rows_for_kernel(kernel_id)
            kernel_bad = rows[bad[rows]] if len(rows) else rows
            if len(kernel_bad) == 0:
                continue
            fallback = kernel_mean_cycles(kernel_name, measurement)
            if fallback is not None:
                cycles[kernel_bad] = fallback
        still_bad = ~np.isfinite(cycles)
        if still_bad.any():
            finite = cycles[~still_bad]
            cycles[still_bad] = float(finite.mean()) if len(finite) else 0.0
    return cycles


def sieve_predict_scalar(
    selection: SampleSelection, measurement: WorkloadMeasurement
) -> PredictionResult:
    """Pre-vectorization harmonic-mean predictor: one lookup per rep."""
    reps = selection.representatives
    ipc = np.empty(len(reps), dtype=np.float64)
    missing: list[int] = []
    for i, rep in enumerate(reps):
        value = measured_ipc_or_none(rep, measurement)
        if value is None:
            value = kernel_mean_ipc(rep.kernel_name, measurement)
            if value is None:
                missing.append(i)
                continue
        ipc[i] = value

    if missing:
        usable = [i for i in range(len(reps)) if i not in set(missing)]
        if not usable:
            raise ValueError("no representative has a usable measurement")
        fallback = float(ipc[usable].mean())
        for i in missing:
            ipc[i] = fallback

    weights = np.array([r.weight for r in reps], dtype=np.float64)
    if not np.isfinite(weights).all() or weights.sum() <= 0:
        weights = np.full(len(reps), 1.0 / len(reps))
    predicted_ipc = predict_ipc(ipc, weights)
    normalized = weights / weights.sum()
    contributions = selection.total_instructions * normalized / ipc
    return PredictionResult(
        workload=selection.workload,
        method=selection.method,
        predicted_cycles=predict_cycles(
            selection.total_instructions, predicted_ipc
        ),
        predicted_ipc=predicted_ipc,
        num_representatives=len(reps),
        contributions=tuple(float(c) for c in contributions),
    )


def pks_representative_rows_scalar(
    table: ProfileTable,
    projected: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    policy: str,
) -> tuple[list[int], list[np.ndarray]]:
    """Pre-vectorization PKS cluster bookkeeping: one scan per cluster."""
    rows: list[int] = []
    members: list[np.ndarray] = []
    for cluster in range(len(centroids)):
        cluster_rows = np.flatnonzero(labels == cluster)
        if len(cluster_rows) == 0:
            continue
        if policy == "first":
            row = int(cluster_rows[0])
        elif policy == "random":
            rng = rng_for("pks-select", table.workload, cluster, len(centroids))
            row = int(cluster_rows[rng.integers(len(cluster_rows))])
        else:  # centroid
            deltas = projected[cluster_rows] - centroids[cluster]
            row = int(
                cluster_rows[np.argmin(np.einsum("ij,ij->i", deltas, deltas))]
            )
        rows.append(row)
        members.append(cluster_rows)
    return rows, members


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) matrix of squared Euclidean distances."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, computed blockwise for memory.
    x_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    return np.maximum(x_sq - 2.0 * points @ centroids.T + c_sq, 0.0)


class ReferenceKMeans:
    """Row-major Lloyd's algorithm with k-means++ seeding."""

    def __init__(
        self,
        k: int,
        seed_label: str,
        max_iterations: int = 50,
        fit_sample_size: int | None = 20_000,
        n_init: int = 4,
    ):
        require(k >= 1, "k must be >= 1")
        require(max_iterations >= 1, "need at least one iteration")
        require(n_init >= 1, "need at least one initialization")
        self.k = k
        self.seed_label = seed_label
        self.max_iterations = max_iterations
        self.fit_sample_size = fit_sample_size
        self.n_init = n_init

    def _plus_plus_init(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = len(points)
        centroids = np.empty((self.k, points.shape[1]))
        centroids[0] = points[rng.integers(n)]
        closest = _squared_distances(points, centroids[:1]).ravel()
        for i in range(1, self.k):
            total = closest.sum()
            if total <= 0:
                centroids[i:] = centroids[0]
                break
            probabilities = closest / total
            centroids[i] = points[rng.choice(n, p=probabilities)]
            distance_to_new = _squared_distances(points, centroids[i : i + 1]).ravel()
            np.minimum(closest, distance_to_new, out=closest)
        return centroids

    def _lloyd(
        self, fit_points: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        """One k-means++-seeded Lloyd run; returns (centroids, fit inertia)."""
        k = min(self.k, len(fit_points))
        centroids = self._plus_plus_init(fit_points, rng)[:k]
        labels: np.ndarray | None = None
        distances = None
        for _iteration in range(self.max_iterations):
            distances = _squared_distances(fit_points, centroids)
            new_labels = distances.argmin(axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for cluster in range(k):
                members = fit_points[labels == cluster]
                if len(members):
                    centroids[cluster] = members.mean(axis=0)
        assert labels is not None and distances is not None
        inertia = float(distances[np.arange(len(fit_points)), labels].sum())
        return centroids, inertia

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` ((n, d) array); keeps the best of n_init runs."""
        points = np.asarray(points, dtype=np.float64)
        require(points.ndim == 2, "expected (n, d) points")
        require(len(points) >= 1, "cannot cluster an empty set")
        rng = rng_for("kmeans", self.seed_label, self.k)

        fit_points = points
        if self.fit_sample_size is not None and len(points) > self.fit_sample_size:
            chosen = rng.choice(len(points), size=self.fit_sample_size, replace=False)
            fit_points = points[np.sort(chosen)]

        best_centroids: np.ndarray | None = None
        best_inertia = np.inf
        for _attempt in range(self.n_init):
            centroids, inertia = self._lloyd(fit_points, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                best_centroids = centroids
        assert best_centroids is not None

        # Assign the full population (== fit set when no subsampling).
        full_distances = _squared_distances(points, best_centroids)
        full_labels = full_distances.argmin(axis=1)
        inertia = float(full_distances[np.arange(len(points)), full_labels].sum())
        return KMeansResult(
            centroids=best_centroids, labels=full_labels, inertia=inertia
        )


class ReferenceBisectingKMeans:
    """Row-major divisive hierarchical k-means (see BisectingKMeans)."""

    def __init__(
        self,
        max_k: int,
        seed_label: str,
        max_iterations: int = 50,
        fit_sample_size: int | None = 20_000,
        n_init: int = 2,
    ):
        require(max_k >= 1, "max_k must be >= 1")
        self.max_k = max_k
        self.seed_label = seed_label
        self.max_iterations = max_iterations
        self.fit_sample_size = fit_sample_size
        self.n_init = n_init

    def fit_all(self, points: np.ndarray) -> dict[int, KMeansResult]:
        """Cluster ``points``; returns one nested result per k in 1..max_k."""
        points = np.asarray(points, dtype=np.float64)
        require(points.ndim == 2, "expected (n, d) points")
        require(len(points) >= 1, "cannot cluster an empty set")
        rng = rng_for("bisecting-kmeans", self.seed_label)

        fit_points = points
        if self.fit_sample_size is not None and len(points) > self.fit_sample_size:
            chosen = rng.choice(len(points), size=self.fit_sample_size, replace=False)
            fit_points = points[np.sort(chosen)]

        # Current partition of the fit sample: list of (member_indices,
        # centroid, inertia).
        all_indices = np.arange(len(fit_points))
        centroid = fit_points.mean(axis=0)
        inertia = float(((fit_points - centroid) ** 2).sum())
        clusters: list[tuple[np.ndarray, np.ndarray, float]] = [
            (all_indices, centroid, inertia)
        ]

        snapshots: dict[int, np.ndarray] = {1: np.array([centroid])}
        while len(clusters) < min(self.max_k, len(fit_points)):
            # Bisect the cluster with the largest inertia (skip singletons).
            splittable = [i for i, c in enumerate(clusters) if len(c[0]) >= 2]
            if not splittable:
                break
            target = max(splittable, key=lambda i: clusters[i][2])
            members = clusters[target][0]
            two_means = ReferenceKMeans(
                2,
                seed_label=f"{self.seed_label}/bisect{len(clusters) - 1}",
                max_iterations=self.max_iterations,
                fit_sample_size=None,
                n_init=self.n_init,
            ).fit(fit_points[members])
            if (two_means.labels == two_means.labels[0]).all():
                break  # a half is empty: the same split would repeat forever
            clusters.pop(target)
            for half in (0, 1):
                rows = members[two_means.labels == half]
                if len(rows) == 0:
                    continue
                sub_centroid = fit_points[rows].mean(axis=0)
                sub_inertia = float(((fit_points[rows] - sub_centroid) ** 2).sum())
                clusters.append((rows, sub_centroid, sub_inertia))
            snapshots[len(clusters)] = np.array([c[1] for c in clusters])

        # Assign the full population against each snapshot's centroids.
        results: dict[int, KMeansResult] = {}
        for k, centroids in snapshots.items():
            distances = _squared_distances(points, centroids)
            labels = distances.argmin(axis=1)
            inertia = float(distances[np.arange(len(points)), labels].sum())
            results[k] = KMeansResult(
                centroids=centroids, labels=labels, inertia=inertia
            )
        return results


def reference_occupancy_table(
    arch: GpuArchitecture, traits: KernelTraits, cta_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-record ``occupancy_table``: :func:`occupancy_for` per distinct size."""
    cta_sizes = np.asarray(cta_sizes)
    unique_sizes, inverse = np.unique(cta_sizes, return_inverse=True)
    ctas = np.empty(len(unique_sizes), dtype=np.int64)
    warps = np.empty(len(unique_sizes), dtype=np.int64)
    for i, size in enumerate(unique_sizes):
        result = occupancy_for(arch, traits, int(size))
        ctas[i] = result.ctas_per_sm
        warps[i] = result.active_warps_per_sm
    return ctas[inverse], warps[inverse]


def reference_capacity_adjusted_l2_hit(
    arch: GpuArchitecture, traits: KernelTraits, footprint_bytes: np.ndarray
) -> np.ndarray:
    """Pre-record ``capacity_adjusted_l2_hit`` for one kernel."""
    footprint = np.maximum(np.asarray(footprint_bytes, dtype=np.float64), 1.0)
    pressure = footprint / float(arch.l2_size_bytes)
    scale = 1.0 / np.maximum(pressure, 1.0)
    return traits.l2_hit_rate * scale


def reference_memory_traffic(
    arch: GpuArchitecture, traits: KernelTraits, batch: InvocationBatch
) -> MemoryTraffic:
    """Pre-record ``memory_traffic`` for one kernel."""
    global_sectors = (
        batch.coalesced_global_loads + batch.coalesced_global_stores
    ).astype(np.float64)
    local_sectors = batch.coalesced_local_loads.astype(np.float64)
    l1_accesses = global_sectors + local_sectors

    l1_misses = l1_accesses * (1.0 - traits.l1_hit_rate)

    footprint_bytes = l1_misses * SECTOR_BYTES
    l2_hit = reference_capacity_adjusted_l2_hit(arch, traits, footprint_bytes)
    dram_sectors = l1_misses * (1.0 - l2_hit)

    return MemoryTraffic(
        l1_sector_accesses=l1_accesses,
        l2_sector_accesses=l1_misses,
        dram_bytes=dram_sectors * SECTOR_BYTES,
        atomic_ops=batch.thread_global_atomics.astype(np.float64),
    )


def _reference_memory_warp_instructions(batch: InvocationBatch) -> np.ndarray:
    thread_level = (
        batch.thread_global_loads
        + batch.thread_global_stores
        + batch.thread_local_loads
        + batch.thread_shared_loads
        + batch.thread_shared_stores
        + batch.thread_global_atomics
    ).astype(np.float64)
    return thread_level / WARP_SIZE


def reference_invocation_timing(
    arch: GpuArchitecture, traits: KernelTraits, batch: InvocationBatch
) -> TimingBreakdown:
    """Pre-record ``invocation_timing``: one kernel's invocations."""
    ctas_per_sm, active_warps = reference_occupancy_table(arch, traits, batch.cta_size)
    num_ctas = batch.num_ctas.astype(np.float64)

    warp_insns = batch.insn_count.astype(np.float64) / (
        WARP_SIZE * batch.divergence_efficiency
    )
    mem_warp_insns = np.minimum(_reference_memory_warp_instructions(batch), warp_insns)
    compute_warp_insns = warp_insns - mem_warp_insns

    critical_ctas = np.maximum(num_ctas / arch.num_sms, 1.0) + WAVE_TAIL_PENALTY
    per_sm_share = critical_ctas / num_ctas

    per_sm_warp_insns = warp_insns * per_sm_share
    per_sm_compute = compute_warp_insns * per_sm_share
    per_sm_mem_issue = mem_warp_insns * per_sm_share

    issue_bound = per_sm_warp_insns / arch.schedulers_per_sm
    fp = per_sm_compute * traits.fp_ratio / arch.warp_throughput(arch.fp32_lanes_per_sm)
    integer = (
        per_sm_compute
        * traits.int_ratio
        / arch.warp_throughput(arch.int32_lanes_per_sm)
    )
    sfu = per_sm_compute * traits.sfu_ratio / arch.warp_throughput(arch.sfu_lanes_per_sm)
    lsu = per_sm_mem_issue / arch.warp_throughput(arch.lsu_lanes_per_sm)
    unit_bound = np.maximum.reduce([fp + integer, sfu, lsu])
    raw_compute = np.maximum(issue_bound, unit_bound)

    resident_ctas = np.minimum(ctas_per_sm.astype(np.float64), num_ctas)
    resident_warps = np.minimum(
        active_warps.astype(np.float64),
        resident_ctas * batch.warps_per_cta.astype(np.float64),
    )
    mem_fraction = np.divide(
        mem_warp_insns, warp_insns, out=np.zeros_like(warp_insns), where=warp_insns > 0
    )
    miss_latency = traits.l1_hit_rate * L1_HIT_LATENCY + (1.0 - traits.l1_hit_rate) * (
        traits.l2_hit_rate * L2_HIT_LATENCY
        + (1.0 - traits.l2_hit_rate) * arch.dram_latency_cycles
    )
    avg_latency = ALU_LATENCY + mem_fraction * miss_latency
    supply = resident_warps * traits.ilp
    utilization = supply / (supply + avg_latency)
    compute_cycles = raw_compute / utilization

    traffic = reference_memory_traffic(arch, traits, batch)
    memory_cycles = (
        traffic.dram_bytes / arch.bytes_per_cycle
        + traffic.atomic_ops / ATOMIC_THROUGHPUT
    )

    longer = np.maximum(compute_cycles, memory_cycles)
    shorter = np.minimum(compute_cycles, memory_cycles)
    total = (
        arch.kernel_launch_overhead_cycles
        + (longer + OVERLAP_RESIDUAL * shorter)
        * traits.personality
        * traits.efficiency_on(arch.family)
    )
    return TimingBreakdown(
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        total_cycles=total,
        dram_bytes=traffic.dram_bytes,
    )


class ReferenceHardwareExecutor:
    """Pre-record ``HardwareExecutor``: times and measures kernel by kernel."""

    def __init__(self, arch: GpuArchitecture):
        self.arch = arch

    def measure_kernel(
        self, workload_name: str, kernel_name: str, traits: KernelTraits,
        batch: InvocationBatch,
    ) -> KernelMeasurement:
        timing = reference_invocation_timing(self.arch, traits, batch)
        cycles = timing.total_cycles
        if traits.measurement_noise_cov > 0:
            rng = rng_for("hardware", self.arch.name, workload_name, kernel_name)
            sigma = traits.measurement_noise_cov
            noise = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=len(batch))
            cycles = cycles * noise
        return KernelMeasurement(
            kernel_name=kernel_name,
            cycles=np.maximum(np.rint(cycles), 1.0).astype(np.int64),
            insn_count=batch.insn_count.astype(np.int64),
        )

    def measure(self, workload: WorkloadLike) -> WorkloadMeasurement:
        per_kernel: dict[str, KernelMeasurement] = {}
        for kernel in workload.kernels:
            name = kernel.traits.name
            if name in per_kernel:
                raise ValueError(f"duplicate kernel name {name!r} in workload")
            per_kernel[name] = self.measure_kernel(
                workload.name, name, kernel.traits, kernel.batch
            )
        return WorkloadMeasurement(
            workload_name=workload.name,
            architecture=self.arch.name,
            clock_ghz=self.arch.clock_ghz,
            per_kernel=per_kernel,
        )


def reference_flatten_chronological(run: WorkloadRun) -> ProfileTable:
    """Pre-record ``flatten_chronological``: per-kernel metric matrices."""
    kernel_names = tuple(k.traits.name for k in run.kernels)
    kernel_id = np.concatenate(
        [np.full(len(k), i, dtype=np.int32) for i, k in enumerate(run.kernels)]
    )
    invocation_id = np.concatenate(
        [np.arange(len(k), dtype=np.int64) for k in run.kernels]
    )
    chrono = np.concatenate([k.batch.chrono_index for k in run.kernels])
    insn = np.concatenate([k.batch.insn_count for k in run.kernels])
    cta_size = np.concatenate([k.batch.cta_size for k in run.kernels])
    num_ctas = np.concatenate([k.batch.num_ctas for k in run.kernels])
    metrics = np.concatenate([k.batch.pks_metric_matrix() for k in run.kernels])

    order = np.argsort(chrono, kind="stable")
    return ProfileTable(
        workload=run.label,
        kernel_names=kernel_names,
        kernel_id=kernel_id[order],
        invocation_id=invocation_id[order],
        insn_count=insn[order],
        cta_size=cta_size[order],
        num_ctas=num_ctas[order],
        metrics=metrics[order],
    )


def reference_native_runtimes_and_footprints(
    run: WorkloadRun, arch: GpuArchitecture
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-record native runtimes (s) and footprints (bytes), chronological."""
    seconds_parts: list[np.ndarray] = []
    footprint_parts: list[np.ndarray] = []
    chrono_parts: list[np.ndarray] = []
    for kernel in run.kernels:
        timing = reference_invocation_timing(arch, kernel.traits, kernel.batch)
        seconds_parts.append(timing.total_cycles / (arch.clock_ghz * 1e9))
        traffic = reference_memory_traffic(arch, kernel.traits, kernel.batch)
        footprint_parts.append(np.minimum(traffic.dram_bytes, arch.memory_gb * 1e9))
        chrono_parts.append(kernel.batch.chrono_index)
    order = np.argsort(np.concatenate(chrono_parts), kind="stable")
    return (
        np.concatenate(seconds_parts)[order],
        np.concatenate(footprint_parts)[order],
    )


def reference_nvbit_profile(
    run: WorkloadRun, arch: GpuArchitecture
) -> tuple[ProfileTable, ProfilingCost]:
    """Pre-record ``NVBitProfiler.profile``."""
    table = reference_flatten_chronological(run).without_metrics()
    native_seconds, _ = reference_native_runtimes_and_footprints(run, arch)
    cost = ProfilingCostModel().nvbit_cost(run.label, native_seconds)
    return table, cost


def reference_nsight_profile(
    run: WorkloadRun, arch: GpuArchitecture
) -> tuple[ProfileTable, ProfilingCost]:
    """Pre-record ``NsightComputeProfiler.profile``."""
    table = reference_flatten_chronological(run)
    native_seconds, footprints = reference_native_runtimes_and_footprints(run, arch)
    cost = ProfilingCostModel().nsight_cost(
        run.label,
        native_seconds,
        footprints,
        num_metrics=len(PKS_METRICS),
        complexity=run.spec.profiling_complexity,
    )
    return table, cost
