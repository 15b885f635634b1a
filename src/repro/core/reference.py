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

:func:`reference_generate` is the workload generator as it was before it
wrote whole-run columns: one validated batch per kernel, built by
``_build_batch``, with ``rng.choice`` draws, verbatim with its per-kernel
helpers. It returns a :class:`ReferenceRun`, the run type of that time,
which the reference GPU and profiler paths above read as they read a
:class:`~repro.workloads.generator.WorkloadRun`.
``tests/workloads/test_generator_reference.py`` pins
:func:`~repro.workloads.generator.generate` to it bit for bit.

Scoring a selection keeps its per-row originals the same way:
:func:`select_representative_row_scalar` (one stratum's pick at a time,
:func:`representative_position_scalar` per policy),
:func:`weighted_cycle_cov_scalar` (one ``coefficient_of_variation`` per
group) and :func:`attribute_error_scalar` (one dataclass per kernel,
group and stratum, returned in ``to_dict()`` form).
``tests/evaluation/test_scoring_reference.py`` pins the grouped passes
to them bit for bit, the attribution's JSON byte for byte.
:func:`light_cluster_counts_scalar` is two-level PKS's light-row vote
with one ``Counter.most_common`` per row;
``tests/baselines/test_pks_two_level.py`` pins the grouped vote to it.

The streaming stratifier's per-kernel chunk fold is kept the same way:
:class:`ReferenceReservoirStore` appends one kernel's segment at a time
(one Algorithm-R draw call, one last-writer ``np.unique`` and one arrival
argsort per kernel), and :class:`ReferenceStreamingStratifier` keeps the
dict-based exact-pick trackers and the finalize that concatenates one
``retained()`` per kernel and takes an overflowed kernel's CoV from
:func:`welford_cov_scalar`. ``tests/streaming/test_fold_reference.py``
pins the grouped fold's retained rows, counts, trackers, eviction
counter and finalized selections to them.

The golden-measurement reads are kept one lookup at a time:
:func:`measured_ipc_or_none`, :func:`measured_cycles_or_none`,
:func:`kernel_mean_ipc` and :func:`kernel_mean_cycles` are the scalar
imputation ladder that :func:`sieve_predict_scalar` and
:func:`cycles_in_table_order_scalar` climb, reading one kernel's rows
through :func:`kernel_columns` under the production rule: an absent
kernel or an invocation id outside ``[0, count)`` is missing.
``tests/core/test_vectorized_reference.py`` pins the columnar lookup and
ladder of :mod:`repro.evaluation.imputation` to them, faulted goldens
included. :class:`ReferenceHardwareExecutor` times and measures kernel
by kernel and assembles the same whole-run columns at the end.

Nothing in the production pipeline calls this module.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.kmeans import KMeansResult
from repro.core.config import SieveConfig
from repro.core.kde import kde_strata
from repro.core.prediction import PredictionResult, predict_cycles, predict_ipc
from repro.core.stratify import Stratum
from repro.core.tiers import classify_invocations
from repro.core.types import Representative, SampleSelection
from repro.gpu.arch import SECTOR_BYTES, WARP_SIZE, GpuArchitecture
from repro.gpu.hardware import WorkloadMeasurement
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
from repro.observability import metrics
from repro.profiling.cost import ProfilingCost, ProfilingCostModel
from repro.profiling.metrics import PKS_METRICS
from repro.profiling.table import ProfileTable
from repro.streaming.stratify import StreamingStratifier
from repro.utils.errors import PredictionError, StreamingError
from repro.utils.seeding import rng_for
from repro.utils.segments import Segments
from repro.utils.stats import coefficient_of_variation
from repro.utils.validation import require
from repro.workloads.allocation import assign_tiers, largest_remainder
from repro.workloads.generator import (
    CTA_SIZE_CHOICES,
    DOMINANT_CTA_PROBABILITY,
    METRIC_JITTER_SIGMA,
    MIN_VARIABLE_KERNEL_CTAS,
    TIER1_METRIC_JITTER_SIGMA,
    GeneratedKernel,
    MetricMix,
    WorkloadRun,
    _lognormal_with_cov,
    _sample_mix,
)
from repro.workloads.spec import Tier, WorkloadSpec


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
            groups = kde_strata(insn, config.theta)
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


def kernel_columns(
    kernel_name: str, measurement: WorkloadMeasurement
) -> tuple[np.ndarray, np.ndarray] | None:
    """One kernel's (cycles, insn_count) rows, or ``None`` when absent."""
    [k] = measurement.kernel_index((kernel_name,)).tolist()
    if k < 0:
        return None
    starts = measurement.starts
    rows = slice(starts[k], starts[k + 1] if k + 1 < len(starts) else len(measurement.cycles))
    return measurement.cycles[rows], measurement.insn_count[rows]


def measured_counters(
    rep: Representative, measurement: WorkloadMeasurement
) -> tuple[int, int]:
    """The representative's (cycles, insn) counters, one lookup at a time.

    Raises ``KeyError`` for an absent kernel and ``IndexError`` for an
    invocation id outside ``[0, count)``.
    """
    kernel = kernel_columns(rep.kernel_name, measurement)
    if kernel is None:
        raise KeyError(rep.kernel_name)
    cycles, insn = kernel
    if not 0 <= rep.invocation_id < len(cycles):
        raise IndexError(rep.invocation_id)
    return int(cycles[rep.invocation_id]), int(insn[rep.invocation_id])


def measured_ipc_or_none(
    rep: Representative, measurement: WorkloadMeasurement
) -> float | None:
    """The representative's measured IPC, or ``None`` if unusable.

    Unusable means: its kernel is absent from the measurement, its
    invocation index is out of range (dropped invocation), or either
    counter is non-positive/non-finite.
    """
    try:
        cycles, insn = measured_counters(rep, measurement)
    except (KeyError, IndexError):
        return None
    if cycles <= 0 or insn <= 0:
        return None
    ipc = insn / cycles
    return ipc if np.isfinite(ipc) else None


def kernel_mean_ipc(
    kernel_name: str, measurement: WorkloadMeasurement
) -> float | None:
    """Mean IPC over a kernel's cleanly measured invocations, if any."""
    kernel = kernel_columns(kernel_name, measurement)
    if kernel is None:
        return None
    cycles = kernel[0].astype(np.float64)
    insn = kernel[1].astype(np.float64)
    clean = (cycles > 0) & (insn > 0)
    if not clean.any():
        return None
    return float((insn[clean] / cycles[clean]).mean())


def measured_cycles_or_none(
    rep: Representative, measurement: WorkloadMeasurement
) -> float | None:
    """The representative's measured cycles, or ``None`` if unusable."""
    try:
        cycles, _ = measured_counters(rep, measurement)
    except (KeyError, IndexError):
        return None
    return float(cycles) if cycles > 0 else None


def kernel_mean_cycles(
    kernel_name: str, measurement: WorkloadMeasurement
) -> float | None:
    """Mean cycles over a kernel's cleanly measured invocations, if any."""
    kernel = kernel_columns(kernel_name, measurement)
    if kernel is None:
        return None
    clean = kernel[0][kernel[0] > 0]
    return float(clean.mean()) if len(clean) else None


def cycles_in_table_order_scalar(
    table: ProfileTable, measurement: WorkloadMeasurement
) -> np.ndarray:
    """Pre-vectorization golden-cycle alignment: per-kernel row scans."""
    cycles = np.full(len(table), np.nan, dtype=np.float64)
    for kernel_id, kernel_name in enumerate(table.kernel_names):
        rows = table.rows_for_kernel(kernel_id)
        if len(rows) == 0:
            continue
        kernel = kernel_columns(kernel_name, measurement)
        if kernel is None:
            continue
        ids = table.invocation_id[rows]
        valid = (ids >= 0) & (ids < len(kernel[0]))
        values = np.full(len(rows), np.nan)
        values[valid] = kernel[0][ids[valid]].astype(np.float64)
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
            raise PredictionError(
                f"workload {selection.workload!r}: no representative has "
                "a usable measurement to predict from"
            )
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


def light_cluster_counts_scalar(
    detailed: ProfileTable,
    light: ProfileTable,
    cluster_rows,
    group_sizes,
) -> np.ndarray:
    """Two-level PKS's light-row vote, one ``Counter.most_common`` per row."""
    # Majority cluster per (kernel, CTA size) signature in the batch.
    signature_votes: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for cluster_index, rows in enumerate(cluster_rows):
        for row in rows:
            key = (int(detailed.kernel_id[row]), int(detailed.cta_size[row]))
            signature_votes[key][cluster_index] += 1
    kernel_votes: dict[int, Counter] = defaultdict(Counter)
    for (kernel_id, _), votes in signature_votes.items():
        kernel_votes[kernel_id].update(votes)

    extra_counts = np.zeros(len(group_sizes), dtype=np.int64)
    for row in range(len(light)):
        key = (int(light.kernel_id[row]), int(light.cta_size[row]))
        if key in signature_votes:
            cluster = signature_votes[key].most_common(1)[0][0]
        elif key[0] in kernel_votes:
            cluster = kernel_votes[key[0]].most_common(1)[0][0]
        else:
            # Kernel never seen in the detailed batch: attribute to the
            # most populous cluster (PKA has no better information).
            cluster = int(np.argmax(group_sizes))
        extra_counts[cluster] += 1
    return extra_counts


def representative_position_scalar(
    tier: Tier,
    policy: str,
    *,
    workload: str,
    label: str,
    member_insn: np.ndarray,
    member_cta: np.ndarray,
) -> int:
    """Per-stratum representative pick: one stratum's member position."""
    if tier is Tier.TIER1 or policy == "first":
        return 0

    def first_position(cta: int) -> int:
        matches = np.flatnonzero(member_cta == cta)
        require(len(matches) > 0, "no invocation with the requested CTA size")
        return int(matches[0])

    if policy == "dominant_cta":
        sizes, counts = np.unique(member_cta, return_counts=True)
        return first_position(int(sizes[np.argmax(counts)]))
    if policy == "max_cta":
        return first_position(int(member_cta.max()))
    if policy == "random":
        rng = rng_for("sieve-select", workload, label)
        return int(rng.integers(len(member_cta)))
    if policy == "centroid":
        values = np.asarray(member_insn, dtype=np.float64)
        distance = np.abs(values - values.mean())
        return int(np.argmin(distance))
    raise ValueError(f"unknown selection policy {policy!r}")


def select_representative_row_scalar(
    table: ProfileTable, stratum: Stratum, policy: str
) -> int:
    """Per-stratum representative selection, one stratum at a time."""
    if stratum.tier is Tier.TIER1 or policy == "first":
        return int(stratum.rows[0])
    position = representative_position_scalar(
        stratum.tier,
        policy,
        workload=table.workload,
        label=stratum.label,
        member_insn=table.insn_count[stratum.rows],
        member_cta=table.cta_size[stratum.rows],
    )
    return int(stratum.rows[position])


def weighted_cycle_cov_scalar(groups, cycles_by_row: np.ndarray) -> float:
    """Figure 4 dispersion with one ``coefficient_of_variation`` per group."""
    covs: list[float] = []
    weights: list[int] = []
    for rows in groups:
        if len(rows) == 0:
            continue
        covs.append(coefficient_of_variation(cycles_by_row[rows]))
        weights.append(len(rows))
    require(len(covs) > 0, "no non-empty groups")
    return float(np.average(covs, weights=weights))


def attribute_error_scalar(
    method, selection, prediction, context, config: object | None = None
) -> dict:
    """Error attribution built row by row, in its ``to_dict()`` form.

    One frozen dataclass per kernel, group and stratum, each turned into
    a dict by ``dataclasses.asdict``.
    """
    from dataclasses import asdict

    from repro.observability.attribution import (
        GroupAttribution,
        KernelAttribution,
        StratumHealth,
    )

    truth = context.truth
    measured_total = float(truth.total_cycles)
    signed_error = (prediction.predicted_cycles - measured_total) / measured_total
    contributions = prediction.contributions
    if len(contributions) != len(selection.representatives):
        contributions = ()

    per_kernel = []
    per_group = []
    partitions = False
    if contributions:
        predicted: dict[str, float] = {}
        rep_counts: dict[str, int] = {}
        for rep, term in zip(selection.representatives, contributions):
            predicted[rep.kernel_name] = predicted.get(rep.kernel_name, 0.0) + term
            rep_counts[rep.kernel_name] = rep_counts.get(rep.kernel_name, 0) + 1
        names = list(truth.kernel_names)
        names += sorted(set(predicted).difference(truth.kernel_names))
        for name in names:
            kernel = kernel_columns(name, truth)
            meas = float(int(kernel[0].sum())) if kernel is not None else 0.0
            pred = predicted.get(name, 0.0)
            per_kernel.append(
                KernelAttribution(
                    kernel_name=name,
                    predicted_cycles=pred,
                    measured_cycles=meas,
                    contribution=(pred - meas) / measured_total,
                    num_representatives=rep_counts.get(name, 0),
                )
            )

        table = method.profile_table(context)
        row_cycles = cycles_in_table_order_scalar(table, context.truth)
        groups = [np.asarray(g) for g in method.group_rows(selection)]
        if len(groups) == len(selection.representatives):
            for rep, term, group in zip(
                selection.representatives, contributions, groups
            ):
                meas = float(row_cycles[group].sum()) if len(group) else 0.0
                per_group.append(
                    GroupAttribution(
                        group=rep.group,
                        kernel_name=rep.kernel_name,
                        size=int(len(group)),
                        weight=float(rep.weight),
                        predicted_cycles=float(term),
                        measured_cycles=meas,
                        contribution=(term - meas) / measured_total,
                    )
                )
            covered = (
                np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
            )
            partitions = len(covered) == len(table) and len(
                np.unique(covered)
            ) == len(table)

    health = []
    strata = getattr(selection, "strata", None)
    if strata:
        theta = float(getattr(config, "theta", 0.0) or 0.0)
        insn = context.sieve_table.insn_count
        largest_sibling: dict[int, int] = {}
        for stratum in strata:
            largest_sibling[stratum.kernel_id] = max(
                largest_sibling.get(stratum.kernel_id, 0), stratum.size
            )
        rep_by_group = {rep.group: rep for rep in selection.representatives}
        for stratum in strata:
            mean_insn = float(insn[stratum.rows].mean()) if stratum.size else 0.0
            rep = rep_by_group.get(stratum.label)
            if rep is not None and mean_insn > 0:
                rep_distance = abs(float(insn[rep.row]) - mean_insn) / mean_insn
            else:
                rep_distance = 0.0
            health.append(
                StratumHealth(
                    group=stratum.label,
                    kernel_name=stratum.kernel_name,
                    tier=stratum.tier.name,
                    size=stratum.size,
                    occupancy=stratum.size / max(selection.num_invocations, 1),
                    insn_cov=float(stratum.insn_cov),
                    cov_drift=float(stratum.insn_cov) - theta,
                    rep_distance=rep_distance,
                    split_balance=stratum.size
                    / max(largest_sibling[stratum.kernel_id], 1),
                )
            )
    return {
        "workload": selection.workload,
        "method": selection.method,
        "predicted_cycles": float(prediction.predicted_cycles),
        "measured_cycles": measured_total,
        "signed_error": float(signed_error),
        "per_kernel": [asdict(k) for k in per_kernel],
        "per_group": [asdict(g) for g in per_group],
        "groups_partition": bool(partitions),
        "health": [asdict(h) for h in health],
    }


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
    ) -> tuple[np.ndarray, np.ndarray]:
        timing = reference_invocation_timing(self.arch, traits, batch)
        cycles = timing.total_cycles
        if traits.measurement_noise_cov > 0:
            rng = rng_for("hardware", self.arch.name, workload_name, kernel_name)
            sigma = traits.measurement_noise_cov
            noise = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=len(batch))
            cycles = cycles * noise
        return (
            np.maximum(np.rint(cycles), 1.0).astype(np.int64),
            batch.insn_count.astype(np.int64),
        )

    def measure(self, workload: WorkloadRun | ReferenceRun) -> WorkloadMeasurement:
        per_kernel: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for kernel in workload.kernels:
            name = kernel.traits.name
            if name in per_kernel:
                raise ValueError(f"duplicate kernel name {name!r} in workload")
            per_kernel[name] = self.measure_kernel(
                workload.name, name, kernel.traits, kernel.batch
            )
        sizes = np.array([len(cycles) for cycles, _ in per_kernel.values()], dtype=np.int64)
        return WorkloadMeasurement(
            workload_name=workload.name,
            architecture=self.arch.name,
            clock_ghz=self.arch.clock_ghz,
            kernel_names=tuple(per_kernel),
            starts=np.cumsum(sizes) - sizes,
            cycles=np.concatenate([cycles for cycles, _ in per_kernel.values()]),
            insn_count=np.concatenate([insn for _, insn in per_kernel.values()]),
        )


def reference_flatten_chronological(run: WorkloadRun | ReferenceRun) -> ProfileTable:
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
    run: WorkloadRun | ReferenceRun, arch: GpuArchitecture
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
    run: WorkloadRun | ReferenceRun, arch: GpuArchitecture
) -> tuple[ProfileTable, ProfilingCost]:
    """Pre-record ``NVBitProfiler.profile``."""
    table = reference_flatten_chronological(run).without_metrics()
    native_seconds, _ = reference_native_runtimes_and_footprints(run, arch)
    cost = ProfilingCostModel().nvbit_cost(run.label, native_seconds)
    return table, cost


def reference_nsight_profile(
    run: WorkloadRun | ReferenceRun, arch: GpuArchitecture
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


@dataclass(frozen=True)
class ReferenceRun:
    """Pre-column ``WorkloadRun``: its kernels, each with its own batch."""

    name: str
    suite: str
    spec: WorkloadSpec
    kernels: tuple[GeneratedKernel, ...]

    @property
    def label(self) -> str:
        return f"{self.suite}/{self.name}"


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


def reference_generate(
    spec: WorkloadSpec, max_invocations: int | None = None
) -> ReferenceRun:
    """Pre-column ``generate``: one validated batch per kernel."""
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

    return ReferenceRun(
        name=spec.name, suite=spec.suite, spec=spec, kernels=tuple(kernels)
    )


@dataclass
class ReferenceReservoir:
    """One kernel's retained invocations."""

    capacity: int | None
    # Unbounded mode: chunk pieces appended per observe.
    pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )
    # Bounded mode: fixed-size columns plus the arrival index per slot.
    row: np.ndarray | None = None
    invocation_id: np.ndarray | None = None
    insn_raw: np.ndarray | None = None
    cta: np.ndarray | None = None
    arrival: np.ndarray | None = None
    filled: int = 0
    seen: int = 0
    replaced: int = 0
    rng: np.random.Generator | None = None


class ReferenceReservoirStore:
    """Per-kernel retained samples (everything, or an Algorithm-R sketch)."""

    def __init__(self, workload: str, capacity: int | None = None):
        self.workload = workload
        self.capacity = capacity
        self._reservoirs: dict[int, ReferenceReservoir] = {}

    @property
    def bounded(self) -> bool:
        return self.capacity is not None

    def _get(self, slot: int) -> ReferenceReservoir:
        reservoir = self._reservoirs.get(slot)
        if reservoir is None:
            reservoir = self._reservoirs[slot] = ReferenceReservoir(self.capacity)
            if self.bounded:
                cap = self.capacity
                reservoir.row = np.zeros(cap, dtype=np.int64)
                reservoir.invocation_id = np.zeros(cap, dtype=np.int64)
                reservoir.insn_raw = np.zeros(cap, dtype=np.int64)
                reservoir.cta = np.zeros(cap, dtype=np.int64)
                reservoir.arrival = np.zeros(cap, dtype=np.int64)
        return reservoir

    def append(
        self,
        slot: int,
        kernel_name: str,
        rows: np.ndarray,
        invocation_id: np.ndarray,
        insn_raw: np.ndarray,
        cta: np.ndarray,
    ) -> None:
        """Fold one kernel's chunk segment in (arrival order)."""
        reservoir = self._get(slot)
        m = len(rows)
        if not self.bounded:
            reservoir.pieces.append((rows, invocation_id, insn_raw, cta))
            reservoir.seen += m
            reservoir.filled += m
            return
        cap = self.capacity
        start = reservoir.seen
        fill = max(0, min(cap - start, m))
        if fill:
            end = start + fill
            reservoir.row[start:end] = rows[:fill]
            reservoir.invocation_id[start:end] = invocation_id[:fill]
            reservoir.insn_raw[start:end] = insn_raw[:fill]
            reservoir.cta[start:end] = cta[:fill]
            reservoir.arrival[start:end] = np.arange(start, end)
            reservoir.filled = end
        if fill < m:
            if reservoir.rng is None:
                reservoir.rng = rng_for(
                    "streaming-reservoir", self.workload, kernel_name
                )
            arrivals = np.arange(start + fill, start + m, dtype=np.int64)
            j = reservoir.rng.integers(0, arrivals + 1)
            keep = j < cap
            if np.any(keep):
                targets = j[keep]
                source = fill + np.flatnonzero(keep)
                reversed_targets = targets[::-1]
                unique, first = np.unique(reversed_targets, return_index=True)
                last = len(targets) - 1 - first
                reservoir.row[unique] = rows[source[last]]
                reservoir.invocation_id[unique] = invocation_id[source[last]]
                reservoir.insn_raw[unique] = insn_raw[source[last]]
                reservoir.cta[unique] = cta[source[last]]
                reservoir.arrival[unique] = arrivals[keep][last]
                reservoir.replaced += int(np.count_nonzero(keep))
                metrics.inc("streaming.evictions", int(np.count_nonzero(keep)))
        reservoir.seen += m

    def complete(self, slot: int) -> bool:
        """True when every observed invocation of the kernel is retained."""
        reservoir = self._reservoirs.get(slot)
        if reservoir is None:
            return True
        return not self.bounded or reservoir.seen <= self.capacity

    def retained(
        self, slot: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Retained (rows, invocation ids, raw insn, cta), chronological."""
        reservoir = self._reservoirs[slot]
        if not self.bounded:
            pieces = reservoir.pieces
            if len(pieces) == 1:
                return pieces[0]
            return tuple(
                np.concatenate([piece[i] for piece in pieces]) for i in range(4)
            )
        n = reservoir.filled
        order = np.argsort(reservoir.arrival[:n], kind="stable")
        return (
            reservoir.row[:n][order],
            reservoir.invocation_id[:n][order],
            reservoir.insn_raw[:n][order],
            reservoir.cta[:n][order],
        )

    def retained_count(self, slot: int) -> int:
        reservoir = self._reservoirs.get(slot)
        return 0 if reservoir is None else reservoir.filled

    def resident_rows(self) -> int:
        """Rows currently retained across all kernels."""
        return sum(r.filled for r in self._reservoirs.values())


def welford_cov_scalar(accumulators, slot: int) -> float:
    """One kernel's population CoV from its running mean and M2."""
    count = int(accumulators.count[slot])
    if count <= 1:
        return 0.0
    std = float(np.sqrt(accumulators.m2[slot] / count))
    mean = float(accumulators.mean[slot])
    if mean == 0.0:
        return 0.0 if std == 0.0 else float("inf")
    return std / abs(mean)


class ReferenceStreamingStratifier(StreamingStratifier):
    """The streaming stratifier with its per-kernel chunk fold and gather.

    Each chunk is appended kernel by kernel to a
    :class:`ReferenceReservoirStore`, the exact-pick trackers are dicts
    updated kernel by kernel, and finalize reads one ``retained()`` per
    kernel. Everything else (observe's reductions, ``_build``) is the
    production stratifier's.
    """

    def __init__(
        self,
        workload: str,
        config: SieveConfig,
        reservoir_rows: int | None = None,
    ):
        super().__init__(workload, config, reservoir_rows)
        self.reservoirs = ReferenceReservoirStore(workload, reservoir_rows)
        self._first: dict[int, tuple[int, int]] = {}  # slot -> (row, inv)
        self._cta: dict[int, dict[int, list[int]]] = {}  # cta -> [n, row, inv]

    def _append_chunk(
        self, segments, slots, rows_sorted, inv_sorted, insn_sorted, cta_sorted
    ) -> None:
        bounded = self.reservoirs.bounded
        starts = segments.starts.tolist()
        ends = segments.ends.tolist()
        for g, slot in enumerate(slots):
            slot = int(slot)
            lo, hi = starts[g], ends[g]
            if bounded:
                self._track_exact_picks(
                    slot,
                    rows_sorted[lo:hi],
                    inv_sorted[lo:hi],
                    cta_sorted[lo:hi],
                )
            self.reservoirs.append(
                slot,
                self.accumulators.names[slot],
                rows_sorted[lo:hi],
                inv_sorted[lo:hi],
                insn_sorted[lo:hi],
                cta_sorted[lo:hi],
            )

    def _track_exact_picks(
        self,
        slot: int,
        rows: np.ndarray,
        invocation_id: np.ndarray,
        cta: np.ndarray,
    ) -> None:
        if slot not in self._first:
            self._first[slot] = (int(rows[0]), int(invocation_id[0]))
        table = self._cta.setdefault(slot, {})
        sizes, first, counts = np.unique(
            cta, return_index=True, return_counts=True
        )
        for size, pos, count in zip(sizes, first, counts):
            entry = table.get(int(size))
            if entry is None:
                table[int(size)] = [
                    int(count), int(rows[pos]), int(invocation_id[pos])
                ]
            else:
                entry[0] += int(count)

    def exact_pick(self, slot: int, policy: str) -> tuple[int, int] | None:
        if policy == "first":
            return self._first.get(slot)
        table = self._cta.get(slot)
        if not table:
            return None
        if policy == "dominant_cta":
            best = max(sorted(table), key=lambda size: table[size][0])
            return table[best][1], table[best][2]
        if policy == "max_cta":
            entry = table[max(table)]
            return entry[1], entry[2]
        return None

    def _general_layout(self, slots) -> tuple:
        accumulators = self.accumulators
        ordered = sorted(
            (int(s) for s in slots),
            key=lambda s: (accumulators.kernel_id[s], s),
        )
        retained = [self.reservoirs.retained(s) for s in ordered]
        counts = np.array([len(r[0]) for r in retained], dtype=np.int64)
        require(
            bool(np.all(counts > 0)) or len(ordered) == 0,
            "stratifier finalized a kernel with no retained invocations",
            StreamingError,
        )
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[: len(ordered)] \
            if len(ordered) else np.empty(0, dtype=np.int64)
        total = int(counts.sum())
        rows_cat = np.empty(total, dtype=np.int64)
        inv_cat = np.empty(total, dtype=np.int64)
        raw_cat = np.empty(total, dtype=np.int64)
        cta_cat = np.empty(total, dtype=np.int64)
        for g, (rows, inv, raw, cta) in enumerate(retained):
            lo = int(starts[g])
            hi = lo + int(counts[g])
            rows_cat[lo:hi] = rows
            inv_cat[lo:hi] = inv
            raw_cat[lo:hi] = raw
            cta_cat[lo:hi] = cta
        segments = Segments(
            order=np.arange(total, dtype=np.int64),
            starts=starts.astype(np.int64),
            counts=counts,
            keys=np.array(
                [accumulators.kernel_id[s] for s in ordered], dtype=np.int64
            ),
        )
        bad_cat = raw_cat <= 0
        clamped_cat = np.where(bad_cat, 1, raw_cat)
        tier1_retained = segments.mins(clamped_cat) == segments.maxs(clamped_cat)
        covs_retained = segments.covs(clamped_cat)
        sums_retained = segments.sums(clamped_cat)
        complete = np.array(
            [self.reservoirs.complete(s) for s in ordered], dtype=bool
        )

        tier1 = np.empty(len(ordered), dtype=bool)
        covs = np.empty(len(ordered), dtype=np.float64)
        for g, slot in enumerate(ordered):
            if complete[g]:
                tier1[g] = tier1_retained[g]
                covs[g] = covs_retained[g]
            else:
                tier1[g] = bool(
                    accumulators.min_insn[slot] == accumulators.max_insn[slot]
                )
                covs[g] = welford_cov_scalar(accumulators, slot)
        return (
            ordered, starts, counts, rows_cat, inv_cat, raw_cat, clamped_cat,
            cta_cat, tier1, covs, sums_retained, complete,
        )
