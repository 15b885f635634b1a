"""Principal Kernel Selection (PKS) — the paper's state-of-the-art baseline.

Implemented exactly as Section II-A describes:

1. profile 12 microarchitecture-independent characteristics per invocation
   (the Nsight profile table);
2. standardize and reduce with PCA;
3. cluster invocations with k-means for every k up to 20, computing the
   prediction error of each k against a *golden reference* cycle count
   measured on real hardware, and keep the k with the smallest error (the
   dependence on a golden reference is the paper's "more technical
   concern" about PKS);
4. pick one representative invocation per cluster — first-chronological by
   default, with random and centroid policies for the Figure 5 study;
5. predict application cycles as the invocation-count-weighted sum of the
   representatives' cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.robustness.diagnostics as diagnostics
from repro.baselines.kmeans import BisectingKMeans
from repro.baselines.pca import PCA
from repro.core.prediction import PredictionResult
from repro.core.types import Representative, SampleSelection
from repro.evaluation.imputation import cycles_in_table_order, representative_cycles
from repro.gpu.hardware import WorkloadMeasurement
from repro.observability import metrics as obs_metrics
from repro.observability import span
from repro.profiling.table import ProfileTable
from repro.utils.errors import PredictionError, SelectionError
from repro.utils.seeding import rng_for
from repro.utils.segments import Segments
from repro.utils.validation import require

PKS_SELECTION_POLICIES = ("first", "random", "centroid")

#: PKS clusters for every k up to 20 (Section II-A).
MAX_K = 20

__all__ = [
    "PKS_SELECTION_POLICIES",
    "PksConfig",
    "PksPipeline",
    "PksSelection",
]


@dataclass(frozen=True)
class PksConfig:
    """Tunable parameters of the PKS pipeline."""

    selection_policy: str = "first"

    def __post_init__(self) -> None:
        require(
            self.selection_policy in PKS_SELECTION_POLICIES,
            f"selection_policy must be one of {PKS_SELECTION_POLICIES}",
        )


@dataclass(frozen=True)
class PksSelection(SampleSelection):
    """PKS's selection, retaining the clustering for analysis.

    ``cluster_rows[i]`` holds the profile-table rows of representative
    ``i``'s cluster. Representative weights are invocation-count shares.
    """

    chosen_k: int = 0
    cluster_rows: tuple[np.ndarray, ...] = ()


class PksPipeline:
    """Profile table (+ golden reference) -> clusters -> representatives."""

    def __init__(self, config: PksConfig | None = None):
        self.config = config or PksConfig()

    # ------------------------------------------------------------------ #

    def _representative_rows(
        self,
        table: ProfileTable,
        projected: np.ndarray,
        labels: np.ndarray,
        centroids: np.ndarray,
    ) -> tuple[list[int], list[np.ndarray]]:
        """Pick one row per non-empty cluster under the configured policy.

        Cluster membership comes from one stable argsort of the label
        column (:class:`~repro.utils.segments.Segments`) instead of one
        ``flatnonzero`` scan per cluster per candidate k, and the
        ``centroid`` policy resolves every cluster's first distance
        minimum with segment reductions. Scalar original:
        :func:`repro.core.reference.pks_representative_rows_scalar`.
        """
        rows: list[int] = []
        members: list[np.ndarray] = []
        policy = self.config.selection_policy
        segments = Segments.group_by(labels)
        picks: np.ndarray | None = None
        if policy == "centroid":
            # Squared distance of every row to its own centroid, then the
            # first-chronological minimum per cluster. Row-wise arithmetic
            # is identical to the per-cluster submatrix version, so ties
            # still break toward the smallest row index.
            deltas = projected - centroids[labels]
            distances = segments.gather(np.einsum("ij,ij->i", deltas, deltas))
            minima = segments.reduce(distances, np.minimum)
            is_min = distances == np.repeat(minima, segments.counts)
            picks = segments.order[segments.first_positions(is_min)]
        for gi in range(len(segments)):
            cluster = int(segments.keys[gi])
            cluster_rows = segments.rows(gi)
            if policy == "first":
                # Table rows are chronological, so the smallest row index is
                # the first-chronological invocation of the cluster.
                row = int(cluster_rows[0])
            elif policy == "random":
                rng = rng_for("pks-select", table.workload, cluster, len(centroids))
                row = int(cluster_rows[rng.integers(len(cluster_rows))])
            else:  # centroid
                assert picks is not None
                row = int(picks[gi])
            rows.append(row)
            members.append(cluster_rows)
        return rows, members

    def _predicted_cycles(
        self,
        table: ProfileTable,
        rows: list[int],
        members: list[np.ndarray],
        cycles_by_row: np.ndarray,
    ) -> float:
        """Invocation-count-weighted sum of representative cycle counts."""
        return float(
            sum(
                len(cluster_rows) * cycles_by_row[row]
                for row, cluster_rows in zip(rows, members)
            )
        )

    def _search_clusterings(
        self, table: ProfileTable, golden: WorkloadMeasurement
    ) -> tuple[float, int, list[int], list[np.ndarray]]:
        """PCA-project, cluster for every candidate k, keep the best error."""
        with span("pks.pca", workload=table.workload):
            metrics = _sanitized_metrics(table)
            projected = PCA().fit(metrics).transform(metrics)
        cycles_by_row = cycles_in_table_order(table, golden)
        measured_total = float(cycles_by_row.sum())
        require(
            measured_total > 0 and np.isfinite(measured_total),
            f"golden reference for {table.workload!r} measures no cycles; "
            "PKS cannot choose k without it",
            SelectionError,
        )

        best: tuple[float, int, list[int], list[np.ndarray]] | None = None
        max_k = min(MAX_K, len(table))
        with span("pks.kmeans", workload=table.workload, max_k=max_k):
            clusterings = BisectingKMeans(
                max_k, seed_label=f"pks/{table.workload}"
            ).fit_all(projected)
        with span("pks.choose_k", workload=table.workload):
            candidate_ks = [k for k in sorted(clusterings) if k >= 2] or [1]
            for k in candidate_ks:
                clustering = clusterings[k]
                rows, members = self._representative_rows(
                    table, projected, clustering.labels, clustering.centroids
                )
                predicted = self._predicted_cycles(
                    table, rows, members, cycles_by_row
                )
                error = abs(predicted - measured_total) / measured_total
                if best is None or error < best[0]:
                    best = (error, k, rows, members)
        assert best is not None
        return best

    # ------------------------------------------------------------------ #

    def select(
        self, table: ProfileTable, golden: WorkloadMeasurement
    ) -> PksSelection:
        """Cluster ``table`` and select representatives.

        ``golden`` is the real-hardware reference PKS needs to choose k.
        """
        require(
            table.metrics is not None,
            "PKS needs the 12-metric profile",
            SelectionError,
        )
        require(len(table) > 0, "profile table is empty", SelectionError)

        with span("pks.select", workload=table.workload):
            best = self._search_clusterings(table, golden)
        _, chosen_k, rows, members = best
        obs_metrics.observe("pks.chosen_k", chosen_k)
        total_invocations = len(table)
        representatives = tuple(
            Representative(
                kernel_name=table.kernel_name_of_row(row),
                kernel_id=int(table.kernel_id[row]),
                invocation_id=int(table.invocation_id[row]),
                row=row,
                weight=len(cluster_rows) / total_invocations,
                group=f"cluster{index}",
                group_size=len(cluster_rows),
            )
            for index, (row, cluster_rows) in enumerate(zip(rows, members))
        )
        return PksSelection(
            workload=table.workload,
            method=f"pks-{self.config.selection_policy}",
            representatives=representatives,
            total_instructions=table.total_instructions,
            num_invocations=total_invocations,
            chosen_k=chosen_k,
            cluster_rows=tuple(members),
        )

    def predict(
        self, selection: PksSelection, measurement: WorkloadMeasurement
    ) -> PredictionResult:
        """Invocation-count-weighted sum of representative cycle counts.

        Representatives whose measurement is missing or degenerate (zero
        cycles, dropped invocation, absent kernel) get the kernel-mean
        cycle count imputed — each with a diagnostic — so one corrupted
        counter degrades the prediction instead of zeroing or crashing it.
        """
        with span("pks.predict", workload=selection.workload):
            cycles = representative_cycles(
                selection, measurement, "pks.predict", "its cluster contributes nothing"
            )
            sizes = [r.group_size for r in selection.representatives]
            usable = ~np.isnan(cycles)
            contributions = np.where(usable, np.multiply(sizes, cycles), 0.0).tolist()
            predicted = 0.0
            for term in contributions:  # left to right, as the pinned sums were taken
                predicted += term
        require(
            usable.any() and predicted > 0,
            f"workload {selection.workload!r}: no representative has a "
            "usable measurement to predict from",
            PredictionError,
        )
        return PredictionResult(
            workload=selection.workload,
            method=selection.method,
            predicted_cycles=predicted,
            predicted_ipc=selection.total_instructions / predicted,
            num_representatives=selection.num_representatives,
            contributions=tuple(contributions),
        )


def _sanitized_metrics(table: ProfileTable) -> np.ndarray:
    """The metric matrix with non-finite cells imputed by column mean.

    NaN/inf counters would poison PCA's SVD (``LinAlgError``) and every
    k-means distance after it. Impute with the finite column mean (0.0 for
    all-bad columns) and emit one diagnostic; the lossless alternative is
    :func:`repro.robustness.validate.repair_table` before selection.
    """
    metrics = table.metrics
    bad = ~np.isfinite(metrics)
    if not bad.any():
        return metrics
    metrics = metrics.copy()
    for col in np.flatnonzero(bad.any(axis=0)):
        clean = metrics[~bad[:, col], col]
        metrics[bad[:, col], col] = float(clean.mean()) if len(clean) else 0.0
    diagnostics.emit(
        "pks.select",
        f"workload {table.workload!r}: imputed {int(bad.sum())} non-finite "
        "metric cells with column means before PCA",
    )
    return metrics
