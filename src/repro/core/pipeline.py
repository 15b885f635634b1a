"""End-to-end Sieve pipeline (Figure 1).

``select`` turns a profile table into representative kernel invocations
with weights; ``predict`` combines those representatives' measured (or
simulated) performance into an application-level prediction.

Both stages degrade gracefully on dirty input: ``select`` raises a typed
:class:`SelectionError` only when nothing is selectable, and ``predict``
imputes a kernel-mean (then workload-mean) IPC for representatives whose
measurements are missing, zero or non-finite — emitting a diagnostic per
fallback through :mod:`repro.robustness.diagnostics` — instead of letting
``inf``/``nan`` propagate silently into the predicted cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

import repro.robustness.diagnostics as diagnostics
from repro.core.config import SieveConfig
from repro.core.prediction import PredictionResult, predict_cycles, predict_ipc
from repro.core.selection import select_representative_rows
from repro.core.stratify import Stratum, stratify_table
from repro.core.types import Representative, SampleSelection
from repro.core.weights import stratum_weights
from repro.evaluation.imputation import impute
from repro.gpu.hardware import WorkloadMeasurement
from repro.observability import metrics, span
from repro.profiling.table import ProfileTable
from repro.utils.errors import PredictionError, SelectionError
from repro.utils.validation import require

__all__ = ["SievePipeline", "SieveSelection", "build_selection"]


@dataclass(frozen=True)
class SieveSelection(SampleSelection):
    """Sieve's selection, retaining the stratification for analysis."""

    strata: tuple[Stratum, ...] = ()


def build_selection(
    workload: str,
    strata: Sequence[Stratum],
    picks: Iterable[tuple[int, int]],
    group_sizes: Iterable[int],
    *,
    total_instructions: int,
    num_invocations: int,
    policy: str,
) -> SieveSelection:
    """Sieve's selection from its strata and each stratum's pick.

    ``picks`` holds each stratum's representative as (row, invocation
    id) and ``group_sizes`` the invocations it stands for; its weight is
    the stratum's instruction share. :meth:`SievePipeline.select` and
    the streaming operator both end here, so a batch and a streamed
    selection are built alike.
    """
    weights = stratum_weights(strata)
    representatives = tuple(
        Representative(
            kernel_name=stratum.kernel_name,
            kernel_id=stratum.kernel_id,
            invocation_id=invocation_id,
            row=row,
            weight=weight,
            group=stratum.label,
            group_size=size,
        )
        for stratum, (row, invocation_id), weight, size in zip(
            strata, picks, weights.tolist(), group_sizes
        )
    )
    metrics.inc("sieve.selection.rows", len(representatives), policy=policy)
    metrics.inc("sieve.representatives", len(representatives))
    return SieveSelection(
        workload=workload,
        method="sieve",
        representatives=representatives,
        total_instructions=total_instructions,
        num_invocations=num_invocations,
        strata=tuple(strata),
    )


class SievePipeline:
    """Profile table -> strata -> representatives -> prediction."""

    def __init__(self, config: SieveConfig | None = None):
        self.config = config or SieveConfig()

    def select(self, table: ProfileTable) -> SieveSelection:
        """Stratify ``table`` and pick one representative per stratum."""
        require(len(table) > 0, "profile table is empty", SelectionError)
        strata = stratify_table(table, self.config)
        policy = self.config.selection_policy
        with span("sieve.selection", workload=table.workload, strata=len(strata)):
            rows = select_representative_rows(table, strata, policy)
            return build_selection(
                table.workload,
                strata,
                zip(rows.tolist(), table.invocation_id[rows].tolist()),
                [stratum.size for stratum in strata],
                total_instructions=table.total_instructions,
                num_invocations=len(table),
                policy=policy,
            )

    def predict(
        self, selection: SieveSelection, measurement: WorkloadMeasurement
    ) -> PredictionResult:
        """Predict application cycles from the representatives' performance.

        ``measurement`` supplies per-invocation cycle counts for the
        representative invocations only (conceptually: the output of
        simulating just the selected samples). Representatives whose
        measurement is missing or degenerate get a kernel-mean IPC
        imputed (workload-mean as a last resort), each with a diagnostic;
        only a measurement with *no* usable invocation at all raises
        :class:`PredictionError`.
        """
        with span("sieve.predict", workload=selection.workload):
            reps = selection.representatives
            ipc, imputed = impute(measurement, *selection.locate(measurement), ipc=True)
            missing = np.isnan(ipc)
            for i in np.flatnonzero(imputed & ~missing).tolist():
                rep = reps[i]
                metrics.inc("sieve.predict.imputed", reason="kernel_mean")
                diagnostics.emit(
                    "sieve.predict",
                    f"representative {rep.group} (kernel "
                    f"{rep.kernel_name!r}, invocation "
                    f"{rep.invocation_id}) has no usable measurement; "
                    f"imputed kernel-mean IPC {ipc[i]:.4g}",
                )
            if missing.any():
                if missing.all():
                    raise PredictionError(
                        f"workload {selection.workload!r}: no representative has "
                        "a usable measurement to predict from"
                    )
                fallback = float(ipc[~missing].mean())
                for i in np.flatnonzero(missing).tolist():
                    ipc[i] = fallback
                    metrics.inc("sieve.predict.imputed", reason="workload_mean")
                    diagnostics.emit(
                        "sieve.predict",
                        f"representative {reps[i].group} (kernel "
                        f"{reps[i].kernel_name!r}) has no measurements at all; "
                        f"imputed workload-mean IPC {fallback:.4g}",
                    )

            weights = np.array([r.weight for r in reps], dtype=np.float64)
            if not np.isfinite(weights).all() or weights.sum() <= 0:
                diagnostics.emit(
                    "sieve.predict",
                    "degenerate representative weights; falling back to uniform",
                )
                weights = np.full(len(reps), 1.0 / len(reps))
            predicted_ipc = predict_ipc(ipc, weights)
            # Per-representative cycle terms: N * w_i / IPC_i. Their sum is
            # the predicted cycle count (up to float reassociation); the
            # attribution layer decomposes prediction error with them.
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
