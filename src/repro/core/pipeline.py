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
from repro.evaluation.imputation import kernel_mean_ipc
from repro.gpu.hardware import WorkloadMeasurement
from repro.observability import metrics, span
from repro.profiling.table import ProfileTable
from repro.utils.errors import PredictionError, SelectionError
from repro.utils.validation import require

__all__ = ["SievePipeline", "SieveSelection", "build_selection"]


def _gather_measured_ipc(
    reps: tuple[Representative, ...], measurement: WorkloadMeasurement
) -> tuple[np.ndarray, np.ndarray]:
    """Measured IPC per representative, vectorized per kernel.

    Returns ``(ipc, usable)`` where ``usable[i]`` is False for
    representatives whose measurement is absent or degenerate — the same
    predicate as :func:`repro.evaluation.imputation.measured_ipc_or_none`
    (which survives as the scalar reference path), evaluated as one
    gather through the concatenated per-kernel counter arrays instead of
    one dict lookup + two scalar reads per representative.
    """
    n = len(reps)
    ipc = np.empty(n, dtype=np.float64)
    usable = np.zeros(n, dtype=bool)
    offsets: dict[str, tuple[int, int]] = {}
    insn_parts: list[np.ndarray] = []
    cycle_parts: list[np.ndarray] = []
    position = 0
    for kernel_name, kernel in measurement.per_kernel.items():
        offsets[kernel_name] = (position, len(kernel.cycles))
        position += len(kernel.cycles)
        insn_parts.append(kernel.insn_count)
        cycle_parts.append(kernel.cycles)
    if not insn_parts or n == 0:
        return ipc, usable
    insn_all = np.concatenate(insn_parts)
    cycles_all = np.concatenate(cycle_parts)
    absent = (-1, 0)
    located = [offsets.get(rep.kernel_name, absent) for rep in reps]
    offset = np.array([o for o, _ in located], dtype=np.int64)
    size = np.array([s for _, s in located], dtype=np.int64)
    ids = np.array([rep.invocation_id for rep in reps], dtype=np.int64)
    # Match numpy indexing semantics (negative ids wrap) so the
    # vectorized gather is usable for exactly the rows the scalar
    # per-representative lookups were.
    in_range = (offset >= 0) & (ids >= -size) & (ids < size)
    flat = (offset + np.where(ids < 0, ids + size, ids))[in_range]
    insn = insn_all[flat].astype(np.float64)
    cycles = cycles_all[flat].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = insn / cycles
    good = (cycles > 0) & (insn > 0) & np.isfinite(values)
    idx = np.flatnonzero(in_range)
    ipc[idx[good]] = values[good]
    usable[idx[good]] = True
    return ipc, usable


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
            ipc, usable = _gather_measured_ipc(reps, measurement)
            missing: list[int] = []
            for i in np.flatnonzero(~usable):
                rep = reps[i]
                value = kernel_mean_ipc(rep.kernel_name, measurement)
                if value is not None:
                    metrics.inc("sieve.predict.imputed", reason="kernel_mean")
                    diagnostics.emit(
                        "sieve.predict",
                        f"representative {rep.group} (kernel "
                        f"{rep.kernel_name!r}, invocation "
                        f"{rep.invocation_id}) has no usable measurement; "
                        f"imputed kernel-mean IPC {value:.4g}",
                    )
                    ipc[i] = value
                else:
                    missing.append(int(i))

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
