"""The golden-measurement imputation ladder, shared by every predictor.

Every predictor faces the same dirty-input problem: a representative's
golden measurement can be missing (dropped invocation, absent kernel) or
degenerate (a zeroed counter). Sieve predicts in the IPC domain, PKS and
the Horvitz-Thompson baselines in the cycle domain, but the ladder is
one: the invocation's own value, then the mean over its kernel's usable
invocations, then a caller-chosen last resort. An invocation is found
through :meth:`~repro.gpu.hardware.WorkloadMeasurement.lookup`; a found
counter is usable when it is positive, and for IPC the instruction count
must be positive too. Callers emit their own diagnostics, so
degraded-path reporting stays per method.

The module is a leaf by design: it may be imported from core, baselines
and evaluation alike without creating an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

import repro.robustness.diagnostics as diagnostics
from repro.observability import metrics

if TYPE_CHECKING:  # annotation-only imports; this module must stay a leaf
    from repro.core.types import SampleSelection
    from repro.gpu.hardware import WorkloadMeasurement
    from repro.profiling.table import ProfileTable


def impute(
    measurement: WorkloadMeasurement,
    kernel: np.ndarray,
    invocation_id: np.ndarray,
    *,
    ipc: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The ladder's first two rungs for invocations given as (kernel, id).

    ``kernel`` holds :meth:`~repro.gpu.hardware.WorkloadMeasurement.
    kernel_index` values. Returns ``(values, imputed)``: each
    invocation's golden cycles (its IPC when ``ipc``) if usable, else
    its kernel's mean over usable invocations, with the bits of numpy's
    ``mean`` of them, else NaN, left to the caller's last resort.
    ``imputed`` marks the values that are not the invocation's own.
    """
    kernel = np.asarray(kernel, dtype=np.int64)
    cycles, insn, _ = measurement.lookup(kernel, invocation_id)
    # A missing invocation reads zero counters, so it is never usable.
    usable = cycles > 0
    if ipc:
        usable &= insn > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(usable, insn / cycles, np.nan)
    else:
        values = np.where(usable, cycles, np.nan)
    imputed = ~usable
    if imputed.any():
        kernels, slot = np.unique(kernel[imputed], return_inverse=True)
        ends = measurement.starts + measurement.counts
        means = [
            _kernel_mean(measurement, slice(measurement.starts[k], ends[k]), ipc)
            if k >= 0
            else np.nan
            for k in kernels.tolist()
        ]
        values[imputed] = np.array(means)[slot]
    return values, imputed


def _kernel_mean(measurement: WorkloadMeasurement, rows: slice, ipc: bool) -> float:
    """Mean golden value over one kernel's usable invocations, else NaN."""
    cycles = measurement.cycles[rows]
    insn = measurement.insn_count[rows]
    clean = (cycles > 0) & (insn > 0) if ipc else cycles > 0
    values = insn[clean] / cycles[clean] if ipc else cycles[clean]
    return float(values.mean()) if len(values) else np.nan


def representative_cycles(
    selection: SampleSelection,
    measurement: WorkloadMeasurement,
    source: str,
    dropped: str,
) -> np.ndarray:
    """Each representative's golden cycles through the ladder, else NaN.

    The cycle-domain predictors' shared rungs: every representative
    imputed with its kernel mean, and every one left without a value,
    gets a diagnostic from ``source`` and a ``<source>.imputed`` count;
    ``dropped`` says what the caller does with the latter.
    """
    cycles, imputed = impute(measurement, *selection.locate(measurement))
    reps = selection.representatives
    for i in np.flatnonzero(imputed).tolist():
        rep = reps[i]
        if np.isnan(cycles[i]):
            metrics.inc(f"{source}.imputed", reason="unusable")
            diagnostics.emit(
                source,
                f"representative {rep.group} (kernel {rep.kernel_name!r}) "
                f"has no measurements at all; {dropped}",
            )
        else:
            metrics.inc(f"{source}.imputed", reason="kernel_mean")
            diagnostics.emit(
                source,
                f"representative {rep.group} (kernel {rep.kernel_name!r}, "
                f"invocation {rep.invocation_id}) has no usable "
                f"measurement; imputed kernel-mean cycles {cycles[i]:.4g}",
            )
    return cycles


def cycles_in_table_order(
    table: ProfileTable, measurement: WorkloadMeasurement
) -> np.ndarray:
    """Golden per-invocation cycle counts aligned with the table's rows.

    Rows whose measurement is missing (absent kernel, out-of-range
    invocation id) or zero are imputed with the kernel-mean cycle count
    (workload mean as a last resort), with a summary diagnostic, so a
    partially corrupted golden reference still yields usable per-row
    cycles for k selection and dispersion statistics.
    """
    kernel = measurement.kernel_index(table.kernel_names)[table.kernel_id]
    cycles, imputed = impute(measurement, kernel, table.invocation_id)
    if imputed.any():
        still_bad = np.isnan(cycles)
        if still_bad.any():
            finite = cycles[~still_bad]
            cycles[still_bad] = float(finite.mean()) if len(finite) else 0.0
        diagnostics.emit(
            "pks.golden",
            f"workload {table.workload!r}: imputed {int(imputed.sum())} "
            "missing/zero golden cycle counts with kernel means",
        )
    return cycles
