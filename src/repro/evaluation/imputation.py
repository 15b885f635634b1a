"""Shared measurement-imputation helpers for sampling-method predictors.

Every predictor faces the same dirty-input problem: a representative's
golden measurement can be missing (dropped invocation, absent kernel) or
degenerate (zero/negative/non-finite counters). Sieve predicts in the
IPC domain and PKS in the cycle domain, but the fallback ladder is
identical — per-invocation value, then kernel mean over cleanly measured
invocations, then a caller-chosen last resort. This module is that
ladder, deduplicated out of :mod:`repro.core.pipeline` and
:mod:`repro.baselines.pks`; the callers keep emitting their own
diagnostics so degraded-path reporting stays per-method.

The module is a leaf by design: it may be imported from core, baselines
and evaluation alike without creating an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

import repro.robustness.diagnostics as diagnostics
from repro.utils.segments import Segments

if TYPE_CHECKING:  # annotation-only imports; this module must stay a leaf
    from repro.core.types import Representative
    from repro.gpu.hardware import WorkloadMeasurement
    from repro.profiling.table import ProfileTable


# --------------------------------------------------------------------- #
# IPC domain (Sieve predicts application IPC)


def measured_ipc_or_none(
    rep: Representative, measurement: WorkloadMeasurement
) -> float | None:
    """The representative's measured IPC, or ``None`` if unusable.

    Unusable means: its kernel is absent from the measurement, its
    invocation index is out of range (dropped invocation), or either
    counter is non-positive/non-finite.
    """
    try:
        insn = rep.measured_insn(measurement)
        cycles = rep.measured_cycles(measurement)
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
    kernel = measurement.per_kernel.get(kernel_name)
    if kernel is None:
        return None
    cycles = kernel.cycles.astype(np.float64)
    insn = kernel.insn_count.astype(np.float64)
    clean = (cycles > 0) & (insn > 0)
    if not clean.any():
        return None
    return float((insn[clean] / cycles[clean]).mean())


# --------------------------------------------------------------------- #
# Cycle domain (PKS and the statistical baselines predict cycles)


def measured_cycles_or_none(
    rep: Representative, measurement: WorkloadMeasurement
) -> float | None:
    """The representative's measured cycles, or ``None`` if unusable."""
    try:
        cycles = rep.measured_cycles(measurement)
    except (KeyError, IndexError):
        return None
    return float(cycles) if cycles > 0 else None


def kernel_mean_cycles(
    kernel_name: str, measurement: WorkloadMeasurement
) -> float | None:
    """Mean cycles over a kernel's cleanly measured invocations, if any."""
    kernel = measurement.per_kernel.get(kernel_name)
    if kernel is None:
        return None
    clean = kernel.cycles[kernel.cycles > 0]
    return float(clean.mean()) if len(clean) else None


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
    cycles = np.full(len(table), np.nan, dtype=np.float64)
    # One gather through the concatenated per-kernel cycle arrays replaces
    # the historical per-kernel row scans (O(rows x kernels)): row r of
    # kernel k reads ``concatenated[offset[k] + invocation_id[r]]``. The
    # scalar original survives as
    # :func:`repro.core.reference.cycles_in_table_order_scalar`.
    num_kernels = len(table.kernel_names)
    offsets = np.full(num_kernels, -1, dtype=np.int64)
    sizes = np.zeros(num_kernels, dtype=np.int64)
    parts: list[np.ndarray] = []
    position = 0
    for kernel_id, kernel_name in enumerate(table.kernel_names):
        per_kernel = measurement.per_kernel.get(kernel_name)
        if per_kernel is None:
            continue
        offsets[kernel_id] = position
        sizes[kernel_id] = len(per_kernel.cycles)
        position += len(per_kernel.cycles)
        parts.append(per_kernel.cycles)
    if parts:
        concatenated = np.concatenate(parts)
        kernel_id_column = np.asarray(table.kernel_id, dtype=np.int64)
        ids = np.asarray(table.invocation_id, dtype=np.int64)
        valid = (
            (offsets[kernel_id_column] >= 0)
            & (ids >= 0)
            & (ids < sizes[kernel_id_column])
        )
        values = concatenated[offsets[kernel_id_column[valid]] + ids[valid]].astype(
            np.float64
        )
        values[values <= 0] = np.nan
        cycles[valid] = values

    bad = ~np.isfinite(cycles)
    if bad.any():
        bad_rows = np.flatnonzero(bad)
        by_kernel = Segments.group_by(
            np.asarray(table.kernel_id, dtype=np.int64)[bad_rows]
        )
        for segment, kernel_id in enumerate(by_kernel.keys.tolist()):
            fallback = kernel_mean_cycles(
                table.kernel_names[kernel_id], measurement
            )
            if fallback is not None:
                cycles[bad_rows[by_kernel.rows(segment)]] = fallback
        still_bad = ~np.isfinite(cycles)
        if still_bad.any():
            finite = cycles[~still_bad]
            cycles[still_bad] = float(finite.mean()) if len(finite) else 0.0
        diagnostics.emit(
            "pks.golden",
            f"workload {table.workload!r}: imputed {int(bad.sum())} "
            "missing/zero golden cycle counts with kernel means",
        )
    return cycles
