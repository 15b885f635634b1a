"""Shared machinery for the profiler front-ends.

A profiler observes the execution it profiles. Every front-end reads the
run's :class:`~repro.gpu.hardware.ExecutionRecord` on its architecture,
the record the golden measurement also reads, so a context build times
each invocation once. The record's chronological order flattens the run
into the profile table, its cycles give each invocation's native runtime
and its DRAM bytes the memory footprint Nsight saves and restores between
replay passes.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.arch import GpuArchitecture
from repro.gpu.hardware import ExecutionRecord
from repro.gpu.kernel import PKS_METRIC_COLUMNS
from repro.profiling.table import ProfileTable
from repro.workloads.generator import WorkloadRun


def flatten_chronological(
    run: WorkloadRun, record: ExecutionRecord, with_metrics: bool
) -> ProfileTable:
    """Flatten ``run`` into a profile table, rows in ``record.order``.

    ``with_metrics`` adds the Table II matrix (what Nsight collects);
    without it the table holds what NVBit collects.
    """
    sizes = np.array([len(k) for k in run.kernels], dtype=np.int64)
    order = record.order

    def column(name: str) -> np.ndarray:
        return np.concatenate([getattr(k.batch, name) for k in run.kernels])[order]

    columns = {name: column(name) for name in ("insn_count", "cta_size", "num_ctas")}
    metrics = None
    if with_metrics:
        metrics = np.empty((len(order), len(PKS_METRIC_COLUMNS)))
        for j, name in enumerate(PKS_METRIC_COLUMNS):
            metrics[:, j] = columns[name] if name in columns else column(name)
    kernel_id = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    invocation_id = np.arange(len(order), dtype=np.int64) - np.repeat(record.starts, sizes)
    return ProfileTable(
        workload=run.label,
        kernel_names=tuple(k.traits.name for k in run.kernels),
        kernel_id=kernel_id[order],
        invocation_id=invocation_id[order],
        insn_count=columns["insn_count"],
        cta_size=columns["cta_size"],
        num_ctas=columns["num_ctas"],
        metrics=metrics,
    )


def native_seconds(record: ExecutionRecord, arch: GpuArchitecture) -> np.ndarray:
    """Noiseless native runtime (s) per invocation, chronological."""
    return record.cycles[record.order] / (arch.clock_ghz * 1e9)


def footprints(record: ExecutionRecord, arch: GpuArchitecture) -> np.ndarray:
    """Memory footprint (bytes) per invocation, chronological."""
    return np.minimum(record.dram_bytes[record.order], arch.memory_gb * 1e9)
