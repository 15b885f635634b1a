"""Tests for the shared measurement-imputation ladder."""

import numpy as np
import pytest

from repro.core.types import Representative
from repro.evaluation import imputation
from repro.gpu.hardware import KernelMeasurement, WorkloadMeasurement
from repro.profiling.table import ProfileTable
from repro.robustness import diagnostics


def make_measurement(kernels: dict[str, tuple[list[int], list[int]]]):
    """``{name: (cycles, insns)}`` -> a WorkloadMeasurement."""
    return WorkloadMeasurement(
        workload_name="toy",
        architecture="test-arch",
        clock_ghz=1.0,
        per_kernel={
            name: KernelMeasurement(
                kernel_name=name,
                cycles=np.array(cycles, dtype=np.int64),
                insn_count=np.array(insns, dtype=np.int64),
            )
            for name, (cycles, insns) in kernels.items()
        },
    )


def make_rep(kernel_name: str, invocation_id: int) -> Representative:
    return Representative(
        kernel_name=kernel_name,
        kernel_id=0,
        invocation_id=invocation_id,
        row=0,
        weight=1.0,
        group="g0",
        group_size=1,
    )


MEASUREMENT = make_measurement(
    {
        "k0": ([100, 200, 0], [1000, 1000, 500]),
        "k1": ([0, 0], [0, 0]),
    }
)


def test_measured_ipc_clean_and_unusable_cases():
    assert imputation.measured_ipc_or_none(make_rep("k0", 0), MEASUREMENT) == 10.0
    # zero cycles, absent kernel, out-of-range invocation: all unusable
    assert imputation.measured_ipc_or_none(make_rep("k0", 2), MEASUREMENT) is None
    assert imputation.measured_ipc_or_none(make_rep("nope", 0), MEASUREMENT) is None
    assert imputation.measured_ipc_or_none(make_rep("k0", 99), MEASUREMENT) is None


def test_kernel_mean_ipc_uses_only_clean_invocations():
    # invocation 2 has zero cycles and is excluded: mean(10.0, 5.0)
    assert imputation.kernel_mean_ipc("k0", MEASUREMENT) == pytest.approx(7.5)
    assert imputation.kernel_mean_ipc("k1", MEASUREMENT) is None
    assert imputation.kernel_mean_ipc("nope", MEASUREMENT) is None


def test_measured_cycles_clean_and_unusable_cases():
    assert imputation.measured_cycles_or_none(make_rep("k0", 1), MEASUREMENT) == 200.0
    assert imputation.measured_cycles_or_none(make_rep("k0", 2), MEASUREMENT) is None
    assert imputation.measured_cycles_or_none(make_rep("nope", 0), MEASUREMENT) is None


def test_kernel_mean_cycles_excludes_zeros():
    assert imputation.kernel_mean_cycles("k0", MEASUREMENT) == pytest.approx(150.0)
    assert imputation.kernel_mean_cycles("k1", MEASUREMENT) is None
    assert imputation.kernel_mean_cycles("nope", MEASUREMENT) is None


def make_table(kernel_names, kernel_id, invocation_id) -> ProfileTable:
    n = len(kernel_id)
    return ProfileTable(
        workload="toy",
        kernel_names=tuple(kernel_names),
        kernel_id=np.array(kernel_id, dtype=np.int32),
        invocation_id=np.array(invocation_id, dtype=np.int64),
        insn_count=np.full(n, 1000, dtype=np.int64),
        cta_size=np.full(n, 128, dtype=np.int32),
        num_ctas=np.full(n, 4, dtype=np.int64),
    )


def test_cycles_in_table_order_aligns_clean_rows():
    table = make_table(("k0",), [0, 0, 0], [0, 1, 2])
    measurement = make_measurement({"k0": ([100, 200, 300], [1, 1, 1])})
    with diagnostics.capture_diagnostics() as caught:
        cycles = imputation.cycles_in_table_order(table, measurement)
    assert cycles.tolist() == [100.0, 200.0, 300.0]
    assert not caught


def test_cycles_in_table_order_imputes_kernel_mean_with_diagnostic():
    # invocation 2's cycle count is zero -> kernel mean of the clean rows
    table = make_table(("k0",), [0, 0, 0], [0, 1, 2])
    measurement = make_measurement({"k0": ([100, 200, 0], [1, 1, 1])})
    with diagnostics.capture_diagnostics() as caught:
        cycles = imputation.cycles_in_table_order(table, measurement)
    assert cycles.tolist() == [100.0, 200.0, 150.0]
    assert any(record.source == "pks.golden" for record in caught)


def test_cycles_in_table_order_workload_mean_last_resort():
    # k1 has no usable measurement at all -> workload mean of k0's rows
    table = make_table(("k0", "k1"), [0, 0, 1], [0, 1, 0])
    measurement = make_measurement({"k0": ([100, 300], [1, 1])})
    with diagnostics.capture_diagnostics() as caught:
        cycles = imputation.cycles_in_table_order(table, measurement)
    assert cycles.tolist() == [100.0, 300.0, 200.0]
    assert any(record.source == "pks.golden" for record in caught)
