"""Tests for the shared measurement-imputation ladder."""

import numpy as np
import pytest

from repro.evaluation import imputation
from repro.profiling.table import ProfileTable
from repro.robustness import diagnostics
from tests.conftest import make_measurement

MEASUREMENT = make_measurement(
    {
        "k0": ([100, 200, 0], [1000, 1000, 500]),
        "k1": ([0, 0], [0, 0]),
    }
)


def ladder(kernel_name: str, invocation_id: int, ipc: bool) -> tuple[float, bool]:
    """One invocation's (value, imputed) through the ladder's two rungs."""
    values, imputed = imputation.impute(
        MEASUREMENT, MEASUREMENT.kernel_index([kernel_name]), [invocation_id], ipc=ipc
    )
    return float(values[0]), bool(imputed[0])


def test_measured_ipc_clean_and_unusable_cases():
    assert ladder("k0", 0, ipc=True) == (10.0, False)
    # zero cycles, absent kernel, out-of-range invocation: all unusable
    assert ladder("k0", 2, ipc=True)[1]
    assert ladder("nope", 0, ipc=True)[1]
    assert ladder("k0", 99, ipc=True)[1]


def test_kernel_mean_ipc_uses_only_clean_invocations():
    # invocation 2 has zero cycles and is excluded: mean(10.0, 5.0)
    assert ladder("k0", 2, ipc=True)[0] == pytest.approx(7.5)
    assert np.isnan(ladder("k1", 0, ipc=True)[0])
    assert np.isnan(ladder("nope", 0, ipc=True)[0])


def test_measured_cycles_clean_and_unusable_cases():
    assert ladder("k0", 1, ipc=False) == (200.0, False)
    assert ladder("k0", 2, ipc=False)[1]
    assert ladder("nope", 0, ipc=False)[1]


def test_kernel_mean_cycles_excludes_zeros():
    assert ladder("k0", 2, ipc=False)[0] == pytest.approx(150.0)
    assert np.isnan(ladder("k1", 0, ipc=False)[0])
    assert np.isnan(ladder("nope", 0, ipc=False)[0])


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
