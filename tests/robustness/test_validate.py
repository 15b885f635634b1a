"""Tests for profile-table validation and repair."""

import numpy as np
import pytest

from repro.profiling.csv_io import write_profile_csv
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.table import ProfileTable
from repro.robustness.faults import FaultPlan, FaultSpec, inject_table_faults
from repro.robustness.validate import (
    repair_table,
    validate_profile_csv,
    validate_table,
)
from repro.utils.errors import ProfileError


@pytest.fixture(scope="module")
def pks_table(toy_run):
    table, _ = NsightComputeProfiler().profile(toy_run)
    return table


def small_table(**overrides):
    defaults = dict(
        workload="unit",
        kernel_names=("a", "b"),
        kernel_id=np.array([0, 0, 1, 1], dtype=np.int32),
        invocation_id=np.array([0, 1, 0, 1], dtype=np.int64),
        insn_count=np.array([100, 200, 300, 400], dtype=np.int64),
        cta_size=np.array([128, 128, 256, 256], dtype=np.int32),
        num_ctas=np.array([10, 10, 20, 20], dtype=np.int64),
    )
    defaults.update(overrides)
    return ProfileTable(**defaults)


def test_clean_table_validates_clean(pks_table):
    report = validate_table(pks_table)
    assert report.clean and report.ok
    assert report.rows_checked == len(pks_table)
    assert "OK" in report.summary()


def test_nonpositive_counters_flagged():
    table = small_table(
        insn_count=np.array([100, -5, 300, 0], dtype=np.int64),
        cta_size=np.array([128, 128, 0, 256], dtype=np.int32),
    )
    report = validate_table(table)
    kinds = report.counts_by_kind()
    assert kinds["nonpositive-insn"] == 2
    assert kinds["nonpositive-cta-size"] == 1
    assert not report.ok


def test_invocation_structure_flagged():
    table = small_table(
        invocation_id=np.array([0, 0, 3, 1], dtype=np.int64),
    )
    report = validate_table(table)
    kinds = report.counts_by_kind()
    assert kinds["duplicate-invocation"] == 1  # kernel a: 0, 0
    assert kinds["nonmonotonic-invocation"] == 1  # kernel b: 3 -> 1
    assert kinds["invocation-gap"] >= 1  # kernel b starts at 3


def test_declared_row_mismatch_is_warning():
    report = validate_table(small_table(), declared_rows=9)
    assert report.counts_by_kind() == {"row-count-mismatch": 1}
    assert report.ok and not report.clean  # missing data, not corruption


def test_empty_table_flagged():
    empty = small_table(
        kernel_id=np.array([], dtype=np.int32),
        invocation_id=np.array([], dtype=np.int64),
        insn_count=np.array([], dtype=np.int64),
        cta_size=np.array([], dtype=np.int32),
        num_ctas=np.array([], dtype=np.int64),
    )
    report = validate_table(empty)
    assert not report.ok
    assert "empty-table" in report.counts_by_kind()


# ------------------------------------------------------------------ #
# Repair


def test_repair_clean_table_is_noop(pks_table):
    result = repair_table(pks_table)
    assert not result.changed
    assert result.table is pks_table


def test_repair_drops_bad_rows_and_imputes_metrics():
    metrics = np.ones((4, 2))
    metrics[1, 0] = np.nan
    metrics[2, 1] = -3.0
    table = small_table(
        insn_count=np.array([100, 200, 300, -1], dtype=np.int64),
        metrics=metrics,
        metric_names=("m0", "m1"),
    )
    result = repair_table(table)
    kinds = {a.kind for a in result.actions}
    assert kinds == {"drop-row", "impute-metric", "clamp-metric"}
    assert len(result.table) == 3  # the insn=-1 row is gone
    assert np.isfinite(result.table.metrics).all()
    assert (result.table.metrics >= 0).all()
    assert validate_table(result.table).ok


def test_repair_drops_duplicates_keeping_first():
    table = small_table(
        invocation_id=np.array([0, 0, 0, 1], dtype=np.int64),
        insn_count=np.array([100, 999, 300, 400], dtype=np.int64),
    )
    result = repair_table(table)
    assert len(result.table) == 3
    # First occurrence of kernel a invocation 0 (insn=100) survives.
    assert 100 in result.table.insn_count
    assert 999 not in result.table.insn_count
    assert validate_table(result.table).ok


def test_repair_all_defective_raises():
    table = small_table(
        insn_count=np.array([-1, -2, -3, -4], dtype=np.int64),
    )
    with pytest.raises(ProfileError, match="every row is defective"):
        repair_table(table)


def test_repaired_fault_injected_table_validates(pks_table):
    plan = FaultPlan(
        specs=(
            FaultSpec("duplicate", 0.05),
            FaultSpec("nan", 0.05),
            FaultSpec("negative", 0.05),
        ),
        seed=2,
    )
    corrupted, records = inject_table_faults(pks_table, plan)
    assert len(records) > 0
    result = repair_table(corrupted)
    assert result.changed
    assert validate_table(result.table).ok


# ------------------------------------------------------------------ #
# Lenient CSV validation


def test_validate_csv_clean_round_trip(pks_table, tmp_path):
    path = tmp_path / "clean.csv"
    write_profile_csv(pks_table, path)
    report, table = validate_profile_csv(path)
    assert report.clean
    assert table is not None and len(table) == len(pks_table)


def test_validate_csv_salvages_around_malformed_rows(pks_table, tmp_path):
    path = tmp_path / "dirty.csv"
    write_profile_csv(pks_table, path)
    lines = path.read_text().splitlines()
    lines[5] = "garbage line"
    lines[7] = lines[7] + ",extra,fields"
    path.write_text("\n".join(lines) + "\n")
    report, table = validate_profile_csv(path)
    assert report.counts_by_kind()["malformed-row"] == 2
    assert table is not None
    assert len(table) == len(pks_table) - 2


def test_validate_csv_reports_out_of_range_integers(tmp_path):
    path = tmp_path / "overflow.csv"
    path.write_text(
        "# workload,x,rows,3\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        "a,0,5,128,16\n"
        "a,1,5,3000000000,16\n"
        "a,2,99999999999999999999999,128,16\n"
    )
    report, table = validate_profile_csv(path)
    malformed = [i for i in report.issues if i.kind == "malformed-row"]
    assert [i.row for i in malformed] == [4, 5]
    assert table is not None and len(table) == 1


def test_validate_csv_missing_file():
    report, table = validate_profile_csv("/nonexistent/profile.csv")
    assert table is None
    assert "unreadable-file" in report.counts_by_kind()


def test_validate_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    report, table = validate_profile_csv(path)
    assert table is None
    assert not report.ok
