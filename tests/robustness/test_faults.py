"""Tests for the fault-injection harness."""

import numpy as np
import pytest

from repro.profiling.csv_io import write_profile_csv
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.nvbit import NVBitProfiler
from repro.robustness.faults import (
    FAULT_MODES,
    FaultPlan,
    FaultSpec,
    inject_csv_faults,
    inject_measurement_faults,
    inject_table_faults,
    parse_fault_plan,
)
from repro.robustness.validate import validate_profile_csv, validate_table
from repro.utils.errors import FaultInjectionError


def plan(mode, rate, seed=0):
    return FaultPlan(specs=(FaultSpec(mode=mode, rate=rate),), seed=seed)


@pytest.fixture(scope="module")
def pks_table(toy_run):
    table, _ = NsightComputeProfiler().profile(toy_run)
    return table


@pytest.fixture(scope="module")
def sieve_table(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    return table


# ------------------------------------------------------------------ #
# Plan parsing


def test_parse_fault_plan():
    parsed = parse_fault_plan("drop:0.1, nan:0.05", seed=7)
    assert parsed.specs == (FaultSpec("drop", 0.1), FaultSpec("nan", 0.05))
    assert parsed.seed == 7
    assert parsed.describe() == "drop:0.1,nan:0.05"


@pytest.mark.parametrize("text", ["bogus:0.1", "drop", "drop:zero", ""])
def test_parse_fault_plan_rejects_malformed(text):
    with pytest.raises(FaultInjectionError):
        parse_fault_plan(text)


def test_rate_out_of_range_rejected():
    with pytest.raises(FaultInjectionError):
        FaultSpec("drop", 1.5)


# ------------------------------------------------------------------ #
# Table faults


@pytest.mark.parametrize("mode", sorted(
    m for m, surfaces in FAULT_MODES.items() if "table" in surfaces
))
def test_table_rate_zero_is_identity(pks_table, mode):
    corrupted, records = inject_table_faults(pks_table, plan(mode, 0.0))
    assert records == []
    assert np.array_equal(corrupted.insn_count, pks_table.insn_count)
    assert np.array_equal(corrupted.invocation_id, pks_table.invocation_id)
    assert np.array_equal(corrupted.metrics, pks_table.metrics)


def test_table_faults_are_deterministic(pks_table):
    p = plan("drop", 0.1, seed=3)
    a, records_a = inject_table_faults(pks_table, p)
    b, records_b = inject_table_faults(pks_table, p)
    assert records_a == records_b
    assert np.array_equal(a.insn_count, b.insn_count)
    # A different seed corrupts differently.
    c, records_c = inject_table_faults(pks_table, plan("drop", 0.1, seed=4))
    assert records_c != records_a


def test_table_faults_do_not_mutate_input(pks_table):
    before = pks_table.metrics.copy()
    inject_table_faults(pks_table, plan("nan", 0.2))
    assert np.array_equal(pks_table.metrics, before)


def test_drop_and_truncate_reduce_rows(pks_table):
    dropped, records = inject_table_faults(pks_table, plan("drop", 0.1))
    assert 0 < len(dropped) < len(pks_table)
    assert len(records) == len(pks_table) - len(dropped)
    truncated, _ = inject_table_faults(pks_table, plan("truncate", 0.25))
    assert len(truncated) == len(pks_table) - round(0.25 * len(pks_table))


def test_duplicate_adds_rows(pks_table):
    duplicated, records = inject_table_faults(pks_table, plan("duplicate", 0.1))
    assert len(duplicated) == len(pks_table) + len(records)
    assert len(records) > 0


def test_nan_mode_is_noop_without_metrics(sieve_table):
    corrupted, records = inject_table_faults(sieve_table, plan("nan", 0.2))
    assert records == []
    assert np.array_equal(corrupted.insn_count, sieve_table.insn_count)


@pytest.mark.parametrize("mode", ["drop", "duplicate", "nan", "negative"])
def test_validator_catches_every_table_fault(pks_table, mode):
    """No false negatives: every injected corruption surfaces as an issue.

    (Truncation is undetectable from a bare in-memory table — the CSV
    form carries the declared row count that makes it detectable; see
    test_validator_catches_every_csv_fault.)
    """
    corrupted, records = inject_table_faults(pks_table, plan(mode, 0.1))
    assert len(records) > 0
    report = validate_table(corrupted)
    kinds = set(report.counts_by_kind())
    expected = {
        "drop": "invocation-gap",
        "duplicate": "duplicate-invocation",
        "nan": "nonfinite-metric",
        "negative": "nonpositive-insn",
    }[mode]
    assert expected in kinds
    if mode in ("duplicate", "nan", "negative"):
        # Per-row faults map one-to-one onto per-row issues.
        assert report.counts_by_kind()[expected] >= len(records)


# ------------------------------------------------------------------ #
# CSV faults


@pytest.mark.parametrize("mode", sorted(
    m for m, surfaces in FAULT_MODES.items() if "csv" in surfaces
))
def test_csv_rate_zero_is_byte_identity(pks_table, tmp_path, mode):
    source = tmp_path / "clean.csv"
    target = tmp_path / "corrupt.csv"
    write_profile_csv(pks_table, source)
    records = inject_csv_faults(source, target, plan(mode, 0.0))
    assert records == []
    assert source.read_bytes() == target.read_bytes()


@pytest.mark.parametrize("mode", sorted(
    m for m, surfaces in FAULT_MODES.items() if "csv" in surfaces
))
def test_validator_catches_every_csv_fault(pks_table, tmp_path, mode):
    """Acceptance: validate on a fault-injected CSV reports every injected
    corruption — no false negatives at rate 0.1, seed-fixed."""
    source = tmp_path / "clean.csv"
    target = tmp_path / "corrupt.csv"
    write_profile_csv(pks_table, source)
    records = inject_csv_faults(source, target, plan(mode, 0.1, seed=1))
    assert len(records) > 0
    report, _ = validate_profile_csv(target)
    assert not report.clean
    kinds = report.counts_by_kind()
    if mode in ("drop", "truncate"):
        # Missing rows: declared-vs-actual count mismatch, plus id gaps
        # for non-tail drops.
        assert "row-count-mismatch" in kinds
    elif mode == "duplicate":
        assert kinds.get("duplicate-invocation", 0) + kinds.get(
            "row-count-mismatch", 0
        ) >= 1
        assert kinds.get("duplicate-invocation", 0) >= len(records)
    elif mode == "nan":
        assert kinds.get("nonfinite-metric", 0) >= len(records)
    elif mode == "negative":
        assert kinds.get("nonpositive-insn", 0) >= len(records)
    elif mode == "garble":
        assert kinds.get("malformed-row", 0) + kinds.get(
            "row-count-mismatch", 0
        ) >= 1


# ------------------------------------------------------------------ #
# Measurement faults


def test_measurement_rate_zero_is_identity(toy_measurement):
    for mode in ("cycle_noise", "clock_drift", "zero_cycles"):
        faulted, records = inject_measurement_faults(
            toy_measurement, plan(mode, 0.0)
        )
        assert records == []
        assert faulted.total_cycles == toy_measurement.total_cycles


def test_zero_cycles_zeroes_invocations(toy_measurement):
    faulted, records = inject_measurement_faults(
        toy_measurement, plan("zero_cycles", 0.1)
    )
    assert len(records) > 0
    zeroed = int((faulted.cycles == 0).sum())
    assert zeroed == len(records)
    assert faulted.total_cycles < toy_measurement.total_cycles


def test_clock_drift_inflates_cycles(toy_measurement):
    faulted, records = inject_measurement_faults(
        toy_measurement, plan("clock_drift", 0.2)
    )
    assert len(records) == len(toy_measurement.kernel_names)
    assert faulted.total_cycles > toy_measurement.total_cycles


def test_measurement_faults_are_deterministic(toy_measurement):
    p = plan("cycle_noise", 0.2, seed=9)
    a, _ = inject_measurement_faults(toy_measurement, p)
    b, _ = inject_measurement_faults(toy_measurement, p)
    assert a.total_cycles == b.total_cycles
