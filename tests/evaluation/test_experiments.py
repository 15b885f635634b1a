"""Tests for the per-figure experiment drivers (small caps for speed)."""

import pytest

from repro.evaluation import experiments

CAP = 1200
LABELS = ["cactus/gru", "mlperf/ssd-resnet34"]


def test_table1_covers_all_workloads_with_cap():
    rows = experiments.table1_inventory(max_invocations=CAP)
    assert len(rows) == 40
    for row in rows:
        assert row["invocations"] == min(row["paper_invocations"], CAP)
        assert row["kernels"] == row["paper_kernels"]


def test_table2_marks_sieve_single_metric():
    rows = experiments.table2_metrics()
    assert len(rows) == 12
    sieve_metrics = [r for r in rows if r["sieve"] == "yes"]
    assert [m["characteristic"] for m in sieve_metrics] == ["instruction_count"]


def test_figure2_fractions_sum_to_one():
    rows = experiments.figure2_tiers(thetas=(0.1, 1.0), max_invocations=CAP)
    assert len(rows) == 16
    for row in rows:
        for theta in (0.1, 1.0):
            total = sum(row[f"tier{i}@{theta}"] for i in (1, 2, 3))
            assert total == pytest.approx(1.0)


def test_compare_methods_and_aggregates():
    rows = experiments.compare_methods(LABELS, max_invocations=CAP)
    assert [r.workload for r in rows] == LABELS
    accuracy = experiments.figure3_accuracy(rows)
    assert 0 <= accuracy["sieve_avg"] <= accuracy["sieve_max"]
    dispersion = experiments.figure4_dispersion(rows)
    assert dispersion["pks_avg"] >= 0
    speedup = experiments.figure6_speedup(rows)
    assert speedup["sieve_hmean"] > 1
    assert speedup["pks_hmean"] > 1


def test_figure6_excludes_gst():
    rows = experiments.compare_methods(
        ["cactus/gst", "cactus/gru"], max_invocations=CAP
    )
    aggregate = experiments.figure6_speedup(rows)
    gru = [r for r in rows if r.workload == "cactus/gru"][0]
    assert aggregate["sieve_hmean"] == pytest.approx(gru["sieve"].speedup)


def test_figure5_policies():
    rows = experiments.figure5_selection_policies(LABELS[:1], max_invocations=CAP)
    row = rows[0]
    assert {"pks_first", "pks_random", "pks_centroid", "sieve"} <= set(row)
    assert all(row[k] >= 0 for k in row if k != "workload")


def test_figure7_profiling_speedups_positive():
    rows = experiments.figure7_profiling(LABELS, max_invocations=CAP)
    for row in rows:
        assert row["speedup"] > 1
        assert row["pks_days"] > row["sieve_days"]


def test_figure9_relative_rows():
    rows = experiments.figure9_relative(("cactus/gru",), max_invocations=CAP)
    row = rows[0]
    assert row["hardware"] > 0
    assert row["sieve_error"] >= 0
    assert row["pks_error"] >= 0


def test_figure10_theta_sweep_monotone_speedup_tendency():
    rows = experiments.figure10_theta_sweep(
        thetas=(0.1, 0.5, 1.0), labels=LABELS, max_invocations=CAP
    )
    assert [r["theta"] for r in rows] == [0.1, 0.5, 1.0]
    for row in rows:
        assert row["avg_error"] <= row["max_error"]
