"""The regression gate over run *sets* (acceptance bar)."""

import pytest

from repro.perfstore.gate import gate_manifests, render_gate_report

from .conftest import make_manifest

#: Deterministic +-3% run-to-run jitter: two samples drawn from "the
#: same machine on a good day" (the snapshot self-test reuses the rerun
#: shape on real stored runs).
BASE_JITTER = (0.97, 1.00, 1.03)
RERUN_JITTER = (0.98, 1.01, 1.02)


def jittered(factor, jitter=BASE_JITTER, **kwargs):
    """Three runs of the same shape, walls scaled by ``factor``."""
    return [
        make_manifest(
            total=2.0 * factor * j,
            stages=(("stratify", 1.2 * factor * j), ("select", 0.8 * factor * j)),
            **kwargs,
        )
        for j in jitter
    ]


def test_2x_slowdown_over_3_runs_regresses():
    report = gate_manifests(jittered(1.0), jittered(2.0, RERUN_JITTER))
    assert report.regressed
    assert report.verdict == "regressed"
    failed = {(row.kind, row.name) for row in report.failures}
    assert ("total-wall", "total") in failed
    assert ("stage-wall", "stratify") in failed
    assert ("stage-wall", "select") in failed
    total = next(r for r in report.rows if r.kind == "total-wall")
    assert total.mode == "rank"
    assert total.p_slower == pytest.approx(0.05)


def test_same_distribution_reruns_pass():
    report = gate_manifests(jittered(1.0), jittered(1.0, RERUN_JITTER))
    assert not report.regressed
    assert report.verdict == "indistinguishable"
    assert all(row.mode == "rank" for row in report.rows)
    # The rank path never divides by a zero median either.
    zero = jittered(0.0)
    render_gate_report(gate_manifests(zero, jittered(1.0)), verbose=True)
    assert not gate_manifests(zero, zero).regressed


def test_removed_stage_fails_and_new_stage_informs():
    baseline = [
        make_manifest(total=2.0 * j, stages=(("old", 2.0 * j),))
        for j in BASE_JITTER
    ]
    current = [
        make_manifest(total=2.0 * j, stages=(("fresh", 2.0 * j),))
        for j in RERUN_JITTER
    ]
    report = gate_manifests(baseline, current)
    rows = {row.kind: row for row in report.rows}
    assert rows["stage-removed"].failed
    assert rows["stage-removed"].verdict == "removed"
    assert not rows["stage-new"].failed
    assert rows["stage-new"].verdict == "new"
    assert report.regressed


def test_removed_trivial_stage_is_only_informational():
    baseline = [
        make_manifest(total=2.0 * j, stages=(("main", 2.0 * j), ("blip", 0.001)))
        for j in BASE_JITTER
    ]
    current = [
        make_manifest(total=2.0 * j, stages=(("main", 2.0 * j),))
        for j in RERUN_JITTER
    ]
    report = gate_manifests(baseline, current)
    removed = next(r for r in report.rows if r.kind == "stage-removed")
    assert not removed.failed
    assert not report.regressed


def _error_runs(values):
    return [
        make_manifest(workloads=[{"workload": "w", "sieve_error": v}]) for v in values
    ]


def _aggregate_runs(values):
    return [make_manifest(aggregates={"sieve_avg": v}) for v in values]


def test_accuracy_uses_tighter_floor_than_wall_metrics():
    # A 5% error increase is far below the 10% wall floor, but accuracy
    # is compared exactly: the pipeline is seed-deterministic, so every
    # run repeats the same value and any shift is algorithmic drift.
    report = gate_manifests(_error_runs((0.0100,) * 3), _error_runs((0.0105,) * 3))
    accuracy = next(r for r in report.rows if r.kind == "accuracy")
    assert accuracy.name == "w.sieve_error"
    assert accuracy.mode == "exact"
    assert accuracy.failed and accuracy.verdict == "drifted"
    wall = next(r for r in report.rows if r.kind == "total-wall")
    assert not wall.failed


DRIFT_CASES = [
    pytest.param((0.010,), (0.012,), id="n1-worse"),
    pytest.param((0.010, 0.010), (0.020, 0.020), id="n2-doubled"),
    pytest.param((0.012,) * 3, (0.010,) * 3, id="n3-improved"),
]


@pytest.mark.parametrize("runs", [_error_runs, _aggregate_runs], ids=["error", "agg"])
@pytest.mark.parametrize("base_vals,cur_vals", DRIFT_CASES)
def test_accuracy_drift_fails_at_any_n_in_either_direction(runs, base_vals, cur_vals):
    report = gate_manifests(runs(base_vals), runs(cur_vals))
    row = next(r for r in report.rows if r.kind in ("accuracy", "aggregate"))
    assert row.verdict == "drifted" and row.failed and row.mode == "exact"
    assert report.regressed


@pytest.mark.parametrize("runs", [_error_runs, _aggregate_runs], ids=["error", "agg"])
def test_accuracy_within_tolerance_matches(runs):
    # Three identical runs match; so does float-reassociation noise
    # (1e-9 relative) far inside the 1e-9 + 1e-6*|b| tolerance.
    assert not gate_manifests(runs((0.010,) * 3), runs((0.010,) * 3)).regressed
    nearly = runs((0.010 * (1 + 1e-9),) * 3)
    report = gate_manifests(runs((0.010,) * 3), nearly)
    assert not report.regressed
    row = next(r for r in report.rows if r.kind in ("accuracy", "aggregate"))
    assert row.verdict == "matched"
    # One drifting run on either side is enough to fail.
    assert gate_manifests(runs((0.010, 0.010, 0.0101)), runs((0.010,))).regressed


def test_removed_metric_and_workload_fail_new_ones_inform():
    baseline = [
        make_manifest(
            workloads=[
                {"workload": "w", "sieve_error": 0.01, "pks_error": 0.02},
                {"workload": "gone", "sieve_error": 0.01},
            ]
        )
        for _ in range(2)
    ]
    current = [
        make_manifest(
            workloads=[
                {"workload": "w", "sieve_error": 0.01, "random_error": 0.09},
                {"workload": "fresh", "sieve_error": 0.01},
            ]
        )
        for _ in range(2)
    ]
    report = gate_manifests(baseline, current)
    by_name = {(row.kind, row.name): row for row in report.rows}
    assert by_name[("accuracy", "w.pks_error")].failed  # metric vanished
    assert not by_name[("accuracy", "w.random_error")].failed  # new metric
    assert by_name[("workload-removed", "gone")].failed
    assert not by_name[("workload-new", "fresh")].failed


def test_aggregate_regression_and_removal():
    baseline = [
        make_manifest(aggregates={"sieve_avg": 0.010, "old_key": 1.0})
        for _ in range(3)
    ]
    current = [make_manifest(aggregates={"sieve_avg": 0.012}) for _ in range(3)]
    report = gate_manifests(baseline, current)
    by_name = {(row.kind, row.name): row for row in report.rows}
    assert by_name[("aggregate", "sieve_avg")].verdict == "drifted"
    assert by_name[("aggregate", "old_key")].verdict == "removed"
    assert by_name[("aggregate", "old_key")].failed


def test_single_runs_fall_back_to_labeled_heuristic():
    report = gate_manifests(jittered(1.0)[:1], jittered(2.0)[:1])
    assert report.regressed
    assert all(
        row.mode == "single-sample"
        for row in report.rows
        if row.kind in ("total-wall", "stage-wall")
    )
    # Zero walls on either side: no ratio is ever taken against nothing.
    zero = [make_manifest(total=0.0, stages=(("a", 0.0),))]
    busy = [make_manifest(total=3.0, stages=(("a", 3.0),))]
    for baseline, current in ((zero, zero), (zero, busy), (busy, zero)):
        render_gate_report(gate_manifests(baseline, current), verbose=True)
    assert not gate_manifests(zero, zero).regressed


def test_report_round_trips_to_dict():
    report = gate_manifests(
        jittered(1.0), jittered(2.0, RERUN_JITTER), figure="fig3",
        baseline_label="abc123", current_label="def456",
    )
    payload = report.to_dict()
    assert payload["verdict"] == "regressed"
    assert payload["figure"] == "fig3"
    assert payload["n_baseline"] == payload["n_current"] == 3
    total = next(r for r in payload["rows"] if r["kind"] == "total-wall")
    assert total["baseline"]["n"] == 3
    assert total["baseline"]["ci_low"] <= total["baseline"]["ci_high"]


def test_render_folds_indistinguishable_rows():
    clean = gate_manifests(jittered(1.0), jittered(1.0, RERUN_JITTER))
    text = render_gate_report(clean)
    assert "statistically indistinguishable" in text
    assert "verdict: INDISTINGUISHABLE" in text
    assert "stage-wall" not in text  # folded away

    verbose = render_gate_report(clean, verbose=True)
    assert "stratify" in verbose and "CI[" in verbose

    bad = gate_manifests(jittered(1.0), jittered(2.0, RERUN_JITTER))
    text = render_gate_report(bad)
    assert "FAIL" in text and "verdict: REGRESSED" in text


def test_empty_run_sets_rejected():
    with pytest.raises(ValueError):
        gate_manifests([], jittered(1.0))
    with pytest.raises(ValueError):
        gate_manifests(jittered(1.0), [])
