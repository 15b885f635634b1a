"""Tests for the PKS baseline pipeline."""

import numpy as np
import pytest

from repro.baselines import pks
from repro.baselines.pks import PksConfig, PksPipeline
from repro.evaluation.imputation import cycles_in_table_order
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.nvbit import NVBitProfiler
from tests.conftest import kernel_rows


@pytest.fixture(scope="module")
def pks_inputs(toy_run, toy_measurement):
    table, _ = NsightComputeProfiler().profile(toy_run)
    return table, toy_measurement


@pytest.fixture(scope="module")
def pks_selection(pks_inputs):
    table, golden = pks_inputs
    return PksPipeline().select(table, golden)


def test_requires_metric_matrix(toy_run, toy_measurement):
    table, _ = NVBitProfiler().profile(toy_run)
    with pytest.raises(ValueError, match="12-metric"):
        PksPipeline().select(table, toy_measurement)


def test_chosen_k_within_bounds(pks_selection):
    assert 2 <= pks_selection.chosen_k <= 20


def test_weights_are_cluster_count_shares(pks_selection):
    total = sum(r.group_size for r in pks_selection.representatives)
    assert total == pks_selection.num_invocations
    for rep in pks_selection.representatives:
        assert rep.weight == pytest.approx(
            rep.group_size / pks_selection.num_invocations
        )


def test_representatives_are_first_chronological(pks_inputs, pks_selection):
    table, _ = pks_inputs
    for rep, cluster_rows in zip(
        pks_selection.representatives, pks_selection.cluster_rows
    ):
        assert rep.row == cluster_rows[0]


def test_prediction_is_count_weighted_sum(pks_inputs, pks_selection):
    table, golden = pks_inputs
    prediction = PksPipeline().predict(pks_selection, golden)
    cycles = cycles_in_table_order(table, golden)
    expected = sum(
        rep.group_size * cycles[rep.row] for rep in pks_selection.representatives
    )
    assert prediction.predicted_cycles == pytest.approx(expected)


def test_chosen_k_minimizes_error(pks_inputs, monkeypatch):
    """Re-running with MAX_K below the chosen k cannot yield lower error
    (the k search is over a nested prefix of the same hierarchy)."""
    table, golden = pks_inputs
    full = PksPipeline().select(table, golden)
    monkeypatch.setattr(pks, "MAX_K", max(2, full.chosen_k - 1))
    restricted = PksPipeline().select(table, golden)
    full_err = abs(
        PksPipeline().predict(full, golden).predicted_cycles - golden.total_cycles
    )
    restricted_err = abs(
        PksPipeline().predict(restricted, golden).predicted_cycles
        - golden.total_cycles
    )
    assert full_err <= restricted_err + 1e-6


def test_selection_policies_yield_different_reps(pks_inputs):
    table, golden = pks_inputs
    first = PksPipeline(PksConfig(selection_policy="first")).select(table, golden)
    centroid = PksPipeline(PksConfig(selection_policy="centroid")).select(
        table, golden
    )
    assert [r.row for r in first.representatives] != [
        r.row for r in centroid.representatives
    ]
    assert first.method == "pks-first"
    assert centroid.method == "pks-centroid"


def test_random_policy_deterministic(pks_inputs):
    table, golden = pks_inputs
    config = PksConfig(selection_policy="random")
    a = PksPipeline(config).select(table, golden)
    b = PksPipeline(config).select(table, golden)
    assert [r.row for r in a.representatives] == [r.row for r in b.representatives]


def test_cycles_in_table_order_alignment(pks_inputs, toy_run):
    table, golden = pks_inputs
    cycles = cycles_in_table_order(table, golden)
    row = 17
    kernel_name = table.kernel_name_of_row(row)
    invocation = int(table.invocation_id[row])
    assert cycles[row] == golden.cycles[kernel_rows(golden, kernel_name)][invocation]


def test_clusters_partition_table(pks_inputs, pks_selection):
    table, _ = pks_inputs
    rows = np.sort(np.concatenate(pks_selection.cluster_rows))
    assert np.array_equal(rows, np.arange(len(table)))
