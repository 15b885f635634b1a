"""Tests for PKS on two-level profiles."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pks import PksPipeline
from repro.baselines.pks_two_level import (
    TwoLevelPksConfig,
    TwoLevelPksPipeline,
    light_cluster_counts,
)
from repro.core.reference import light_cluster_counts_scalar
from repro.evaluation.context import build_context
from repro.evaluation.runner import evaluate_method
from repro.methods import get_method
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.table import ProfileTable
from repro.profiling.two_level import TwoLevelProfiler
from repro.robustness.faults import parse_fault_plan


@pytest.fixture(scope="module")
def two_level_profile(toy_run):
    return TwoLevelProfiler(detailed_budget=400).profile(toy_run)


@pytest.fixture(scope="module")
def two_level_selection(two_level_profile, toy_measurement):
    return TwoLevelPksPipeline().select(
        two_level_profile.detailed, two_level_profile.light, toy_measurement
    )


def test_weights_cover_the_whole_workload(two_level_selection, toy_run):
    assert two_level_selection.num_invocations == toy_run.num_invocations
    total = sum(r.group_size for r in two_level_selection.representatives)
    assert total == toy_run.num_invocations
    assert sum(r.weight for r in two_level_selection.representatives) == (
        pytest.approx(1.0)
    )


def test_representatives_come_from_detailed_batch(
    two_level_selection, two_level_profile
):
    for rep in two_level_selection.representatives:
        assert rep.row < len(two_level_profile.detailed)


def test_total_instructions_include_light_batch(
    two_level_selection, two_level_profile
):
    expected = int(
        two_level_profile.detailed.insn_count.sum()
        + two_level_profile.light.insn_count.sum()
    )
    assert two_level_selection.total_instructions == expected


def test_prediction_runs_and_is_bounded(two_level_selection, toy_measurement):
    prediction = TwoLevelPksPipeline().predict(two_level_selection, toy_measurement)
    assert prediction.predicted_cycles > 0
    assert prediction.error_against(toy_measurement.total_cycles) < 2.0


def test_method_label(two_level_selection):
    assert two_level_selection.method == "pks-two-level"


def test_comparable_to_full_pks(toy_run, toy_measurement):
    """Extrapolating from a prefix can't be better-informed than full
    profiling, but it must stay in a sane error range on the toy
    workload."""
    full_table, _ = NsightComputeProfiler().profile(toy_run)
    full = PksPipeline().select(full_table, toy_measurement)
    full_error = PksPipeline().predict(full, toy_measurement).error_against(
        toy_measurement.total_cycles
    )
    profile = TwoLevelProfiler(detailed_budget=400).profile(toy_run)
    two_level = TwoLevelPksPipeline().select(
        profile.detailed, profile.light, toy_measurement
    )
    two_level_error = TwoLevelPksPipeline().predict(
        two_level, toy_measurement
    ).error_against(toy_measurement.total_cycles)
    assert two_level_error < max(4 * full_error, 0.5)


def test_method_selects_what_the_profiler_path_selects(
    toy_run, toy_measurement, two_level_selection
):
    """On a clean profile, splitting the Nsight table selects exactly what
    clustering the two-level profiler's tables does."""
    table, _ = NsightComputeProfiler().profile(toy_run)
    context = SimpleNamespace(label=toy_run.label, pks_table=table, golden=toy_measurement)
    selection = get_method("pks-two-level").select(
        context, TwoLevelPksConfig(detailed_budget=400)
    )
    assert pickle.dumps(selection) == pickle.dumps(two_level_selection)


def faulted_gru(plan: str):
    return build_context(
        "cactus/gru", max_invocations=1500, fault_plan=parse_fault_plan(plan, seed=7)
    )


def test_method_scores_a_table_that_lost_rows():
    """``drop`` removes Nsight rows; the method selects from that table, so
    its cluster rows index the table it is scored on."""
    result = evaluate_method("pks-two-level", faulted_gru("drop:0.1"))
    assert result.num_representatives >= 1
    assert np.isfinite(result.error)


def test_representatives_name_their_row_of_the_faulted_table():
    context = faulted_gru("duplicate:0.05")
    selection = evaluate_method("pks-two-level", context).selection
    table = context.pks_table
    for rep in selection.representatives:
        assert (rep.kernel_name, rep.invocation_id) == (
            table.kernel_name_of_row(rep.row),
            int(table.invocation_id[rep.row]),
        )


def _table(kernel_id, cta_size) -> ProfileTable:
    n = len(kernel_id)
    return ProfileTable(
        workload="votes",
        kernel_names=tuple(f"k{k}" for k in range(8)),
        kernel_id=np.asarray(kernel_id, dtype=np.int32),
        invocation_id=np.arange(n, dtype=np.int64),
        insn_count=np.ones(n, dtype=np.int64),
        cta_size=np.asarray(cta_size, dtype=np.int32),
        num_ctas=np.ones(n, dtype=np.int64),
    )


def test_tied_votes_go_to_the_cluster_that_entered_first():
    """Ties resolve as ``Counter.most_common(1)``: the first-inserted
    maximum, which for a kernel is not the smallest cluster index."""
    # Detailed rows: kernel 0 at CTA 128 votes once for clusters 0 and 2;
    # kernel 1 at CTA 64 votes {1: 1, 3: 2}, at CTA 256 votes {2: 2}.
    detailed = _table([0, 1, 0, 1, 1, 1, 1, 5], [128, 64, 128, 64, 64, 256, 256, 32])
    cluster_rows = [
        np.array([0]), np.array([1]), np.array([2, 5, 6]), np.array([3, 4]),
        np.array([7]),
    ]
    group_sizes = [1, 1, 3, 2, 1]
    light = _table(
        [0, 1, 1, 1, 7, 5],
        # tie 0/2 -> 0; signature majority -> 3; unseen CTA: kernel tally
        # {1: 1, 3: 2, 2: 2} ties 3 and 2, and 3 entered first; unseen
        # kernel -> most populous cluster 2; kernel 5's only cluster 4.
        [128, 64, 512, 256, 32, 999],
    )
    want = light_cluster_counts_scalar(detailed, light, cluster_rows, group_sizes)
    assert want.tolist() == [1, 0, 2, 2, 1]
    got = light_cluster_counts(detailed, light, cluster_rows, group_sizes)
    assert got.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(
    detailed=st.lists(st.tuples(st.integers(0, 4), st.sampled_from((-(2**31), 1, 64, 2**31 - 1)),
                                st.integers(0, 5)), min_size=1, max_size=60),
    light=st.lists(st.tuples(st.integers(0, 6), st.sampled_from((-(2**31), 1, 64, 128, 2**31 - 1))),
                   max_size=60),
)
def test_light_votes_match_the_counter_oracle(detailed, light):
    kernels, sizes, clusters = (np.array(column) for column in zip(*detailed))
    present = np.unique(clusters)
    cluster_rows = [np.flatnonzero(clusters == c) for c in present]
    group_sizes = [len(rows) for rows in cluster_rows]
    detailed_table = _table(kernels, sizes)
    light_table = _table([k for k, _ in light], [c for _, c in light])
    want = light_cluster_counts_scalar(detailed_table, light_table, cluster_rows, group_sizes)
    got = light_cluster_counts(detailed_table, light_table, cluster_rows, group_sizes)
    assert got.tolist() == want.tolist()
