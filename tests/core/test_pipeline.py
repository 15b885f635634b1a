"""End-to-end tests for the Sieve pipeline."""

import numpy as np
import pytest

from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.gpu import AMPERE_RTX3080, HardwareExecutor
from repro.profiling.nvbit import NVBitProfiler
from repro.workloads.generator import generate
from tests.conftest import make_spec


@pytest.fixture(scope="module")
def selection(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    return SievePipeline().select(table)


def test_one_representative_per_stratum(selection):
    assert selection.num_representatives == len(selection.strata)
    for rep, stratum in zip(selection.representatives, selection.strata):
        assert rep.kernel_name == stratum.kernel_name
        assert rep.group_size == stratum.size


def test_weights_sum_to_one(selection):
    total = sum(r.weight for r in selection.representatives)
    assert total == pytest.approx(1.0)


def test_representative_ids_resolve_in_measurement(selection, toy_measurement):
    cycles, insn, found = toy_measurement.lookup(*selection.locate(toy_measurement))
    assert found.all()
    assert np.all(cycles > 0)
    assert np.all(insn > 0)


def test_prediction_accuracy_on_toy_workload(selection, toy_measurement):
    prediction = SievePipeline().predict(selection, toy_measurement)
    error = prediction.error_against(toy_measurement.total_cycles)
    assert error < 0.05


def test_prediction_near_exact_without_noise():
    spec = make_spec(name="noiseless", measurement_noise_cov=0.0)
    run = generate(spec)
    table, _ = NVBitProfiler().profile(run)
    pipeline = SievePipeline()
    selection = pipeline.select(table)
    golden = HardwareExecutor(AMPERE_RTX3080).measure(run)
    error = pipeline.predict(selection, golden).error_against(golden.total_cycles)
    assert error < 0.03


def test_selection_metadata(selection, toy_run):
    assert selection.workload == toy_run.label
    assert selection.method == "sieve"
    assert selection.num_invocations == toy_run.num_invocations
    assert selection.total_instructions == toy_run.total_instructions


def test_sample_cycles_far_below_total(selection, toy_measurement):
    assert selection.sample_cycles(toy_measurement) < (
        toy_measurement.total_cycles / 5
    )


def test_smaller_theta_gives_more_representatives(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    tight = SievePipeline(SieveConfig(theta=0.1)).select(table)
    loose = SievePipeline(SieveConfig(theta=1.0)).select(table)
    assert tight.num_representatives >= loose.num_representatives


def test_selection_policies_change_representatives(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    default = SievePipeline(SieveConfig(selection_policy="dominant_cta")).select(table)
    random_policy = SievePipeline(SieveConfig(selection_policy="random")).select(table)
    default_rows = [r.row for r in default.representatives]
    random_rows = [r.row for r in random_policy.representatives]
    assert default_rows != random_rows


def test_empty_table_rejected(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    import dataclasses

    empty = dataclasses.replace(
        table,
        kernel_id=np.array([], dtype=np.int32),
        invocation_id=np.array([], dtype=np.int64),
        insn_count=np.array([], dtype=np.int64),
        cta_size=np.array([], dtype=np.int32),
        num_ctas=np.array([], dtype=np.int64),
        metrics=None,
    )
    with pytest.raises(ValueError):
        SievePipeline().select(empty)
