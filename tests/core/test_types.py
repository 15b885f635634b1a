"""Tests for the shared sampling output types."""

import pytest

from repro.core.types import Representative, SampleSelection
from tests.conftest import kernel_rows


def rep(**overrides):
    defaults = dict(
        kernel_name="k", kernel_id=0, invocation_id=0, row=0,
        weight=1.0, group="g", group_size=10,
    )
    defaults.update(overrides)
    return Representative(**defaults)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        rep(weight=-0.1)


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        rep(group_size=0)


def test_selection_requires_representatives():
    with pytest.raises(ValueError):
        SampleSelection(
            workload="w", method="m", representatives=(),
            total_instructions=100, num_invocations=10,
        )


def test_selection_cannot_exceed_population():
    with pytest.raises(ValueError):
        SampleSelection(
            workload="w", method="m",
            representatives=(rep(), rep(invocation_id=1)),
            total_instructions=100, num_invocations=1,
        )


def selection_of(*representatives):
    return SampleSelection(
        workload="w", method="m", representatives=representatives,
        total_instructions=100, num_invocations=len(representatives),
    )


def test_measured_lookups(toy_run, toy_measurement):
    kernel = toy_run.kernels[0]
    selection = selection_of(rep(kernel_name=kernel.traits.name, invocation_id=2))
    cycles, insn, found = toy_measurement.lookup(*selection.locate(toy_measurement))
    assert found.tolist() == [True]
    assert int(cycles[0]) == int(
        toy_measurement.cycles[kernel_rows(toy_measurement, kernel.traits.name)][2]
    )
    assert int(insn[0]) == int(kernel.batch.insn_count[2])
    assert selection.sample_cycles(toy_measurement) == int(cycles[0])


def test_unknown_kernel_lookup_is_not_found(toy_measurement):
    selection = selection_of(rep(kernel_name="ghost"))
    kernel, ids = selection.locate(toy_measurement)
    assert kernel.tolist() == [-1]
    cycles, insn, found = toy_measurement.lookup(kernel, ids)
    assert (cycles.tolist(), insn.tolist(), found.tolist()) == ([0], [0], [False])


def test_ids_outside_the_kernel_are_not_found(toy_run, toy_measurement):
    name = toy_run.kernels[0].traits.name
    count = len(toy_run.kernels[0])
    ids = [-1, -count, 0, count - 1, count]
    cycles, _, found = toy_measurement.lookup(toy_measurement.kernel_index([name] * 5), ids)
    assert found.tolist() == [False, False, True, True, False]
    assert cycles[~found].tolist() == [0, 0, 0]


def test_duplicate_kernel_names_rejected_by_executor(toy_run):
    from repro.gpu import AMPERE_RTX3080, HardwareExecutor

    class DoubledWorkload:
        name = "doubled"
        kernels = [toy_run.kernels[0], toy_run.kernels[0]]

    with pytest.raises(ValueError, match="duplicate kernel"):
        HardwareExecutor(AMPERE_RTX3080).measure(DoubledWorkload())
