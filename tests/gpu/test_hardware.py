"""Tests for the hardware executor (golden-reference measurements)."""

import numpy as np
import pytest

from repro.evaluation.imputation import impute
from repro.gpu import AMPERE_RTX3080, TURING_RTX2080TI, HardwareExecutor
from repro.robustness.faults import inject_measurement_faults, parse_fault_plan
from repro.workloads.generator import generate
from tests.conftest import kernel_rows, make_spec


def test_measurement_is_deterministic(toy_run):
    a = HardwareExecutor(AMPERE_RTX3080).measure(toy_run)
    b = HardwareExecutor(AMPERE_RTX3080).measure(toy_run)
    assert a.total_cycles == b.total_cycles
    assert a.kernel_names == b.kernel_names
    assert np.array_equal(a.starts, b.starts)
    assert np.array_equal(a.cycles, b.cycles)


def test_total_cycles_sums_kernels(toy_measurement):
    assert toy_measurement.total_cycles == sum(toy_measurement.kernel_cycles().tolist())


def kernel_sums(measurement) -> list[int]:
    return [
        int(measurement.cycles[kernel_rows(measurement, name)].sum())
        for name in measurement.kernel_names
    ]


def fresh_total(measurement) -> int:
    return sum(kernel_sums(measurement))


@pytest.mark.parametrize(
    "plan", (None, "zero_cycles:0.2", "cycle_noise:0.5,clock_drift:0.3")
)
def test_cached_totals_equal_fresh_sums(toy_run, plan):
    """Totals are summed once per measurement; fault injection builds new
    measurements, whose totals are summed from their own cycles."""
    measurement = HardwareExecutor(AMPERE_RTX3080).measure(toy_run)
    assert measurement.total_cycles == fresh_total(measurement)
    if plan is not None:
        faulted, records = inject_measurement_faults(
            measurement, parse_fault_plan(plan, seed=5)
        )
        assert records
        assert faulted.total_cycles == fresh_total(faulted)
        assert faulted.total_cycles != measurement.total_cycles
        measurement = faulted
    assert measurement.kernel_cycles().tolist() == kernel_sums(measurement)
    assert measurement.total_cycles == fresh_total(measurement)


def test_total_instructions_matches_run(toy_run, toy_measurement):
    assert toy_measurement.total_instructions == toy_run.total_instructions


def test_ipc_consistency(toy_measurement):
    assert toy_measurement.insn_count.sum() / toy_measurement.cycles.sum() == pytest.approx(
        toy_measurement.total_instructions / toy_measurement.total_cycles
    )


def test_wall_time_uses_clock(toy_measurement):
    expected = toy_measurement.total_cycles / (AMPERE_RTX3080.clock_ghz * 1e9)
    assert toy_measurement.wall_time_seconds == pytest.approx(expected)


def test_per_kernel_measurement_covers_every_kernel(toy_run, toy_measurement):
    assert set(toy_measurement.kernel_names) == {
        k.traits.name for k in toy_run.kernels
    }
    for kernel in toy_run.kernels:
        measured = toy_measurement.cycles[kernel_rows(toy_measurement, kernel.traits.name)]
        assert len(measured) == len(kernel)


def test_measurement_noise_has_configured_scale():
    noisy_spec = make_spec(name="noisy", measurement_noise_cov=0.05,
                           tier_fractions=(1.0, 0.0, 0.0))
    run = generate(noisy_spec)
    measurement = HardwareExecutor(AMPERE_RTX3080).measure(run)
    # Tier-1 kernels execute identical work, so per-kernel cycle CoV is
    # (almost) exactly the measurement noise.
    kernel = max(run.kernels, key=len)
    cycles = measurement.cycles[kernel_rows(measurement, kernel.traits.name)].astype(float)
    cov = cycles.std() / cycles.mean()
    assert 0.02 < cov < 0.10


def test_architectures_measure_differently(toy_run):
    ampere = HardwareExecutor(AMPERE_RTX3080).measure(toy_run)
    turing = HardwareExecutor(TURING_RTX2080TI).measure(toy_run)
    assert ampere.total_cycles != turing.total_cycles
    assert ampere.architecture == "rtx3080"
    assert turing.architecture == "rtx2080ti"


def test_kernel_ipc_vector(toy_measurement):
    for k, count in enumerate(toy_measurement.counts.tolist()):
        ipc, imputed = impute(
            toy_measurement, np.full(count, k), np.arange(count), ipc=True
        )
        assert np.all(ipc > 0)
        assert not imputed.any()
        assert len(ipc) == count
