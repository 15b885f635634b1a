"""Tests for the hardware executor (golden-reference measurements)."""

import numpy as np
import pytest

from repro.gpu import AMPERE_RTX3080, TURING_RTX2080TI, HardwareExecutor
from repro.robustness.faults import inject_measurement_faults, parse_fault_plan
from repro.workloads.generator import generate
from tests.conftest import make_spec


def test_measurement_is_deterministic(toy_run):
    a = HardwareExecutor(AMPERE_RTX3080).measure(toy_run)
    b = HardwareExecutor(AMPERE_RTX3080).measure(toy_run)
    assert a.total_cycles == b.total_cycles
    for name in a.per_kernel:
        assert np.array_equal(a.per_kernel[name].cycles, b.per_kernel[name].cycles)


def test_total_cycles_sums_kernels(toy_measurement):
    assert toy_measurement.total_cycles == sum(
        m.total_cycles for m in toy_measurement.per_kernel.values()
    )


def fresh_total(measurement) -> int:
    return sum(int(k.cycles.sum()) for k in measurement.per_kernel.values())


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
    for kernel in measurement.per_kernel.values():
        assert kernel.total_cycles == int(kernel.cycles.sum())
    assert measurement.total_cycles == fresh_total(measurement)


def test_total_instructions_matches_run(toy_run, toy_measurement):
    assert toy_measurement.total_instructions == toy_run.total_instructions


def test_ipc_consistency(toy_measurement):
    assert toy_measurement.ipc() == pytest.approx(
        toy_measurement.total_instructions / toy_measurement.total_cycles
    )


def test_wall_time_uses_clock(toy_measurement):
    expected = toy_measurement.total_cycles / (AMPERE_RTX3080.clock_ghz * 1e9)
    assert toy_measurement.wall_time_seconds == pytest.approx(expected)


def test_per_kernel_measurement_covers_every_kernel(toy_run, toy_measurement):
    assert set(toy_measurement.per_kernel) == {
        k.traits.name for k in toy_run.kernels
    }
    for kernel in toy_run.kernels:
        measured = toy_measurement.per_kernel[kernel.traits.name]
        assert len(measured.cycles) == len(kernel)


def test_measurement_noise_has_configured_scale():
    noisy_spec = make_spec(name="noisy", measurement_noise_cov=0.05,
                           tier_fractions=(1.0, 0.0, 0.0))
    run = generate(noisy_spec)
    measurement = HardwareExecutor(AMPERE_RTX3080).measure(run)
    # Tier-1 kernels execute identical work, so per-kernel cycle CoV is
    # (almost) exactly the measurement noise.
    kernel = max(run.kernels, key=len)
    cycles = measurement.per_kernel[kernel.traits.name].cycles.astype(float)
    cov = cycles.std() / cycles.mean()
    assert 0.02 < cov < 0.10


def test_architectures_measure_differently(toy_run):
    ampere = HardwareExecutor(AMPERE_RTX3080).measure(toy_run)
    turing = HardwareExecutor(TURING_RTX2080TI).measure(toy_run)
    assert ampere.total_cycles != turing.total_cycles
    assert ampere.architecture == "rtx3080"
    assert turing.architecture == "rtx2080ti"


def test_kernel_ipc_vector(toy_measurement):
    for measured in toy_measurement.per_kernel.values():
        ipc = measured.ipc
        assert np.all(ipc > 0)
        assert len(ipc) == len(measured.cycles)
