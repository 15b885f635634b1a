"""Tests for simulation-time estimation and PKP-style projection."""

import pytest

from repro.core.pipeline import SievePipeline
from repro.gpu.isa import OpClass, WarpInstruction
from repro.profiling.nvbit import NVBitProfiler
from repro.trace.encoding import KernelTrace
from repro.trace.projection import simulate_with_projection
from repro.trace.simtime import estimate_simulation_time
from repro.trace.simulator import SimulatorConfig


@pytest.fixture(scope="module")
def selection(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    return SievePipeline().select(table)


class TestSimTime:
    def test_serial_is_sum_parallel_is_max(self, selection, toy_measurement):
        estimate = estimate_simulation_time(selection, toy_measurement)
        _, insn, _ = toy_measurement.lookup(*selection.locate(toy_measurement))
        insn = insn.tolist()
        rate = 6000.0
        assert estimate.serial_seconds == pytest.approx(sum(insn) / rate)
        assert estimate.parallel_seconds == pytest.approx(max(insn) / rate)
        assert estimate.num_traces == selection.num_representatives

    def test_custom_rate(self, selection, toy_measurement):
        slow = estimate_simulation_time(selection, toy_measurement, 1000.0)
        fast = estimate_simulation_time(selection, toy_measurement, 10_000.0)
        assert slow.serial_seconds == pytest.approx(fast.serial_seconds * 10)

    def test_unit_conversions(self, selection, toy_measurement):
        estimate = estimate_simulation_time(selection, toy_measurement)
        assert estimate.serial_days == pytest.approx(
            estimate.serial_seconds / 86_400
        )
        assert estimate.parallel_hours == pytest.approx(
            estimate.parallel_seconds / 3_600
        )


def homogeneous_trace(warps=32, insns=60):
    stream = []
    for i in range(insns):
        stream.append(WarpInstruction(OpClass.FP32, dest=2 + i % 4, srcs=(0,)))
    stream.append(WarpInstruction(OpClass.EXIT))
    return KernelTrace(
        kernel_name="homogeneous", invocation_id=0, num_ctas=warps,
        cta_size=32, warps=tuple(tuple(stream) for _ in range(warps)),
    )


class TestProjection:
    def test_converges_early_on_homogeneous_work(self):
        result = simulate_with_projection(
            homogeneous_trace(), SimulatorConfig(num_sms=2), batch_warps=4,
            tolerance=0.05,
        )
        assert result.converged
        assert result.simulated_warp_fraction < 1.0
        assert result.projected_ipc > 0

    def test_checkpoints_recorded(self):
        result = simulate_with_projection(
            homogeneous_trace(warps=16), SimulatorConfig(num_sms=2),
            batch_warps=4,
        )
        assert len(result.checkpoints) >= 2

    def test_tight_tolerance_simulates_more(self):
        loose = simulate_with_projection(
            homogeneous_trace(), SimulatorConfig(num_sms=2), batch_warps=4,
            tolerance=0.5,
        )
        tight = simulate_with_projection(
            homogeneous_trace(), SimulatorConfig(num_sms=2), batch_warps=4,
            tolerance=0.0001,
        )
        assert tight.simulated_warp_fraction >= loose.simulated_warp_fraction

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            simulate_with_projection(homogeneous_trace(), batch_warps=0)
        with pytest.raises(ValueError):
            simulate_with_projection(homogeneous_trace(), tolerance=1.5)
