"""Tests for the cycle-level trace simulator."""

import pytest

from repro.gpu.isa import OpClass, WarpInstruction
from repro.trace.encoding import KernelTrace
from repro.trace import simulator
from repro.trace.simulator import SimulatorConfig, TraceSimulator


def make_trace(streams, name="k", cta_size=32):
    return KernelTrace(
        kernel_name=name, invocation_id=0, num_ctas=len(streams),
        cta_size=cta_size, warps=tuple(tuple(s) for s in streams),
    )


def alu_chain(n, dependent=True):
    """n FP32 ops; dependent chains serialize on the ALU latency."""
    ops = []
    for i in range(n):
        srcs = (0,) if not dependent else (1,)
        ops.append(WarpInstruction(OpClass.FP32, dest=1 if dependent else 2 + i % 8,
                                   srcs=srcs))
    ops.append(WarpInstruction(OpClass.EXIT))
    return ops


def test_dependent_chain_costs_latency_per_instruction():
    config = SimulatorConfig(num_sms=1)
    result = TraceSimulator(config).simulate(make_trace([alu_chain(100)]))
    # Each instruction waits for the previous write: >= latency apart
    # (the final instruction's own latency is not part of the makespan).
    assert result.cycles >= 99 * simulator.ALU_LATENCY
    assert result.warp_instructions == 101


def test_independent_instructions_pipeline():
    config = SimulatorConfig(num_sms=1)
    dependent = TraceSimulator(config).simulate(make_trace([alu_chain(200, True)]))
    independent = TraceSimulator(config).simulate(
        make_trace([alu_chain(200, False)])
    )
    assert independent.cycles < dependent.cycles


def test_multiple_warps_hide_latency():
    config = SimulatorConfig(num_sms=1)
    one = TraceSimulator(config).simulate(make_trace([alu_chain(100)]))
    four = TraceSimulator(config).simulate(make_trace([alu_chain(100)] * 4))
    # 4x the work in far less than 4x the time.
    assert four.cycles < one.cycles * 2.5
    assert four.warp_instructions == 4 * one.warp_instructions


def memory_stream(n, stride, base=0x10000):
    ops = []
    for i in range(n):
        ops.append(
            WarpInstruction(OpClass.LOAD_GLOBAL, address=base + i * stride,
                            dest=1, srcs=(0,))
        )
        ops.append(WarpInstruction(OpClass.FP32, dest=2, srcs=(1,)))
    ops.append(WarpInstruction(OpClass.EXIT))
    return ops


def test_cache_resident_faster_than_streaming():
    config = SimulatorConfig(num_sms=1)
    resident = TraceSimulator(config).simulate(
        make_trace([memory_stream(100, stride=0)])
    )
    streaming = TraceSimulator(config).simulate(
        make_trace([memory_stream(100, stride=4096)])
    )
    assert resident.cycles < streaming.cycles
    assert resident.l1_hit_rate > streaming.l1_hit_rate
    assert streaming.dram_requests > resident.dram_requests


def test_shared_memory_cheaper_than_dram():
    def shared_stream(n):
        ops = []
        for _ in range(n):
            ops.append(WarpInstruction(OpClass.LOAD_SHARED, address=0x10,
                                       dest=1, srcs=(0,)))
            ops.append(WarpInstruction(OpClass.FP32, dest=2, srcs=(1,)))
        ops.append(WarpInstruction(OpClass.EXIT))
        return ops

    config = SimulatorConfig(num_sms=1)
    shared = TraceSimulator(config).simulate(make_trace([shared_stream(100)]))
    dram = TraceSimulator(config).simulate(
        make_trace([memory_stream(100, stride=4096)])
    )
    assert shared.cycles < dram.cycles


def test_schedulers_both_complete():
    # Greedy-then-oldest is the one scheduler; every warp still completes.
    trace = make_trace([alu_chain(50)] * 6)
    result = TraceSimulator(SimulatorConfig(num_sms=1)).simulate(trace)
    assert result.warp_instructions == 6 * 51


def test_thread_instructions_respect_masks():
    half_mask = (1 << 16) - 1
    stream = [
        WarpInstruction(OpClass.FP32, active_mask=half_mask, dest=1),
        WarpInstruction(OpClass.EXIT, active_mask=half_mask),
    ]
    result = TraceSimulator(SimulatorConfig(num_sms=1)).simulate(
        make_trace([stream])
    )
    assert result.thread_instructions == 32


def test_warps_distributed_across_sms():
    # More warps than one SM's slots: one SM runs them in two residency
    # batches, four SMs in one each.
    trace = make_trace([alu_chain(100)] * (2 * simulator.MAX_WARPS_PER_SM))
    one_sm = TraceSimulator(SimulatorConfig(num_sms=1)).simulate(trace)
    four_sm = TraceSimulator(SimulatorConfig(num_sms=4)).simulate(trace)
    assert four_sm.cycles < one_sm.cycles


def test_max_cycles_guard(monkeypatch):
    monkeypatch.setattr(simulator, "MAX_CYCLES", 10)
    with pytest.raises(RuntimeError, match="max_cycles"):
        TraceSimulator(SimulatorConfig(num_sms=1)).simulate(make_trace([alu_chain(1000)]))


def test_ipc_definition():
    result = TraceSimulator(SimulatorConfig(num_sms=1)).simulate(
        make_trace([alu_chain(64, dependent=False)])
    )
    assert result.ipc == pytest.approx(result.thread_instructions / result.cycles)
