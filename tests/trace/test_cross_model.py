"""Cross-model consistency: trace simulator vs analytical timing model.

The repository contains two independent performance models — the
interval-analysis model that plays "real hardware" and the cycle-level
trace-driven simulator. They operate at different scales, but on relative
questions they must agree qualitatively; these tests pin that agreement.
"""

import dataclasses

import numpy as np
import pytest

from repro.gpu import AMPERE_RTX3080
from repro.gpu.timing import invocation_timing
from repro.trace import simulator as simulator_mod
from repro.trace.simulator import SimulatorConfig, TraceSimulator
from repro.trace.tracer import SelectionTracer, TracerConfig
from repro.workloads.generator import generate
from tests.conftest import make_spec


@pytest.fixture(scope="module")
def world():
    spec = make_spec(name="crossmodel", num_kernels=6, num_invocations=600,
                     tier_fractions=(1.0, 0.0, 0.0))
    run = generate(spec)
    tracer = SelectionTracer(TracerConfig(max_warps=8, max_warp_instructions=256))
    simulator = TraceSimulator(SimulatorConfig(num_sms=2))
    return run, tracer, simulator


def _models_ipc(run, tracer, simulator, kernel):
    """(analytical chip IPC, trace-sim chip IPC) for one kernel."""
    analytical = invocation_timing(AMPERE_RTX3080, kernel.traits, kernel.batch)
    analytical_ipc = float(
        kernel.batch.insn_count[0] / analytical.total_cycles[0]
    )
    trace = tracer.trace_invocation(run, kernel.traits.name, 0)
    simulated = simulator.simulate(trace)
    return analytical_ipc, simulated.ipc


def test_kernel_ipc_rankings_correlate(world):
    """Kernels the analytical model calls fast should also be fast in the
    trace simulator (rank correlation, not absolute agreement — the
    simulator models a 2-SM chip on scaled traces)."""
    run, tracer, simulator = world
    analytical, simulated = [], []
    for kernel in run.kernels:
        a, s = _models_ipc(run, tracer, simulator, kernel)
        analytical.append(a)
        simulated.append(s)
    a_ranks = np.argsort(np.argsort(analytical))
    s_ranks = np.argsort(np.argsort(simulated))
    correlation = np.corrcoef(a_ranks, s_ranks)[0, 1]
    assert correlation > 0.3


def test_both_models_punish_divergence(world):
    run, tracer, simulator = world
    kernel = run.kernels[0]

    divergent_batch = dataclasses.replace(
        kernel.batch,
        divergence_efficiency=np.full_like(
            kernel.batch.divergence_efficiency, 0.5
        ),
    )
    base = invocation_timing(AMPERE_RTX3080, kernel.traits, kernel.batch)
    divergent = invocation_timing(AMPERE_RTX3080, kernel.traits, divergent_batch)
    assert divergent.total_cycles[0] > base.total_cycles[0]

    # Trace side: fewer active lanes -> fewer thread-instructions per
    # issued warp instruction -> lower thread-level IPC.
    trace = tracer.trace_invocation(run, kernel.traits.name, 0)
    result = simulator.simulate(trace)
    per_warp_parallelism = result.thread_instructions / result.warp_instructions
    expected = 32 * float(kernel.batch.divergence_efficiency[0])
    assert per_warp_parallelism == pytest.approx(expected, rel=0.1)


def test_memory_intensity_slows_both_models(world, monkeypatch):
    """A memory-heavier variant of the same kernel runs slower under both
    models."""
    run, tracer, simulator = world
    kernel = run.kernels[0]

    heavy_traits = dataclasses.replace(
        kernel.traits, l1_hit_rate=0.0, l2_hit_rate=0.0
    )
    light_traits = dataclasses.replace(
        kernel.traits, l1_hit_rate=0.95, l2_hit_rate=0.95
    )
    heavy = invocation_timing(AMPERE_RTX3080, heavy_traits, kernel.batch)
    light = invocation_timing(AMPERE_RTX3080, light_traits, kernel.batch)
    assert heavy.total_cycles[0] >= light.total_cycles[0]

    # Trace side: widen strides so the L1/L2 thrash, and compare with a
    # cache-resident version of the same instruction stream.
    trace = tracer.trace_invocation(run, kernel.traits.name, 0)
    monkeypatch.setattr(simulator_mod, "L1_SIZE", 16 * 1024 * 1024)
    monkeypatch.setattr(simulator_mod, "L2_SIZE", 64 * 1024 * 1024)
    resident = simulator.simulate(trace)
    monkeypatch.setattr(simulator_mod, "L1_SIZE", 1024)
    monkeypatch.setattr(simulator_mod, "L2_SIZE", 2048)
    thrashing = simulator.simulate(trace)
    assert thrashing.cycles >= resident.cycles
