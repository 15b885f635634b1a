"""Interval-analysis timing model.

The model estimates the cycle count of each kernel invocation as the
maximum of a compute interval and a memory interval (plus a partial-overlap
residual), scaled by a latency-hiding utilization term driven by occupancy
and the kernel's hidden instruction-level parallelism. This is the standard
shape of analytical GPU models (Hong & Kim, GPUMech, GCoM) and is rich
enough to reproduce every behaviour the paper's evaluation depends on:

* cycles are a deterministic function of (kernel, instruction count, CTA
  shape) with small measurement noise — the property Sieve exploits;
* kernels with identical microarchitecture-independent characteristics but
  different hidden traits (ILP, cache locality, personality) run at
  different speeds — the property that defeats PKS clustering;
* architecture configs (SM datapaths, bandwidth, clock) shift kernels
  differently — the property probed by the Figure 9 relative study.

Every step is elementwise (``+ - * /``, ``maximum``, ``minimum`` and
integer floor division), so an invocation's cycles do not depend on
which other invocations share its call: one kernel's batch with its
:class:`KernelTraits`, or a whole workload's invocations with per-row
:class:`TraitColumns`, evaluated in blocks of :data:`BLOCK_ROWS` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.gpu.arch import WARP_SIZE, GpuArchitecture
from repro.gpu.kernel import InvocationBatch, KernelTraits, TraitColumns
from repro.gpu.memory import memory_traffic
from repro.gpu.occupancy import occupancy_table
from repro.observability import metrics, span

#: Arithmetic-pipeline latency (cycles) used in the latency-hiding term.
ALU_LATENCY = 8.0

#: L1 / L2 hit service latencies (cycles).
L1_HIT_LATENCY = 30.0
L2_HIT_LATENCY = 200.0

#: Global atomics retire at the L2; aggregate chip throughput (ops/cycle).
ATOMIC_THROUGHPUT = 64.0

#: Fraction of the shorter interval that does *not* overlap with the longer
#: one (0 would be a pure max-of-intervals model).
OVERLAP_RESIDUAL = 0.2

#: Smoothed cost of the ragged final CTA wave, in units of one CTA's work
#: on the critical-path SM.
WAVE_TAIL_PENALTY = 0.2

#: Rows evaluated at a time. The model keeps about 40 row-sized
#: temporaries alive, so a whole workload's rows at once would cost more
#: memory and cache than blocks of this size; the results are identical.
BLOCK_ROWS = 16_384


@dataclass(frozen=True)
class TimingBreakdown:
    """Per-invocation interval decomposition (arrays aligned to the batch)."""

    compute_cycles: np.ndarray
    memory_cycles: np.ndarray
    total_cycles: np.ndarray  # noiseless model output, before measurement noise
    dram_bytes: np.ndarray  # DRAM traffic (``memory_traffic``)


def _memory_warp_instructions(batch: InvocationBatch) -> np.ndarray:
    """Warp-level memory instructions issued (thread-level counts / 32)."""
    thread_level = (
        batch.thread_global_loads
        + batch.thread_global_stores
        + batch.thread_local_loads
        + batch.thread_shared_loads
        + batch.thread_shared_stores
        + batch.thread_global_atomics
    ).astype(np.float64)
    return thread_level / WARP_SIZE


def invocation_timing(
    arch: GpuArchitecture,
    traits: KernelTraits | TraitColumns,
    batch: InvocationBatch,
) -> TimingBreakdown:
    """Model the cycle count of every invocation in ``batch`` on ``arch``.

    ``traits`` is the kernel's :class:`KernelTraits`, or
    :class:`TraitColumns` aligned with ``batch`` when the batch holds the
    invocations of many kernels.
    """
    metrics.inc("gpu.timing.invocations", len(batch))
    with span("gpu.timing"):
        # Occupancy first, over every row, so a launch failure names the
        # same kernel whatever the blocking.
        ctas_per_sm, active_warps = occupancy_table(arch, traits, batch.cta_size)
        n = len(batch)
        result = TimingBreakdown(*(np.empty(n) for _ in fields(TimingBreakdown)))
        for start in range(0, n, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            block = _invocation_timing(
                arch,
                traits[rows] if isinstance(traits, TraitColumns) else traits,
                batch.rows(rows),
                ctas_per_sm[rows],
                active_warps[rows],
            )
            for f in fields(TimingBreakdown):
                getattr(result, f.name)[rows] = getattr(block, f.name)
        return result


def _invocation_timing(
    arch: GpuArchitecture,
    traits: KernelTraits | TraitColumns,
    batch: InvocationBatch,
    ctas_per_sm: np.ndarray,
    active_warps: np.ndarray,
) -> TimingBreakdown:
    num_ctas = batch.num_ctas.astype(np.float64)

    # Warp-level issue slots. Divergence below 1.0 inflates the number of
    # issue slots needed per thread-level instruction.
    warp_insns = batch.insn_count.astype(np.float64) / (
        WARP_SIZE * batch.divergence_efficiency
    )
    mem_warp_insns = np.minimum(_memory_warp_instructions(batch), warp_insns)
    compute_warp_insns = warp_insns - mem_warp_insns

    # CTA-wave makespan: the critical-path SM executes its proportional
    # share of CTAs plus a smoothed tail penalty for the ragged final wave
    # (small grids cannot spread across all SMs, so their per-SM share —
    # and hence their achieved IPC — degrades). A smooth penalty rather
    # than integer wave quantization reflects how CTA work-stealing
    # amortizes wave boundaries on real hardware.
    critical_ctas = np.maximum(num_ctas / arch.num_sms, 1.0) + WAVE_TAIL_PENALTY
    per_sm_share = critical_ctas / num_ctas

    per_sm_warp_insns = warp_insns * per_sm_share
    per_sm_compute = compute_warp_insns * per_sm_share
    per_sm_mem_issue = mem_warp_insns * per_sm_share

    # Issue-bound and unit-bound compute intervals (cycles per SM).
    issue_bound = per_sm_warp_insns / arch.schedulers_per_sm
    fp = per_sm_compute * traits.fp_ratio / arch.warp_throughput(arch.fp32_lanes_per_sm)
    integer = (
        per_sm_compute
        * traits.int_ratio
        / arch.warp_throughput(arch.int32_lanes_per_sm)
    )
    sfu = per_sm_compute * traits.sfu_ratio / arch.warp_throughput(arch.sfu_lanes_per_sm)
    lsu = per_sm_mem_issue / arch.warp_throughput(arch.lsu_lanes_per_sm)
    unit_bound = np.maximum.reduce([fp + integer, sfu, lsu])
    raw_compute = np.maximum(issue_bound, unit_bound)

    # Latency hiding: resident warps (possibly fewer than occupancy allows
    # when the grid is small) times ILP versus the average exposed latency.
    resident_ctas = np.minimum(ctas_per_sm.astype(np.float64), num_ctas)
    resident_warps = np.minimum(
        active_warps.astype(np.float64),
        resident_ctas * batch.warps_per_cta.astype(np.float64),
    )
    mem_fraction = np.divide(
        mem_warp_insns, warp_insns, out=np.zeros_like(warp_insns), where=warp_insns > 0
    )
    miss_latency = traits.l1_hit_rate * L1_HIT_LATENCY + (1.0 - traits.l1_hit_rate) * (
        traits.l2_hit_rate * L2_HIT_LATENCY
        + (1.0 - traits.l2_hit_rate) * arch.dram_latency_cycles
    )
    avg_latency = ALU_LATENCY + mem_fraction * miss_latency
    supply = resident_warps * traits.ilp
    utilization = supply / (supply + avg_latency)
    compute_cycles = raw_compute / utilization

    # Memory interval: chip-wide DRAM bytes over deliverable bandwidth, plus
    # L2 atomic serialization.
    traffic = memory_traffic(arch, traits, batch)
    memory_cycles = (
        traffic.dram_bytes / arch.bytes_per_cycle
        + traffic.atomic_ops / ATOMIC_THROUGHPUT
    )

    longer = np.maximum(compute_cycles, memory_cycles)
    shorter = np.minimum(compute_cycles, memory_cycles)
    total = (
        arch.kernel_launch_overhead_cycles
        + (longer + OVERLAP_RESIDUAL * shorter)
        * traits.personality
        * traits.efficiency_on(arch.family)
    )
    return TimingBreakdown(
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        total_cycles=total,
        dram_bytes=traffic.dram_bytes,
    )
