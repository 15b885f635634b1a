"""Selection-aware tracer (the paper's modified Accel-sim/NVBit tracer).

"We have modified the Accel-sim tracer, which uses the NVBit
instrumentation tool, to only create the SASS trace of the selected kernel
invocations" (Section V-G). Given a workload run and a sample selection,
this tracer synthesizes a SASS-like instruction trace for each
representative invocation — and nothing else.

Full-fidelity traces of ~1e9-instruction invocations are impractical to
hold in memory, so the tracer emits a *scaled* trace: a configurable warp
subset executing the invocation's instruction mix with its coalescing,
divergence and sharing behaviour. The scaled trace drives the cycle-level
simulator at a proportionally reduced instruction budget; the scale factor
is recorded in the result so IPC (a ratio) remains directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.types import SampleSelection
from repro.gpu.isa import OpClass, WarpInstruction
from repro.trace.encoding import KernelTrace, render_trace
from repro.utils.seeding import rng_for
from repro.utils.validation import require
from repro.workloads.generator import GeneratedKernel, WorkloadRun

#: Cache line / sector granularity for generated addresses.
SECTOR = 32

#: Base of the synthetic global-memory address space per warp.
GLOBAL_BASE = 0x1000_0000

#: Architectural registers the generated code uses for its dependences.
REGISTERS = 16


@dataclass(frozen=True)
class TracerConfig:
    """Controls the size of the emitted traces."""

    max_warps: int = 64
    max_warp_instructions: int = 4096

    def __post_init__(self) -> None:
        require(self.max_warps >= 1, "need at least one warp")
        require(self.max_warp_instructions >= 8, "trace too short to be useful")


class SelectionTracer:
    """Emit traces for the representative invocations of a selection."""

    def __init__(self, config: TracerConfig | None = None):
        self.config = config or TracerConfig()

    # ------------------------------------------------------------------ #

    def _instruction_mix(
        self, kernel: GeneratedKernel, row_index: int
    ) -> dict[OpClass, float]:
        """Per-warp-instruction probabilities from the invocation metrics."""
        batch = kernel.batch
        insn = float(batch.insn_count[row_index])
        mem_rates = {
            OpClass.LOAD_GLOBAL: float(batch.thread_global_loads[row_index]) / insn,
            OpClass.STORE_GLOBAL: float(batch.thread_global_stores[row_index]) / insn,
            OpClass.LOAD_SHARED: float(batch.thread_shared_loads[row_index]) / insn,
            OpClass.STORE_SHARED: float(batch.thread_shared_stores[row_index]) / insn,
            OpClass.LOAD_LOCAL: float(batch.thread_local_loads[row_index]) / insn,
            OpClass.ATOMIC: float(batch.thread_global_atomics[row_index]) / insn,
        }
        compute_budget = max(1.0 - sum(mem_rates.values()), 0.05)
        traits = kernel.traits
        mix = dict(mem_rates)
        mix[OpClass.FP32] = compute_budget * traits.fp_ratio
        mix[OpClass.SFU] = compute_budget * traits.sfu_ratio
        mix[OpClass.BRANCH] = compute_budget * 0.05
        mix[OpClass.INT32] = max(compute_budget - mix[OpClass.FP32]
                                 - mix[OpClass.SFU] - mix[OpClass.BRANCH], 0.0)
        total = sum(mix.values())
        return {op: p / total for op, p in mix.items() if p > 0}

    def _warp_stream(
        self,
        mix: dict[OpClass, float],
        length: int,
        warp_id: int,
        divergence: float,
        coalescing: float,
        rng: np.random.Generator,
    ) -> tuple[WarpInstruction, ...]:
        """Generate one warp's instruction stream."""
        ops = list(mix.keys())
        probabilities = np.array([mix[op] for op in ops])
        choices = rng.choice(len(ops), size=length - 1, p=probabilities)

        # Lane mask honours the measured divergence efficiency.
        active_lanes = max(1, round(32 * divergence))
        mask = (1 << active_lanes) - 1

        stream: list[WarpInstruction] = []
        stride = SECTOR if coalescing > 0.75 else SECTOR * 8
        address = GLOBAL_BASE + warp_id * 0x10000
        shared_address = warp_id % 16 * 0x100
        for position, choice in enumerate(choices):
            op = ops[choice]
            dest = int(rng.integers(REGISTERS)) if op is not OpClass.BRANCH else -1
            srcs = (int(rng.integers(REGISTERS)), int(rng.integers(REGISTERS)))
            if op.is_memory:
                if op in (OpClass.LOAD_SHARED, OpClass.STORE_SHARED):
                    insn_address = shared_address
                else:
                    address += stride
                    insn_address = address
            else:
                insn_address = 0
            stream.append(
                WarpInstruction(
                    opclass=op,
                    active_mask=mask,
                    address=insn_address,
                    dest=dest,
                    srcs=srcs,
                )
            )
            if position % 64 == 63:  # periodic loop back through the buffer
                address = GLOBAL_BASE + warp_id * 0x10000
        stream.append(WarpInstruction(opclass=OpClass.EXIT, active_mask=mask))
        return tuple(stream)

    # ------------------------------------------------------------------ #

    def trace_invocation(
        self, run: WorkloadRun, kernel_name: str, invocation_id: int
    ) -> KernelTrace:
        """Synthesize the (scaled) trace of one kernel invocation."""
        kernel = run.kernel_by_name(kernel_name)
        batch = kernel.batch
        require(
            0 <= invocation_id < len(batch), f"invocation {invocation_id} out of range"
        )
        cta_size = int(batch.cta_size[invocation_id])
        warps_total = int(batch.warps_per_cta[invocation_id]) * int(
            batch.num_ctas[invocation_id]
        )
        warps = min(warps_total, self.config.max_warps)
        warp_insns_total = float(batch.insn_count[invocation_id]) / 32.0
        per_warp = int(
            min(
                max(warp_insns_total / warps_total, 8),
                self.config.max_warp_instructions,
            )
        )
        mix = self._instruction_mix(kernel, invocation_id)
        rng = rng_for("tracer", run.label, kernel_name, invocation_id)
        coalescing = 1.0 if batch.coalesced_global_loads[invocation_id] * 24 <= (
            batch.thread_global_loads[invocation_id] or 1
        ) else 0.5
        streams = tuple(
            self._warp_stream(
                mix,
                per_warp,
                warp_id,
                float(batch.divergence_efficiency[invocation_id]),
                coalescing,
                rng,
            )
            for warp_id in range(warps)
        )
        return KernelTrace(
            kernel_name=kernel_name,
            invocation_id=invocation_id,
            num_ctas=int(batch.num_ctas[invocation_id]),
            cta_size=cta_size,
            warps=streams,
        )

    def trace_selection(
        self, run: WorkloadRun, selection: SampleSelection
    ) -> list[KernelTrace]:
        """Traces for every representative invocation of ``selection``."""
        return [
            self.trace_invocation(run, rep.kernel_name, rep.invocation_id)
            for rep in selection.representatives
        ]

    def write_selection(
        self, run: WorkloadRun, selection: SampleSelection, directory: str | Path
    ) -> list[Path]:
        """Write one plain-text trace file per representative invocation."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for trace in self.trace_selection(run, selection):
            path = directory / f"{trace.kernel_name}_{trace.invocation_id}.trace"
            path.write_text(render_trace(trace))
            paths.append(path)
        return paths
