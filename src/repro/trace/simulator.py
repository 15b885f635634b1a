"""Cycle-level trace-driven GPU simulator.

A deliberately small Accel-sim-like model: per-SM warp contexts with
in-order issue, a register scoreboard, greedy-then-oldest warp
scheduling, per-class execution latencies, a per-SM L1, a shared L2 and a
bandwidth-limited DRAM. It consumes the plain-text traces
produced by :mod:`repro.trace.tracer` and reports cycles and IPC.

The simulator is intentionally scaled down (default 4 SMs) to keep
simulation times proportionate to the scaled traces; IPC is reported per
SM so results are comparable across configurations. The SM count is the
one setting; the rest of the model is the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.isa import OpClass
from repro.trace.cache import SetAssociativeCache
from repro.trace.dram import DramModel
from repro.trace.encoding import KernelTrace
from repro.utils.validation import require


#: Warp contexts resident on one SM; further warps run in later residency
#: batches on the same SM.
MAX_WARPS_PER_SM = 16
#: Warp instructions one SM issues per cycle, at most.
SCHEDULERS_PER_SM = 2
#: Cache capacities in bytes: one L1 per SM, one shared L2.
L1_SIZE = 32 * 1024
L2_SIZE = 512 * 1024
#: Completion latencies in cycles.
L1_LATENCY = 30
L2_LATENCY = 90
SHARED_LATENCY = 24
ALU_LATENCY = 4
SFU_LATENCY = 16
#: Runaway guard: a residency batch still issuing past this cycle raises.
MAX_CYCLES = 5_000_000


@dataclass(frozen=True)
class SimulatorConfig:
    """Scaled-down GPU configuration for trace simulation."""

    num_sms: int = 4

    def __post_init__(self) -> None:
        require(self.num_sms >= 1, "need at least one SM")


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one kernel trace."""

    kernel_name: str
    invocation_id: int
    cycles: int
    warp_instructions: int
    thread_instructions: int
    l1_hit_rate: float
    l2_hit_rate: float
    dram_requests: int

    @property
    def ipc(self) -> float:
        """Thread-level instructions per cycle (whole modeled chip)."""
        return self.thread_instructions / self.cycles if self.cycles else 0.0


class _WarpContext:
    """In-order issue state of one resident warp."""

    __slots__ = ("stream", "pc", "reg_ready", "stall_until", "done", "last_issue")

    def __init__(self, stream):
        self.stream = stream
        self.pc = 0
        self.reg_ready: dict[int, int] = {}
        self.stall_until = 0
        self.done = len(stream) == 0
        self.last_issue = -1

    def ready_at(self, cycle: int) -> bool:
        if self.done or self.stall_until > cycle:
            return False
        insn = self.stream[self.pc]
        for reg in insn.srcs:
            if self.reg_ready.get(reg, 0) > cycle:
                return False
        if insn.dest >= 0 and self.reg_ready.get(insn.dest, 0) > cycle:
            return False
        return True

    def next_event(self, cycle: int) -> int:
        """Earliest cycle at which this warp could become issuable."""
        if self.done:
            return 1 << 60
        bound = self.stall_until
        insn = self.stream[self.pc]
        for reg in insn.srcs:
            bound = max(bound, self.reg_ready.get(reg, 0))
        if insn.dest >= 0:
            bound = max(bound, self.reg_ready.get(insn.dest, 0))
        return max(bound, cycle + 1)


class TraceSimulator:
    """Simulate kernel traces on the scaled-down GPU model."""

    def __init__(self, config: SimulatorConfig | None = None):
        self.config = config or SimulatorConfig()

    def _memory_completion(
        self,
        insn,
        cycle: int,
        l1: SetAssociativeCache,
        l2: SetAssociativeCache,
        dram: DramModel,
    ) -> int:
        """Completion cycle of a memory instruction through the hierarchy."""
        op = insn.opclass
        if op in (OpClass.LOAD_SHARED, OpClass.STORE_SHARED):
            return cycle + SHARED_LATENCY
        if l1.access(insn.address):
            return cycle + L1_LATENCY
        if l2.access(insn.address):
            return cycle + L2_LATENCY
        return dram.request(cycle)

    def _issue(self, warp: _WarpContext, cycle, l1, l2, dram) -> int:
        """Issue the warp's next instruction; returns active lane count."""
        insn = warp.stream[warp.pc]
        op = insn.opclass
        if op.is_memory:
            completion = self._memory_completion(insn, cycle, l1, l2, dram)
        elif op is OpClass.SFU:
            completion = cycle + SFU_LATENCY
        else:
            completion = cycle + ALU_LATENCY
        if insn.dest >= 0:
            warp.reg_ready[insn.dest] = completion
        if op in (OpClass.STORE_GLOBAL, OpClass.STORE_SHARED, OpClass.STORE_LOCAL):
            # Stores retire without blocking the warp.
            completion = cycle + 1
        warp.stall_until = cycle + 1
        warp.last_issue = cycle
        warp.pc += 1
        if warp.pc >= len(warp.stream) or op is OpClass.EXIT:
            warp.done = True
        return insn.active_lanes

    def simulate(self, trace: KernelTrace) -> SimulationResult:
        """Run one kernel trace to completion."""
        num_sms = self.config.num_sms
        l1s = [SetAssociativeCache(L1_SIZE, associativity=4) for _ in range(num_sms)]
        l2 = SetAssociativeCache(L2_SIZE, associativity=8)
        dram = DramModel()

        # Distribute warps across SMs round-robin, honouring the warp cap
        # by running excess warps as additional batches on the same SM slot
        # (sequential residency, as CTA schedulers do).
        per_sm: list[list[_WarpContext]] = [[] for _ in range(num_sms)]
        for index, stream in enumerate(trace.warps):
            per_sm[index % num_sms].append(_WarpContext(stream))

        total_cycles = 0
        thread_insns = 0
        warp_insns = 0
        for sm_index, all_warps in enumerate(per_sm):
            l1 = l1s[sm_index]
            sm_cycles = 0
            # Process in residency batches of MAX_WARPS_PER_SM.
            for start in range(0, len(all_warps), MAX_WARPS_PER_SM):
                batch = all_warps[start : start + MAX_WARPS_PER_SM]
                cycle = 0
                last_greedy: _WarpContext | None = None
                while any(not w.done for w in batch):
                    if cycle > MAX_CYCLES:
                        raise RuntimeError("simulation exceeded max_cycles")
                    issued = 0
                    for _slot in range(SCHEDULERS_PER_SM):
                        # Greedy-then-oldest: the warp issued last keeps
                        # issuing while it is ready, else the oldest ready one.
                        if last_greedy is not None and last_greedy.ready_at(cycle):
                            candidate = last_greedy
                        else:
                            candidate = next((w for w in batch if w.ready_at(cycle)), None)
                        if candidate is None:
                            break
                        thread_insns += self._issue(candidate, cycle, l1, l2, dram)
                        warp_insns += 1
                        issued += 1
                        last_greedy = candidate
                    if issued == 0:
                        # Jump to the next cycle anything can happen.
                        cycle = min(w.next_event(cycle) for w in batch if not w.done)
                    else:
                        cycle += 1
                # Residency batches on the same SM run back to back.
                sm_cycles += cycle
            total_cycles = max(total_cycles, sm_cycles)

        return SimulationResult(
            kernel_name=trace.kernel_name,
            invocation_id=trace.invocation_id,
            cycles=max(total_cycles, 1),
            warp_instructions=warp_insns,
            thread_instructions=thread_insns,
            l1_hit_rate=(
                sum(c.stats.hits for c in l1s)
                / max(sum(c.stats.accesses for c in l1s), 1)
            ),
            l2_hit_rate=l2.stats.hit_rate,
            dram_requests=dram.requests,
        )
