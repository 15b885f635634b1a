"""Serial versus parallel simulation wall-time accounting (Section V-G).

"As each kernel invocation is a plain text file, it is possible to
simulate a workload by dispatching each trace file to a separate core
(i.e., parallel simulation), or simulate them one by one on a single core
(i.e., serial simulation)." The paper quotes Accel-sim's ~6 KIPS
simulation rate; this module turns a selection's instruction footprint
into estimated wall times under both dispatch models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import SampleSelection
from repro.gpu.hardware import WorkloadMeasurement
from repro.utils.errors import PredictionError
from repro.utils.validation import require

#: The paper's quoted simulation speed for Accel-sim (thread-level
#: instructions simulated per second).
DEFAULT_SIMULATION_RATE_IPS = 6_000.0


@dataclass(frozen=True)
class SimulationTimeEstimate:
    """Estimated wall time to simulate a selection's representatives."""

    workload: str
    method: str
    num_traces: int
    total_instructions: int
    longest_trace_instructions: int
    serial_seconds: float
    parallel_seconds: float

    @property
    def serial_days(self) -> float:
        return self.serial_seconds / 86_400.0

    @property
    def parallel_hours(self) -> float:
        return self.parallel_seconds / 3_600.0


def estimate_simulation_time(
    selection: SampleSelection,
    measurement: WorkloadMeasurement,
    simulation_rate_ips: float = DEFAULT_SIMULATION_RATE_IPS,
) -> SimulationTimeEstimate:
    """Estimate serial/parallel simulation time for a selection.

    Serial time is the sum over representative invocations of their
    instruction counts at the simulation rate; parallel time (one trace per
    core, unlimited cores) is determined by the longest-running trace.
    """
    require(simulation_rate_ips > 0, "simulation rate must be positive")
    _, insn, found = measurement.lookup(*selection.locate(measurement))
    require(
        bool(found.all()),
        f"workload {selection.workload!r}: a representative has no golden "
        "measurement to size its trace",
        PredictionError,
    )
    total = int(insn.sum())
    longest = int(insn.max())
    return SimulationTimeEstimate(
        workload=selection.workload,
        method=selection.method,
        num_traces=len(insn),
        total_instructions=total,
        longest_trace_instructions=longest,
        serial_seconds=total / simulation_rate_ips,
        parallel_seconds=longest / simulation_rate_ips,
    )
