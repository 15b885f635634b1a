"""MLPerf sampling study: Sieve vs PKS on the ML inference workloads.

The scenario the paper's introduction motivates: MLPerf workloads would
take "a century to simulate" in full, so architects must sample. This
example compares Sieve and PKS end to end on every MLPerf workload —
accuracy, dispersion, selection size, simulation speedup and modeled
profiling cost — and prints an Accel-sim time budget for the selected
invocations.

Run:  python examples/mlperf_sampling_study.py
"""

from repro.core.pipeline import SievePipeline
from repro.evaluation.context import build_context
from repro.evaluation.reporting import format_table, percent, times
from repro.evaluation.runner import evaluate_method
from repro.trace.simtime import estimate_simulation_time
from repro.workloads.catalog import specs_for_suites

rows = []
sim_rows = []
for spec in specs_for_suites(("mlperf",)):
    context = build_context(spec.label)
    sieve = evaluate_method("sieve", context)
    pks = evaluate_method("pks", context)
    rows.append(
        (
            spec.name,
            f"{context.run.num_invocations:,}",
            percent(sieve.error),
            percent(pks.error),
            sieve.num_representatives,
            pks.num_representatives,
            times(sieve.speedup),
            f"{context.pks_profiling.total_days:.1f}d",
            f"{context.sieve_profiling.total_days:.2f}d",
        )
    )
    selection = SievePipeline().select(context.sieve_table)
    estimate = estimate_simulation_time(selection, context.golden)
    sim_rows.append(
        (
            spec.name,
            estimate.num_traces,
            f"{estimate.serial_days:.2f}",
            f"{estimate.parallel_hours:.2f}",
        )
    )

print("MLPerf inference: Sieve vs PKS")
print(
    format_table(
        ["workload", "invocations", "sieve_err", "pks_err", "sieve_reps",
         "pks_reps", "speedup", "pks_profile", "sieve_profile"],
        rows,
    )
)
print()
print("Simulating the Sieve selections on Accel-sim (modeled at 6 KIPS):")
print(
    format_table(
        ["workload", "traces", "serial_days", "parallel_hours"], sim_rows
    )
)
print()
full_years = sum(
    build_context(spec.label).golden.total_instructions
    for spec in specs_for_suites(("mlperf",))
) / 6000.0 / 86_400 / 365
print(f"Simulating the full suite at 6 KIPS would take ~{full_years:,.0f} "
      "years; the Sieve selections fit in days of parallel simulation.")
