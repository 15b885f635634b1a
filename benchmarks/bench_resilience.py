"""Resilience study: prediction-error degradation versus fault rate.

The robustness analogue of Figure 3: instead of asking how accurate Sieve
and PKS are on clean profiles, ask how their prediction error degrades as
the profile tables and the golden reference are corrupted at increasing
rates (dropped/duplicated invocations, NaN and negated counters, zeroed
and noised cycle counts, clock drift).

Invariants enforced here, not just reported:

* at fault rate 0 both pipelines reproduce their clean-run errors
  *exactly* (fault injection is a strict identity at rate 0);
* at every rate up to 0.2 neither pipeline crashes — every degraded path
  returns a finite prediction and reports what it did through the
  diagnostics channel.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.experiments import compare_methods
from repro.robustness import diagnostics
from repro.robustness.faults import FaultPlan, FaultSpec

from _common import banner, emit

#: Two challenging workloads keep the rate sweep tractable.
LABELS = ["cactus/lmc", "cactus/gru"]
CAP = 12_000
RATES = (0.0, 0.05, 0.1, 0.2)
MODES = (
    "drop", "duplicate", "nan", "negative",
    "zero_cycles", "cycle_noise", "clock_drift",
)


def fault_plan(rate: float, seed: int = 0) -> FaultPlan:
    """All fault modes composed at one rate."""
    return FaultPlan(
        specs=tuple(FaultSpec(mode=mode, rate=rate) for mode in MODES),
        seed=seed,
    )


def resilience_sweep() -> list[dict]:
    baseline = compare_methods(LABELS, max_invocations=CAP)
    rows = []
    for rate in RATES:
        with diagnostics.capture_diagnostics() as caught:
            results = compare_methods(
                LABELS, max_invocations=CAP, fault_plan=fault_plan(rate)
            )
        for clean, faulted in zip(baseline, results):
            assert np.isfinite(faulted["sieve"].predicted_cycles)
            assert np.isfinite(faulted["pks"].predicted_cycles)
            assert np.isfinite(faulted["sieve"].error)
            assert np.isfinite(faulted["pks"].error)
            if rate == 0.0:
                # Rate-0 injection is an identity: errors match exactly.
                assert faulted["sieve"].error == clean["sieve"].error
                assert faulted["pks"].error == clean["pks"].error
        rows.append(
            {
                "rate": rate,
                "sieve_avg_error": float(np.mean([r["sieve"].error for r in results])),
                "pks_avg_error": float(np.mean([r["pks"].error for r in results])),
                "sieve_reps": int(np.mean(
                    [r["sieve"].num_representatives for r in results]
                )),
                "diagnostics": len(caught),
            }
        )
    return rows


def test_resilience_degradation(benchmark):
    rows = benchmark.pedantic(resilience_sweep, rounds=1, iterations=1)
    banner(
        "Resilience: Sieve vs PKS prediction error vs fault rate "
        f"(modes: {', '.join(MODES)}; workloads: {', '.join(LABELS)})"
    )
    emit(f"{'rate':>6} {'sieve_err':>10} {'pks_err':>10} "
         f"{'sieve_reps':>10} {'diags':>6}")
    for row in rows:
        emit(
            f"{row['rate']:>6.2f} {row['sieve_avg_error']:>9.2%} "
            f"{row['pks_avg_error']:>9.2%} {row['sieve_reps']:>10d} "
            f"{row['diagnostics']:>6d}"
        )
    # Shape: even at 20% composite corruption the degraded paths keep the
    # predictions in a sane range rather than exploding or zeroing out.
    assert all(r["sieve_avg_error"] < 1.0 for r in rows)
    # Heavier corruption must surface in the diagnostics channel.
    assert rows[-1]["diagnostics"] >= 1
