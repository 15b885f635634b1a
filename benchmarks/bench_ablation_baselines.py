"""Ablation: classical sampling baselines vs Sieve.

Random and periodic invocation sampling (the CPU-style baselines) at a
matched sample budget, versus Sieve's stratified selection.
"""

import numpy as np

from repro.baselines.periodic import PeriodicSampler
from repro.baselines.random_sampling import RandomSampler
from repro.evaluation.context import build_context
from repro.evaluation.metrics import prediction_error
from repro.evaluation.reporting import format_table, percent
from repro.evaluation.runner import evaluate_method

from _common import banner, emit

WORKLOADS = ("cactus/spt", "cactus/lmc", "mlperf/rnnt")


def _sweep():
    rows = []
    for label in WORKLOADS:
        context = build_context(label)
        sieve = evaluate_method("sieve", context)
        budget = sieve.num_representatives
        table = context.sieve_table

        random_sampler = RandomSampler(sample_size=budget)
        random_error = prediction_error(
            random_sampler.predict(
                random_sampler.select(table), context.golden
            ).predicted_cycles,
            context.golden.total_cycles,
        )
        periodic = PeriodicSampler(period=max(len(table) // budget, 1))
        periodic_error = prediction_error(
            periodic.predict(periodic.select(table), context.golden).predicted_cycles,
            context.golden.total_cycles,
        )
        rows.append(
            {
                "workload": label,
                "budget": budget,
                "sieve": sieve.error,
                "random": random_error,
                "periodic": periodic_error,
            }
        )
    return rows


def test_ablation_classical_baselines(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    banner("Ablation: random / periodic sampling vs Sieve at equal budget")
    emit(format_table(
        ["workload", "budget", "sieve", "random", "periodic"],
        [
            (r["workload"], r["budget"], percent(r["sieve"]),
             percent(r["random"]), percent(r["periodic"]))
            for r in rows
        ],
    ))
    sieve_avg = float(np.mean([r["sieve"] for r in rows]))
    random_avg = float(np.mean([r["random"] for r in rows]))
    emit(f"\navg: sieve {percent(sieve_avg)}, random {percent(random_avg)}")
    # Stratification beats unstratified sampling at the same budget on
    # ramped heavy-tailed workloads.
    assert sieve_avg < random_avg
