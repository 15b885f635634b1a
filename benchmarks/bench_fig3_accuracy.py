"""Figure 3: prediction error for Sieve and PKS on Cactus + MLPerf.

Runs through the declarative :class:`ExperimentSpec` path: the bench
builds the fig3 comparison spec, executes it with ``run_experiment``
through the shared engine, and first sanity-checks that engine cache
keys separate by method *and* by method config (a theta=0.2 Sieve task
must never collide with a theta=0.4 one, nor with a PKS task).
"""

from repro.core.config import SieveConfig
from repro.evaluation.engine import EvaluationTask
from repro.evaluation.experiments import (
    comparison_spec,
    figure3_accuracy,
    run_experiment,
)
from repro.evaluation.reporting import format_table, percent
from repro.methods import MethodRequest
from repro.workloads.catalog import CHALLENGING_SUITES, specs_for_suites

from _common import (
    SCALE_CAP,
    banner,
    emit,
    engine_summary,
    manifest_mark,
    shared_engine,
    write_bench_manifest,
)


def _fig3_spec():
    labels = tuple(spec.label for spec in specs_for_suites(CHALLENGING_SUITES))
    return comparison_spec("fig3", labels, max_invocations=SCALE_CAP)


def _run_fig3():
    return run_experiment(_fig3_spec(), shared_engine())


def _assert_cache_keys_separate():
    """Different method or different config must mean a different key."""
    keys = {
        EvaluationTask(
            label="cactus/gru",
            max_invocations=SCALE_CAP,
            methods=(MethodRequest("sieve", SieveConfig(theta=theta)),),
        ).cache_key()
        for theta in (0.2, 0.4)
    }
    keys.add(
        EvaluationTask(
            label="cactus/gru", max_invocations=SCALE_CAP, methods=("pks",)
        ).cache_key()
    )
    assert len(keys) == 3, "cache keys must differ per method + config"


def test_fig3_prediction_error(benchmark):
    _assert_cache_keys_separate()
    mark = manifest_mark()
    rows = benchmark.pedantic(_run_fig3, rounds=1, iterations=1)
    banner("Figure 3: prediction error, Sieve vs PKS (Cactus + MLPerf)")
    emit(engine_summary())
    emit(format_table(
        ["workload", "sieve_error", "pks_error", "sieve_reps", "pks_k"],
        [
            (r.workload, percent(r["sieve"].error), percent(r["pks"].error),
             r["sieve"].num_representatives,
             getattr(r["pks"].selection, "chosen_k", 0))
            for r in rows
        ],
    ))
    aggregate = figure3_accuracy(rows)
    emit(
        f"\nSieve: avg {percent(aggregate['sieve_avg'])}, "
        f"max {percent(aggregate['sieve_max'])}   (paper: 1.2% avg, 3.2% max)"
    )
    emit(
        f"PKS:   avg {percent(aggregate['pks_avg'])}, "
        f"max {percent(aggregate['pks_max'])}   (paper: 16.5% avg, 60.4% max)"
    )
    write_bench_manifest("fig3", rows, aggregate, mark)
    # Shape: Sieve is substantially more accurate than PKS.
    assert aggregate["sieve_avg"] < 0.05
    assert aggregate["pks_avg"] > 3 * aggregate["sieve_avg"]
    assert aggregate["pks_max"] > 0.10
