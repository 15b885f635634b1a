"""Figure 8: prediction error on the traditional suites (Parboil, Rodinia,
CUDA SDK) — both methods are accurate, except PKS on cfd."""

from repro.evaluation.experiments import figure3_accuracy, figure8_simple_suites
from repro.evaluation.reporting import format_table, percent

from _common import (
    SCALE_CAP,
    banner,
    emit,
    engine_summary,
    manifest_mark,
    shared_engine,
    write_bench_manifest,
)


def test_fig8_simple_suites(benchmark):
    mark = manifest_mark()
    rows = benchmark.pedantic(
        figure8_simple_suites,
        kwargs={"max_invocations": SCALE_CAP, "engine": shared_engine()},
        rounds=1, iterations=1,
    )
    banner("Figure 8: prediction error on Parboil / Rodinia / CUDA SDK")
    emit(engine_summary())
    emit(format_table(
        ["workload", "sieve_error", "pks_error"],
        [(r.workload, percent(r["sieve"].error), percent(r["pks"].error)) for r in rows],
    ))
    aggregate = figure3_accuracy(rows)
    emit(
        f"\nSieve: avg {percent(aggregate['sieve_avg'])}, "
        f"max {percent(aggregate['sieve_max'])}   (paper: 0.32% avg, 2.3% max)"
    )
    emit(
        f"PKS:   avg {percent(aggregate['pks_avg'])}, "
        f"max {percent(aggregate['pks_max'])}   (paper: 1.3% avg, 23% max on cfd)"
    )
    cfd = [r for r in rows if r.workload == "rodinia/cfd"][0]
    worst_pks = max(rows, key=lambda r: r["pks"].error)
    emit(f"worst PKS workload: {worst_pks.workload} "
         f"({percent(worst_pks['pks'].error)}); cfd: {percent(cfd['pks'].error)}")
    write_bench_manifest("fig8", rows, aggregate, mark)
    # Shape: both methods accurate on the simple suites; cfd is PKS's worst.
    assert aggregate["sieve_avg"] < 0.02
    assert aggregate["pks_avg"] < 0.10
    assert cfd["pks"].error == aggregate["pks_max"]
