"""Figure 4: within-cluster cycle-count CoV for Sieve and PKS."""

from repro.evaluation.experiments import compare_methods, figure4_dispersion
from repro.evaluation.reporting import format_table

from _common import (
    SCALE_CAP,
    banner,
    emit,
    engine_summary,
    manifest_mark,
    shared_engine,
    write_bench_manifest,
)


def test_fig4_cycle_dispersion(benchmark):
    mark = manifest_mark()
    rows = benchmark.pedantic(
        compare_methods,
        kwargs={"max_invocations": SCALE_CAP, "engine": shared_engine()},
        rounds=1, iterations=1,
    )
    banner("Figure 4: within-cluster cycle CoV (weighted average)")
    emit(engine_summary())
    emit(format_table(
        ["workload", "sieve_cov", "pks_cov"],
        [(r.workload, f"{r['sieve'].cycle_cov:.2f}", f"{r['pks'].cycle_cov:.2f}")
         for r in rows],
    ))
    aggregate = figure4_dispersion(rows)
    emit(
        f"\nSieve: avg {aggregate['sieve_avg']:.2f}, max {aggregate['sieve_max']:.2f}"
        "   (paper: 0.09 avg, 0.20 max)"
    )
    emit(
        f"PKS:   avg {aggregate['pks_avg']:.2f}, max {aggregate['pks_max']:.2f}"
        "   (paper: 0.57 avg, 3.25 max)"
    )
    write_bench_manifest("fig4", rows, aggregate, mark)
    # Shape: Sieve strata are far tighter than PKS clusters.
    assert aggregate["sieve_avg"] < 0.3
    assert aggregate["pks_avg"] > 2 * aggregate["sieve_avg"]
