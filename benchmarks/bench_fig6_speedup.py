"""Figure 6: simulation speedup for Sieve and PKS (log scale, gst excluded
from the mean)."""

from repro.evaluation.experiments import compare_methods, figure6_speedup
from repro.evaluation.reporting import format_table, times

from _common import (
    SCALE_CAP,
    banner,
    emit,
    engine_summary,
    manifest_mark,
    shared_engine,
    write_bench_manifest,
)


def test_fig6_simulation_speedup(benchmark):
    mark = manifest_mark()
    rows = benchmark.pedantic(
        compare_methods,
        kwargs={"max_invocations": SCALE_CAP, "engine": shared_engine()},
        rounds=1, iterations=1,
    )
    banner("Figure 6: simulation speedup (workload cycles / sample cycles)")
    emit(engine_summary())
    emit(format_table(
        ["workload", "sieve_speedup", "pks_speedup", "sieve_reps", "pks_reps"],
        [
            (r.workload, times(r["sieve"].speedup), times(r["pks"].speedup),
             r["sieve"].num_representatives, r["pks"].num_representatives)
            for r in rows
        ],
    ))
    aggregate = figure6_speedup(rows)
    emit(
        f"\nharmonic means (gst excluded): Sieve {times(aggregate['sieve_hmean'])}, "
        f"PKS {times(aggregate['pks_hmean'])}   (paper: 922x / 1,272x)"
    )
    gst = [r for r in rows if r.workload.endswith("/gst")][0]
    emit(
        f"gst (the paper's outlier): Sieve {times(gst['sieve'].speedup)}, "
        f"PKS {times(gst['pks'].speedup)} — dominant highly variable kernel"
    )
    write_bench_manifest("fig6", rows, aggregate, mark)
    # Shape: both methods land in the 100x-10,000x regime, within ~5x of
    # each other; gst collapses to ~1x. The magnitudes scale with the
    # invocation count, so the absolute bands only apply at full Table I
    # scale; capped runs (SIEVE_BENCH_CAP) keep the scale-free checks.
    if SCALE_CAP is None:
        assert 100 < aggregate["sieve_hmean"] < 20_000
        assert 0.2 < aggregate["sieve_hmean"] / aggregate["pks_hmean"] < 5
    assert aggregate["sieve_hmean"] > 1
    assert gst["sieve"].speedup == min(r["sieve"].speedup for r in rows)
    assert gst["sieve"].speedup < 20
