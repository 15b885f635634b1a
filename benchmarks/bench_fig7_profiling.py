"""Figure 7: profiling-time speedup of Sieve (NVBit) over PKS (Nsight)."""

from repro.evaluation.experiments import figure7_profiling
from repro.evaluation.metrics import harmonic_mean
from repro.evaluation.reporting import FIGURE_TABLES

from _common import SCALE_CAP, banner, emit


def test_fig7_profiling_time(benchmark):
    rows = benchmark.pedantic(
        figure7_profiling, kwargs={"max_invocations": SCALE_CAP},
        rounds=1, iterations=1,
    )
    banner("Figure 7: profiling time, PKS (Nsight Compute) vs Sieve (NVBit)")
    emit(FIGURE_TABLES["fig7"].render(rows))
    speedups = [r["speedup"] for r in rows]
    cactus = [r["speedup"] for r in rows if r["workload"].startswith("cactus")]
    mlperf = [r["speedup"] for r in rows if r["workload"].startswith("mlperf")]
    emit(
        f"\nharmonic mean {harmonic_mean(speedups):.1f}x, "
        f"max {max(speedups):.1f}x   (paper: 8x mean, up to 98x)"
    )
    emit(
        f"Cactus hmean {harmonic_mean(cactus):.1f}x vs MLPerf hmean "
        f"{harmonic_mean(mlperf):.1f}x — MLPerf gains more, as in the paper"
    )
    assert harmonic_mean(speedups) > 2
    assert harmonic_mean(mlperf) > harmonic_mean(cactus)
