"""Figure 10: Sieve error vs speedup as a function of theta."""

from repro.evaluation.experiments import figure10_theta_sweep
from repro.evaluation.reporting import FIGURE_TABLES, percent

from _common import SCALE_CAP, banner, emit

THETAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)


def test_fig10_theta_sensitivity(benchmark):
    rows = benchmark.pedantic(
        figure10_theta_sweep, kwargs={"thetas": THETAS,
                                      "max_invocations": SCALE_CAP},
        rounds=1, iterations=1,
    )
    banner("Figure 10: Sieve prediction error vs speedup per theta")
    emit(FIGURE_TABLES["fig10"].render(rows))
    below_half = [r["avg_error"] for r in rows if r["theta"] < 0.5]
    at_one = [r for r in rows if r["theta"] == 1.0][0]
    emit(
        f"\nerror below θ=0.5: ≤ {percent(max(below_half))} "
        "(paper: below 1.6%); "
        f"error at θ=1.0: {percent(at_one['avg_error'])} (paper: 4.8%)"
    )
    # Shape: small theta keeps error low and error grows toward theta = 1,
    # while speedup varies far less than the representative count does.
    assert max(below_half) < 0.03
    assert at_one["avg_error"] >= max(below_half)
    speedups = [r["hmean_speedup"] for r in rows]
    assert max(speedups) / min(speedups) < 25
