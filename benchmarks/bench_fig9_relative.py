"""Figure 9: relative (Ampere vs Turing) performance prediction."""

import numpy as np

from repro.evaluation.experiments import figure9_relative
from repro.evaluation.reporting import FIGURE_TABLES, percent

from _common import SCALE_CAP, banner, emit


def test_fig9_relative_accuracy(benchmark):
    rows = benchmark.pedantic(
        figure9_relative, kwargs={"max_invocations": SCALE_CAP},
        rounds=1, iterations=1,
    )
    banner("Figure 9: Ampere-vs-Turing speedup — hardware vs Sieve vs PKS "
           "(Cactus minus rfl; MLPerf excluded, as in the paper)")
    emit(FIGURE_TABLES["fig9"].render(rows))
    sieve_avg = float(np.mean([r["sieve_error"] for r in rows]))
    pks_avg = float(np.mean([r["pks_error"] for r in rows]))
    emit(f"\nSieve avg relative error: {percent(sieve_avg)}   (paper: 1.5%)")
    emit(f"PKS   avg relative error: {percent(pks_avg)}   (paper: 9.8%)")

    by_name = {r["workload"].split("/")[1]: r for r in rows}
    slower_on_ampere = [n for n, r in by_name.items() if r["hardware"] < 1.0]
    emit(f"workloads slower on Ampere (paper: lmc, lmr): {sorted(slower_on_ampere)}")

    # Shape: Sieve tracks hardware ranking; PKS misleads on some workloads.
    assert sieve_avg < 0.05
    assert pks_avg > 2 * sieve_avg
    assert "lmc" in slower_on_ampere or "lmr" in slower_on_ampere
    # Sieve never flips the ranking direction.
    for r in rows:
        if abs(r["hardware"] - 1.0) > 0.05:
            assert (r["sieve"] > 1.0) == (r["hardware"] > 1.0)
