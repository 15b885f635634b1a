"""Figure 5: PKS representative-selection policies vs Sieve."""

import numpy as np

from repro.evaluation.experiments import figure5_selection_policies
from repro.evaluation.reporting import FIGURE_TABLES, percent

from _common import SCALE_CAP, banner, emit


def test_fig5_selection_policies(benchmark):
    rows = benchmark.pedantic(
        figure5_selection_policies, kwargs={"max_invocations": SCALE_CAP},
        rounds=1, iterations=1,
    )
    banner("Figure 5: PKS selection policies (first/random/centroid) vs Sieve")
    emit(FIGURE_TABLES["fig5"].render(rows))
    averages = {
        key: float(np.mean([r[key] for r in rows]))
        for key in ("pks_first", "pks_random", "pks_centroid", "sieve")
    }
    emit(
        f"\naverages: first {percent(averages['pks_first'])}, "
        f"random {percent(averages['pks_random'])}, "
        f"centroid {percent(averages['pks_centroid'])}, "
        f"sieve {percent(averages['sieve'])}"
    )
    emit("paper:    first 16.5%, random 6.8%, centroid 3.9%, sieve 1.2%")
    # Shape: better selection helps PKS but does not close the gap to Sieve.
    assert averages["pks_centroid"] < averages["pks_first"]
    assert averages["sieve"] < averages["pks_centroid"]
