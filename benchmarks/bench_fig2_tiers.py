"""Figure 2: tier fractions as a function of theta (0.1, 0.5, 1.0)."""

import numpy as np

from repro.evaluation.experiments import figure2_tiers
from repro.evaluation.reporting import FIGURE_TABLES

from _common import SCALE_CAP, banner, emit

THETAS = (0.1, 0.5, 1.0)


def test_fig2_tier_fractions(benchmark):
    rows = benchmark.pedantic(
        figure2_tiers, args=(THETAS, SCALE_CAP), rounds=1, iterations=1
    )
    banner("Figure 2: invocation fractions in Tier-1/2/3 per theta")
    emit(FIGURE_TABLES["fig2"].render(rows))

    tier1 = float(np.mean([r[f"tier1@{THETAS[0]}"] for r in rows]))
    tier2 = {t: float(np.mean([r[f"tier2@{t}"] for r in rows])) for t in THETAS}
    emit(f"\navg Tier-1 fraction: {tier1*100:.0f}%   (paper: 41%)")
    emit(
        "avg Tier-2 fraction: "
        + ", ".join(f"{tier2[t]*100:.0f}% @ θ={t}" for t in THETAS)
        + "   (paper: 22% @ 0.1, 42% @ 0.5, 49% @ 1.0)"
    )
    # Shape assertions: most invocations are Tier-1/2, Tier-2 grows with θ.
    assert tier1 > 0.25
    assert tier2[1.0] > tier2[0.1]
