"""Distribution summaries, the exact rank test and the degradation gate.

The acceptance-bar property lives here: an injected 2x slowdown over 3
runs must flag, three re-runs of the same distribution must not, and the
false-positive rate over repeated same-distribution draws stays bounded.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.perfstore.stats import (
    DistributionSummary,
    bootstrap_ci,
    degradation_test,
    mann_whitney_p,
    summarize,
)
#: The self-test's jitter shapes: +-3% scheduler noise around a median.
BASE_JITTER = (0.97, 1.00, 1.03)
RERUN_JITTER = (0.98, 1.01, 1.02)

finite_values = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=10,
)


def test_exact_test_floor_is_one_twentieth_at_3v3():
    # Three cleanly separated runs per side: the smallest one-sided p the
    # exact test can produce is 1 / C(6, 3) = 0.05 — exactly alpha.
    p = mann_whitney_p([2.0, 2.1, 2.2], [1.0, 1.1, 1.2])
    assert p == pytest.approx(1.0 / 20.0)


def test_two_runs_per_side_cannot_reach_significance():
    # 1 / C(4, 2) ~ 0.167 > 0.05: two clean runs are not enough evidence.
    p = mann_whitney_p([2.0, 2.1], [1.0, 1.1])
    assert p > 0.05


def test_all_tied_samples_give_p_one():
    assert mann_whitney_p([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)


def test_normal_approximation_kicks_in_for_large_pools():
    base = [1.0 + 0.01 * i for i in range(12)]
    cur = [2.0 + 0.01 * i for i in range(12)]
    p = mann_whitney_p(cur, base)  # pool of 24 > EXACT_POOL_LIMIT
    assert p < 1e-3
    assert mann_whitney_p(base, cur) > 0.99


def test_summary_round_trips_and_brackets_the_sample():
    summary = summarize([1.0, 1.2, 0.9, 1.1])
    assert summary.n == 4
    assert summary.min <= summary.ci_low <= summary.ci_high <= summary.max
    assert DistributionSummary.from_dict(summary.to_dict()) == summary


def test_single_value_summary_is_degenerate():
    summary = summarize([2.5])
    assert summary.mad == 0.0
    assert summary.ci_low == summary.ci_high == 2.5


def test_bootstrap_is_deterministic_for_identical_data():
    values = [1.0, 1.05, 0.98, 1.02, 1.01]
    assert bootstrap_ci(values) == bootstrap_ci(list(values))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=finite_values, seed=st.integers(0, 2**16))
def test_summarize_is_order_invariant(values, seed):
    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    assert summarize(shuffled) == summarize(values)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=finite_values)
def test_identical_samples_never_regress(values):
    verdict = degradation_test(values, list(values))
    assert verdict.verdict == "indistinguishable"


def test_injected_2x_slowdown_over_3_runs_is_flagged():
    base = [f * 1.0 for f in BASE_JITTER]
    slowed = [f * 2.0 for f in RERUN_JITTER]
    verdict = degradation_test(base, slowed)
    assert verdict.regressed
    assert verdict.mode == "rank"
    assert verdict.p_slower == pytest.approx(0.05)
    assert "p=" in verdict.detail


def test_same_distribution_reruns_are_not_flagged():
    base = [f * 1.0 for f in BASE_JITTER]
    rerun = [f * 1.0 for f in RERUN_JITTER]
    verdict = degradation_test(base, rerun)
    assert verdict.verdict == "indistinguishable"
    assert verdict.mode == "rank"


def test_significant_but_tiny_shift_is_practically_insignificant():
    # p = 0.05 (clean separation) but the median only moved 3% — below
    # the 10% practical floor, so the gate must not fire.
    base = [1.000, 1.001, 1.002]
    cur = [1.030, 1.031, 1.032]
    verdict = degradation_test(base, cur)
    assert verdict.verdict == "indistinguishable"
    assert "practical floor" in verdict.detail


def test_improvement_is_the_mirror_image():
    base = [f * 2.0 for f in BASE_JITTER]
    fast = [f * 1.0 for f in RERUN_JITTER]
    verdict = degradation_test(base, fast)
    assert verdict.verdict == "improved"


def test_single_sample_fallback_uses_ratio_heuristic():
    regressed = degradation_test([1.0], [1.3])
    assert regressed.regressed
    assert regressed.mode == "single-sample"
    assert regressed.p_slower is None
    assert degradation_test([1.0], [1.2]).verdict == "indistinguishable"
    assert degradation_test([1.3], [1.0]).verdict == "improved"
    # 2x slower but under the absolute floor: scheduler noise, not a regression.
    assert degradation_test([0.010], [0.020]).verdict == "indistinguishable"


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        mann_whitney_p([], [1.0])


def test_false_positive_rate_is_bounded():
    """Repeated same-distribution 3v3 draws almost never fire the gate.

    The practical floor (10% median movement) stacks on top of alpha, so
    with 5% multiplicative noise the observed FP rate sits well under
    the 5% that significance alone would allow.
    """
    rng = np.random.default_rng(20230805)
    trials, false_positives = 200, 0
    for _ in range(trials):
        base = 1.0 + rng.uniform(-0.05, 0.05, size=3)
        cur = 1.0 + rng.uniform(-0.05, 0.05, size=3)
        if degradation_test(base, cur).regressed:
            false_positives += 1
    assert false_positives / trials <= 0.05


def test_power_is_total_at_2x_separation():
    rng = np.random.default_rng(20230806)
    for _ in range(50):
        base = 1.0 + rng.uniform(-0.05, 0.05, size=3)
        cur = 2.0 * (1.0 + rng.uniform(-0.05, 0.05, size=3))
        assert degradation_test(base, cur).regressed
