"""Tests for workload specifications."""

import pytest

from repro.workloads.spec import MIN_TIER2_COV, KernelBehavior, Tier
from tests.conftest import make_spec


class TestKernelBehavior:
    def test_defaults_are_valid(self):
        KernelBehavior()

    def test_rejects_bad_tier2_cov(self):
        with pytest.raises(ValueError):
            KernelBehavior(tier2_cov=1.5)

    def test_rejects_tier2_cov_below_the_draw_floor(self):
        # Below the floor, generation would draw uniform(floor, tier2_cov)
        # with high < low; the spec refuses it and names the floor.
        with pytest.raises(ValueError, match=str(MIN_TIER2_COV)):
            KernelBehavior(tier2_cov=0.015)
        KernelBehavior(tier2_cov=MIN_TIER2_COV)

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            KernelBehavior(tier3_modes=1)

    def test_rejects_spread_below_one(self):
        with pytest.raises(ValueError):
            KernelBehavior(tier3_spread=0.9)


class TestWorkloadSpec:
    def test_label(self):
        assert make_spec().label == "testsuite/toy"

    def test_tier_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_spec(tier_fractions=(0.5, 0.5, 0.5))

    def test_needs_one_invocation_per_kernel(self):
        with pytest.raises(ValueError):
            make_spec(num_kernels=10, num_invocations=5)

    def test_alias_groups_bounded_by_kernels(self):
        with pytest.raises(ValueError):
            make_spec(num_kernels=2, alias_groups=5)

    def test_correlation_bounds(self):
        with pytest.raises(ValueError):
            make_spec(chrono_size_correlation=1.5)

    def test_scaled_caps_invocations(self):
        spec = make_spec(num_invocations=10_000)
        capped = spec.scaled(500)
        assert capped.num_invocations == 500
        assert capped.num_kernels == spec.num_kernels
        assert capped.behavior == spec.behavior

    def test_scaled_is_identity_when_under_cap(self):
        spec = make_spec(num_invocations=100)
        assert spec.scaled(1000) is spec

    def test_scaled_rejects_cap_below_kernel_count(self):
        with pytest.raises(ValueError):
            make_spec(num_kernels=8).scaled(4)


def test_tier_enum_values_match_paper_names():
    assert Tier.TIER1.value == 1
    assert Tier.TIER2.value == 2
    assert Tier.TIER3.value == 3
