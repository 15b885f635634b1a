"""Tests for the synthetic workload generator."""

import numpy as np
import pytest

from repro.utils.stats import coefficient_of_variation
from repro.workloads.generator import MIN_VARIABLE_KERNEL_CTAS, generate
from repro.workloads.spec import Tier
from tests.conftest import make_spec


def test_exact_kernel_and_invocation_counts(toy_spec, toy_run):
    assert len(toy_run.kernels) == toy_spec.num_kernels
    assert toy_run.num_invocations == toy_spec.num_invocations


def test_generation_is_deterministic(toy_spec, toy_run):
    again = generate(toy_spec)
    for a, b in zip(toy_run.kernels, again.kernels):
        assert a.traits == b.traits
        assert np.array_equal(a.batch.insn_count, b.batch.insn_count)
        assert np.array_equal(a.batch.chrono_index, b.batch.chrono_index)


def test_runs_compare_by_value(toy_spec, toy_run):
    again = generate(toy_spec)
    assert again == toy_run and again is not toy_run
    # A kernel's batch is a view of the run's columns: one changed
    # element of the run is a changed kernel.
    again.batch.thread_shared_loads[again.num_invocations // 2] += 1
    assert again != toy_run
    assert sum(a != b for a, b in zip(again.kernels, toy_run.kernels)) == 1


def test_chronology_is_a_global_permutation(toy_run):
    chrono = np.concatenate([k.batch.chrono_index for k in toy_run.kernels])
    assert sorted(chrono.tolist()) == list(range(toy_run.num_invocations))


def test_within_kernel_chronology_is_increasing(toy_run):
    for kernel in toy_run.kernels:
        assert np.all(np.diff(kernel.batch.chrono_index) > 0)


def test_tier1_kernels_have_constant_instruction_counts(toy_run):
    tier1 = [k for k in toy_run.kernels if k.intended_tier is Tier.TIER1]
    assert tier1, "toy spec should produce Tier-1 kernels"
    for kernel in tier1:
        assert len(np.unique(kernel.batch.insn_count)) == 1


def test_tier1_kernels_use_a_single_cta_size(toy_run):
    for kernel in toy_run.kernels:
        if kernel.intended_tier is Tier.TIER1:
            assert len(np.unique(kernel.batch.cta_size)) == 1


def test_tier2_kernels_have_low_variability(toy_run):
    for kernel in toy_run.kernels:
        if kernel.intended_tier is Tier.TIER2 and len(kernel) > 10:
            cov = coefficient_of_variation(kernel.batch.insn_count)
            assert 0 < cov < 0.5


def test_tier3_kernels_have_high_variability(toy_run):
    tier3 = [
        k
        for k in toy_run.kernels
        if k.intended_tier is Tier.TIER3 and len(k) > 20
    ]
    assert tier3, "toy spec should produce populated Tier-3 kernels"
    for kernel in tier3:
        assert coefficient_of_variation(kernel.batch.insn_count) > 0.4


def test_size_correlation_orders_invocations():
    spec = make_spec(name="ramped", chrono_size_correlation=1.0,
                     tier_fractions=(0.0, 1.0, 0.0), drift_fraction=0.0)
    run = generate(spec)
    for kernel in run.kernels:
        if len(kernel) > 10:
            assert np.all(np.diff(kernel.batch.insn_count) >= 0)


def test_zero_correlation_leaves_order_unsorted():
    spec = make_spec(name="unramped", chrono_size_correlation=0.0,
                     tier_fractions=(0.0, 1.0, 0.0), drift_fraction=0.0)
    run = generate(spec)
    big = max(run.kernels, key=len)
    assert not np.all(np.diff(big.batch.insn_count) >= 0)


def test_drift_shrinks_only_tier3_prefixes():
    spec = make_spec(name="drifty", drift_fraction=0.3, drift_factor=0.1,
                     chrono_size_correlation=0.0)
    run = generate(spec)
    for kernel in run.kernels:
        if kernel.intended_tier is Tier.TIER3 and len(kernel) > 20:
            insn = kernel.batch.insn_count
            prefix = insn[: int(0.3 * len(insn))].mean()
            suffix = insn[int(0.3 * len(insn)):].mean()
            assert prefix < suffix * 0.5


def test_variable_kernels_respect_grid_floor(toy_run):
    for kernel in toy_run.kernels:
        if kernel.intended_tier is not Tier.TIER1:
            # Floor applies to the base size; drifted prefixes may dip.
            assert kernel.batch.num_ctas.max() >= MIN_VARIABLE_KERNEL_CTAS * 0.5


def test_max_invocations_cap(toy_spec):
    run = generate(toy_spec, max_invocations=300)
    assert run.num_invocations == 300
    assert len(run.kernels) == toy_spec.num_kernels


def test_kernel_by_name(toy_run):
    kernel = toy_run.kernels[0]
    assert toy_run.kernel_by_name(kernel.traits.name) is kernel
    with pytest.raises(KeyError):
        toy_run.kernel_by_name("no-such-kernel")


def test_dominant_kernel_share():
    spec = make_spec(name="dominant", dominant_kernel_share=0.5)
    run = generate(spec)
    assert len(run.kernels[0]) >= 0.45 * run.num_invocations
    assert run.kernels[0].intended_tier is Tier.TIER3


def test_turing_bias_applied_to_requested_fraction():
    spec = make_spec(name="biased", turing_biased_fraction=0.5,
                     turing_factor=0.7)
    run = generate(spec)
    biased = [
        k for k in run.kernels if k.traits.efficiency_on("turing") == 0.7
    ]
    assert len(biased) == round(0.5 * spec.num_kernels)


def test_metric_columns_scale_with_instruction_count(toy_run):
    for kernel in toy_run.kernels:
        if len(kernel) < 20 or kernel.intended_tier is not Tier.TIER3:
            continue
        batch = kernel.batch
        if batch.thread_global_loads.max() == 0:
            continue
        ratio = batch.thread_global_loads / batch.insn_count
        # Per-instruction rates are near-constant within a kernel.
        assert ratio.std() / ratio.mean() < 0.2
