"""Oracle tests: whole-run generation equals the per-kernel original.

:func:`~repro.workloads.generator.generate` draws every kernel's
invocations from the kernel's own generator, in the original order, into
whole-run columns, and derives the columns once over all rows. Everything
downstream (tables, measurements, the fig3/4/6 goldens) follows from
these values, so generation must reproduce
:func:`~repro.core.reference.reference_generate`, the per-kernel
generator it replaced, bit for bit: every column of every kernel as int64
bit patterns with equal dtypes, and the traits, tiers and dominant CTA
sizes. Contexts built from it must equal the reference path by pickle
digest.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import (
    ReferenceHardwareExecutor,
    reference_generate,
    reference_nsight_profile,
    reference_nvbit_profile,
)
from repro.evaluation.context import build_context
from repro.gpu.arch import AMPERE_RTX3080
from repro.gpu.kernel import BATCH_COLUMNS
from repro.workloads import generator
from repro.workloads.adversarial import ADVERSARIAL_ENTRIES
from repro.workloads.catalog import all_specs, spec_for
from repro.workloads.generator import WorkloadRun, generate
from repro.workloads.spec import KernelBehavior, WorkloadSpec

CAP = 1200


def digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


def bits(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "f":
        return np.ascontiguousarray(values).view(np.int64)
    return values.astype(np.int64)


def assert_same_kernels(run, reference) -> None:
    assert len(run.kernels) == len(reference.kernels)
    for kernel, expected in zip(run.kernels, reference.kernels):
        assert kernel.traits == expected.traits
        assert kernel.intended_tier is expected.intended_tier
        assert kernel.dominant_cta_size == expected.dominant_cta_size
        assert type(kernel.dominant_cta_size) is type(expected.dominant_cta_size)
        for column in BATCH_COLUMNS:
            got, want = getattr(kernel.batch, column), getattr(expected.batch, column)
            assert got.dtype == want.dtype, column
            assert np.array_equal(bits(got), bits(want)), (kernel.traits.name, column)


def assert_matches_reference(spec: WorkloadSpec, cap: int | None) -> None:
    """Generation equals the reference, or fails as the reference fails."""
    try:
        reference = reference_generate(spec, max_invocations=cap)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            generate(spec, max_invocations=cap)
        return
    run = generate(spec, max_invocations=cap)
    assert_same_kernels(run, reference)
    assert (run.name, run.suite, run.spec) == (reference.name, reference.suite, reference.spec)
    assert WorkloadRun.from_kernels(run.name, run.suite, run.spec, reference.kernels) == run


@st.composite
def synthetic_specs(draw):
    kernels = draw(st.integers(min_value=1, max_value=64))
    tier1 = draw(st.floats(min_value=0.0, max_value=1.0))
    tier3 = draw(st.floats(min_value=0.0, max_value=1.0)) * (1.0 - tier1)
    floats = st.floats
    return WorkloadSpec(
        name=f"oracle{draw(st.integers(min_value=0, max_value=10**6))}",
        suite="synthetic",
        num_kernels=kernels,
        num_invocations=draw(st.integers(min_value=kernels, max_value=4000)),
        tier_fractions=(tier1, max(0.0, 1.0 - tier1 - tier3), tier3),
        behavior=KernelBehavior(
            tier2_cov=draw(floats(min_value=0.01, max_value=0.9)),
            tier3_modes=draw(st.integers(min_value=2, max_value=8)),
            tier3_spread=draw(floats(min_value=1.5, max_value=100.0)),
            tier3_mode_cov=draw(floats(min_value=0.0, max_value=0.45)),
            tier3_count_exponent=draw(floats(min_value=0.0, max_value=2.0)),
        ),
        insn_scale=10.0 ** draw(floats(min_value=1.0, max_value=10.0)),
        insn_kernel_sigma=draw(floats(min_value=0.0, max_value=2.0)),
        invocation_skew=draw(floats(min_value=0.0, max_value=2.0)),
        alias_groups=draw(st.integers(min_value=1, max_value=kernels)),
        metric_direction_sigma=draw(floats(min_value=0.0, max_value=1.0)),
        heterogeneity=draw(floats(min_value=0.0, max_value=1.0)),
        drift_fraction=draw(floats(min_value=0.0, max_value=0.9)),
        drift_factor=draw(floats(min_value=0.05, max_value=2.0)),
        chrono_size_correlation=draw(floats(min_value=0.0, max_value=1.0)),
        turing_biased_fraction=draw(floats(min_value=0.0, max_value=1.0)),
        turing_factor=draw(floats(min_value=0.5, max_value=1.5)),
        dominant_kernel_share=draw(st.sampled_from((0.0, 0.3, 0.6))),
        measurement_noise_cov=draw(st.sampled_from((0.0, 0.01, 0.05))),
    )


@settings(max_examples=80, deadline=None)
@given(spec=synthetic_specs(), block_rows=st.sampled_from((1, 7, 64, generator.BLOCK_ROWS)))
def test_synthetic_specs_match_the_reference(spec, block_rows):
    with mock.patch.object(generator, "BLOCK_ROWS", block_rows):
        assert_matches_reference(spec, None)


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.label)
def test_catalog_specs_match_the_reference(spec):
    assert_matches_reference(spec, None)
    if spec.num_kernels <= CAP:
        assert_matches_reference(spec, CAP)


@pytest.mark.parametrize("entry", ADVERSARIAL_ENTRIES, ids=lambda entry: entry.spec.label)
def test_adversarial_specs_match_the_reference(entry):
    assert_matches_reference(entry.spec, None)
    assert_matches_reference(entry.spec, entry.max_invocations)


@pytest.mark.parametrize(
    "label, cap, spec",
    [
        ("cactus/gru", 5003, None),
        ("mlperf/rnnt", 20_000, None),
        (
            "synthetic/oracle-256",
            None,
            WorkloadSpec(
                name="oracle-256",
                suite="synthetic",
                num_kernels=256,
                num_invocations=30_000,
                tier_fractions=(0.4, 0.4, 0.2),
                turing_biased_fraction=0.3,
                turing_factor=0.8,
            ),
        ),
    ],
)
def test_context_build_equals_the_reference_path(label, cap, spec):
    context = build_context(label, max_invocations=cap, spec=spec)
    reference = reference_generate(spec if spec is not None else spec_for(label), cap)
    assert digest(context.golden) == digest(
        ReferenceHardwareExecutor(AMPERE_RTX3080).measure(reference)
    )
    assert digest((context.sieve_table, context.sieve_profiling)) == digest(
        reference_nvbit_profile(reference, AMPERE_RTX3080)
    )
    assert digest((context.pks_table, context.pks_profiling)) == digest(
        reference_nsight_profile(reference, AMPERE_RTX3080)
    )


def test_hand_built_runs_equal_the_generated_run(toy_spec, toy_run):
    hand = WorkloadRun.from_kernels(toy_run.name, toy_run.suite, toy_run.spec, toy_run.kernels)
    assert hand == toy_run and hand.batch == toy_run.batch
    assert np.array_equal(hand.starts, toy_run.starts)
    for kernel in hand.kernels:
        assert np.shares_memory(kernel.batch.insn_count, hand.batch.insn_count)


def test_runs_reject_chronology_that_falls_within_a_kernel(toy_run):
    kernels = list(toy_run.kernels)
    big = max(range(len(kernels)), key=lambda k: len(kernels[k]))
    batch = kernels[big].batch.rows(slice(None, None, -1))
    kernels[big] = generator.GeneratedKernel(
        kernels[big].traits, batch, kernels[big].intended_tier, kernels[big].dominant_cta_size
    )
    with pytest.raises(ValueError, match="chronology must increase within each kernel"):
        WorkloadRun.from_kernels(toy_run.name, toy_run.suite, toy_run.spec, kernels)
