"""Property tests: every vectorized hot path equals its scalar reference.

The vectorization pass rewrote the per-kernel / per-row Python loops in
stratification, KDE splitting, golden-cycle alignment, the harmonic-mean
predictor and PKS cluster bookkeeping as grouped numpy array ops. The
originals survive in :mod:`repro.core.reference`; these tests pin the
two implementations equal across workload shapes, thetas, caps and
selection policies, so any future "optimization" that changes results
fails here rather than drifting a golden.

Integer reductions must match exactly (rows, totals, picks); float
reductions may reassociate, so CoV and predictions compare with a
tolerance far tighter than the goldens' 1e-6 contract.
"""

import dataclasses
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pks import PksConfig, PksPipeline
from repro.baselines.random_sampling import RandomSampler
from repro.core.config import SELECTION_POLICIES, SieveConfig
from repro.core.kde import _split_by_boundaries
from repro.core.pipeline import SievePipeline
from repro.core.reference import (
    cycles_in_table_order_scalar,
    kernel_mean_cycles,
    measured_cycles_or_none,
    pks_representative_rows_scalar,
    select_representative_row_scalar,
    sieve_predict_scalar,
    split_by_boundaries_scalar,
    stratify_table_scalar,
)
from repro.core.selection import select_representative_rows
from repro.core.stratify import stratify_table
from repro.evaluation.imputation import cycles_in_table_order, representative_cycles
from repro.gpu import AMPERE_RTX3080, HardwareExecutor
from repro.profiling.nvbit import NVBitProfiler
from repro.robustness.faults import inject_measurement_faults, parse_fault_plan
from repro.workloads.generator import generate
from tests.conftest import make_spec

thetas = st.sampled_from((0.2, 0.4, 0.8))
caps = st.sampled_from((None, 150, 400))


def _fixture(kernels, invocations, tier1, tier3, seed, cap=None):
    """A generated table + golden measurement for one example."""
    remaining = 1.0 - tier1
    t3 = tier3 * remaining
    spec = make_spec(
        name=f"vecprop{seed}",
        num_kernels=kernels,
        num_invocations=max(invocations, kernels),
        tier_fractions=(tier1, remaining - t3, t3),
        alias_groups=min(3, kernels),
    )
    run = generate(spec, max_invocations=cap)
    golden = HardwareExecutor(AMPERE_RTX3080).measure(run)
    table, _ = NVBitProfiler(AMPERE_RTX3080).profile(run)
    return table, golden


@settings(max_examples=10, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    theta=thetas,
    cap=caps,
    seed=st.integers(min_value=0, max_value=4),
)
def test_stratify_matches_scalar(
    kernels, invocations, tier1, tier3, theta, cap, seed
):
    table, _ = _fixture(kernels, invocations, tier1, tier3, seed, cap)
    config = SieveConfig(theta=theta)
    vec = stratify_table(table, config)
    ref = stratify_table_scalar(table, config)
    assert len(vec) == len(ref)
    for a, b in zip(vec, ref):
        assert (a.kernel_id, a.kernel_name, a.tier, a.index) == (
            b.kernel_id, b.kernel_name, b.tier, b.index
        )
        assert np.array_equal(np.asarray(a.rows), np.asarray(b.rows))
        assert a.insn_total == b.insn_total
        assert np.isclose(a.insn_cov, b.insn_cov, rtol=1e-9, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    num_boundaries=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_split_by_boundaries_matches_scalar(n, num_boundaries, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    boundaries = np.sort(rng.normal(size=num_boundaries))
    vec = _split_by_boundaries(values, boundaries)
    ref = split_by_boundaries_scalar(values, boundaries)
    assert len(vec) == len(ref)
    for a, b in zip(vec, ref):
        assert np.array_equal(a, b)


@settings(max_examples=10, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    dirty=st.booleans(),
    seed=st.integers(min_value=0, max_value=4),
)
def test_cycles_alignment_matches_scalar(
    kernels, invocations, tier1, tier3, dirty, seed
):
    table, golden = _fixture(kernels, invocations, tier1, tier3, seed)
    if dirty:
        # Knock some invocation ids out of range (both signs) so the
        # kernel-mean / workload-mean imputation ladder is exercised too.
        rng = np.random.default_rng(seed)
        ids = table.invocation_id.copy()
        hit = rng.random(len(ids)) < 0.15
        ids[hit] = rng.choice((-1, -7, 10**6), size=int(hit.sum()))
        table = dataclasses.replace(table, invocation_id=ids)
    vec = cycles_in_table_order(table, golden)
    ref = cycles_in_table_order_scalar(table, golden)
    assert np.array_equal(vec, ref)


@settings(max_examples=10, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    rate=st.sampled_from((0.02, 0.2, 1.0)),
    seed=st.integers(min_value=0, max_value=4),
)
def test_cycles_alignment_matches_scalar_on_faulted_golden(
    kernels, invocations, tier1, tier3, rate, seed
):
    """Zeroed golden counters take the imputation ladder kernel by kernel;
    at rate 1.0 no kernel has a clean invocation left to average."""
    table, golden = _fixture(kernels, invocations, tier1, tier3, seed)
    golden, _ = inject_measurement_faults(
        golden, parse_fault_plan(f"zero_cycles:{rate}", seed=seed)
    )
    vec = cycles_in_table_order(table, golden)
    ref = cycles_in_table_order_scalar(table, golden)
    assert np.array_equal(vec, ref)


@settings(max_examples=15, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    theta=thetas,
    policy=st.sampled_from(SELECTION_POLICIES),
    seed=st.integers(min_value=0, max_value=4),
)
def test_representative_rows_match_scalar(
    kernels, invocations, tier1, tier3, theta, policy, seed
):
    table, _ = _fixture(kernels, invocations, tier1, tier3, seed)
    strata = stratify_table(table, SieveConfig(theta=theta))
    rows = select_representative_rows(table, strata, policy).tolist()
    expected = [
        select_representative_row_scalar(table, stratum, policy)
        for stratum in strata
    ]
    assert rows == expected


def outcome(fn, *args):
    """``("ok", result)`` or ``("error", (type, message))`` of ``fn(*args)``."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", (type(exc), str(exc))


@settings(max_examples=10, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    theta=thetas,
    rate=st.sampled_from((0.0, 0.02, 0.2, 1.0)),
    seed=st.integers(min_value=0, max_value=4),
)
def test_predict_matches_scalar(
    kernels, invocations, tier1, tier3, theta, rate, seed
):
    """Zeroed golden counters take the IPC ladder; at rate 1.0 no kernel
    has a usable invocation and both raise the same typed error."""
    table, golden = _fixture(kernels, invocations, tier1, tier3, seed)
    golden, _ = inject_measurement_faults(
        golden, parse_fault_plan(f"zero_cycles:{rate}", seed=seed)
    )
    pipe = SievePipeline(SieveConfig(theta=theta))
    selection = pipe.select(table)
    (status, vec), (ref_status, ref) = (
        outcome(pipe.predict, selection, golden),
        outcome(sieve_predict_scalar, selection, golden),
    )
    assert status == ref_status
    if status == "error":
        assert vec == ref
        return
    assert np.isclose(vec.predicted_cycles, ref.predicted_cycles, rtol=1e-12)
    assert np.isclose(vec.predicted_ipc, ref.predicted_ipc, rtol=1e-12)
    assert np.allclose(vec.contributions, ref.contributions, rtol=1e-12)
    assert vec.num_representatives == ref.num_representatives


@settings(max_examples=10, deadline=None)
@given(
    kernels=st.integers(min_value=1, max_value=10),
    invocations=st.integers(min_value=40, max_value=600),
    tier1=st.floats(min_value=0.0, max_value=1.0),
    tier3=st.floats(min_value=0.0, max_value=1.0),
    rate=st.sampled_from((0.0, 0.02, 0.2, 1.0)),
    seed=st.integers(min_value=0, max_value=4),
)
def test_cycle_ladder_matches_scalar(
    kernels, invocations, tier1, tier3, rate, seed
):
    """PKS's and the Horvitz-Thompson predictors' per-representative
    cycles equal the one-lookup-at-a-time ladder, ids out of range (both
    signs) and unknown kernels included."""
    table, golden = _fixture(kernels, invocations, tier1, tier3, seed)
    golden, _ = inject_measurement_faults(
        golden, parse_fault_plan(f"zero_cycles:{rate}", seed=seed)
    )
    selection = RandomSampler(sample_size=60).select(table)
    rng = np.random.default_rng(seed)
    reps = []
    for rep in selection.representatives:
        draw = rng.random()
        if draw < 0.15:
            rep = dataclasses.replace(rep, invocation_id=int(rng.choice((-1, -7, 10**6))))
        elif draw < 0.2:
            rep = dataclasses.replace(rep, kernel_name="ghost")
        reps.append(rep)
    selection = dataclasses.replace(selection, representatives=tuple(reps))
    cycles = representative_cycles(selection, golden, "test.predict", "dropped")
    expected = []
    for rep in selection.representatives:
        value = measured_cycles_or_none(rep, golden)
        if value is None:
            value = kernel_mean_cycles(rep.kernel_name, golden)
        expected.append(np.nan if value is None else value)
    assert np.array_equal(cycles, np.array(expected), equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    k=st.integers(min_value=1, max_value=8),
    dims=st.integers(min_value=2, max_value=4),
    policy=st.sampled_from(("first", "random", "centroid")),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_pks_representative_rows_match_scalar(n, k, dims, policy, seed):
    rng = np.random.default_rng(seed)
    projected = rng.normal(size=(n, dims))
    labels = rng.integers(0, k, size=n)
    centroids = rng.normal(size=(k, dims))
    # Only ``workload`` feeds the bookkeeping (the random policy's seed);
    # the real table never does.
    table = types.SimpleNamespace(workload=f"prop/pks{seed}")
    pipe = PksPipeline(PksConfig(selection_policy=policy))
    rows, members = pipe._representative_rows(table, projected, labels, centroids)
    rows_ref, members_ref = pks_representative_rows_scalar(
        table, projected, labels, centroids, policy
    )
    assert rows == rows_ref
    assert len(members) == len(members_ref)
    for a, b in zip(members, members_ref):
        assert np.array_equal(a, b)
