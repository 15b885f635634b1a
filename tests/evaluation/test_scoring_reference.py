"""Oracle tests: scoring a selection by column equals scoring it row by row.

``evaluate_method`` builds the error attribution as columns, the Figure 4
dispersion through :func:`repro.utils.segments.reduce_groups` and Sieve's
representatives in one grouped pass. The per-row constructions survive in
:mod:`repro.core.reference`; every value must match them bit for bit:
the attribution's JSON byte for byte, ``cycle_cov`` and the representative
rows exactly. The contexts cover the fig3 workloads, fault-injected
profiles and golden references, and a stratum longer than numpy's integer
cast buffer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import SELECTION_POLICIES, SieveConfig
from repro.core.reference import (
    attribute_error_scalar,
    cycles_in_table_order_scalar,
    select_representative_row_scalar,
    weighted_cycle_cov_scalar,
)
from repro.core.selection import select_representative_rows
from repro.core.stratify import stratify_table
from repro.evaluation.context import build_context
from repro.evaluation.runner import evaluate_method
from repro.methods import get_method
from repro.robustness.faults import parse_fault_plan
from repro.utils.segments import CAST_BUFFER
from repro.workloads.catalog import workload_names
from repro.workloads.spec import WorkloadSpec

METHODS = ("sieve", "pks", "pks-two-level", "periodic", "random")
FIG3 = tuple(workload_names(("cactus", "mlperf")))


def assert_scoring_matches_oracle(method_name: str, context, config=None) -> None:
    """One method's scored result against the per-row oracles."""
    method = get_method(method_name)
    config = method.resolve_config(config)
    result = evaluate_method(method_name, context, config)
    selection = result.selection
    prediction = method.predict(selection, context.golden, config)

    oracle = attribute_error_scalar(method, selection, prediction, context, config)
    assert json.dumps(result.attribution.to_dict()) == json.dumps(oracle)

    cycles = cycles_in_table_order_scalar(method.profile_table(context), context.golden)
    expected_cov = weighted_cycle_cov_scalar(method.group_rows(selection), cycles)
    assert result.cycle_cov == expected_cov or (
        np.isnan(result.cycle_cov) and np.isnan(expected_cov)
    )


def assert_picks_match_oracle(table, strata) -> None:
    """Every Sieve policy's grouped picks against the per-stratum oracle."""
    for policy in SELECTION_POLICIES:
        rows = select_representative_rows(table, strata, policy).tolist()
        expected = [
            select_representative_row_scalar(table, stratum, policy)
            for stratum in strata
        ]
        assert rows == expected, policy


@pytest.mark.parametrize("cap", (1200, 20_000))
@pytest.mark.parametrize("label", FIG3)
def test_fig3_scoring_matches_oracle(label, cap):
    context = build_context(label, max_invocations=cap)
    for method_name in METHODS:
        assert_scoring_matches_oracle(method_name, context)
    table = context.sieve_table
    assert_picks_match_oracle(table, stratify_table(table, SieveConfig()))


@pytest.mark.parametrize(
    ("plan", "methods"),
    (
        ("zero_cycles:0.05", METHODS),
        ("cycle_noise:0.2,clock_drift:0.1", METHODS),
        ("nan:0.1,negative:0.05,duplicate:0.05", METHODS),
        ("drop:0.1,truncate:0.1", METHODS),
    ),
)
def test_faulted_scoring_matches_oracle(plan, methods):
    context = build_context(
        "cactus/gru",
        max_invocations=1500,
        fault_plan=parse_fault_plan(plan, seed=7),
    )
    for method_name in methods:
        assert_scoring_matches_oracle(method_name, context)


def test_stratum_longer_than_the_cast_buffer_matches_oracle():
    spec = WorkloadSpec(
        name="long-strata",
        suite="synthetic",
        num_kernels=2,
        num_invocations=4 * CAST_BUFFER,
        tier_fractions=(0.5, 0.5, 0.0),
        alias_groups=1,
    )
    context = build_context("synthetic/long-strata", spec=spec)
    strata = stratify_table(context.sieve_table, SieveConfig())
    assert max(stratum.size for stratum in strata) > CAST_BUFFER
    for method_name in ("sieve", "periodic"):
        assert_scoring_matches_oracle(method_name, context)
    assert_picks_match_oracle(context.sieve_table, strata)
