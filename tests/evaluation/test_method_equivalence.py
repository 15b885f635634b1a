"""Property tests: the registry path is byte-identical to the old runners.

``evaluate_method("sieve"|"pks", ...)`` replaced one hand-written runner
per method; the refactor is only safe if the generic path produces
*pickle-byte-identical* :class:`MethodResult`\\ s.
These tests inline the pre-refactor implementations verbatim (modulo
observability spans, which never reach the result) and compare against
the registry path across arbitrary workloads, caps and configs — the
same guarantee that keeps the committed fig3/4/6 goldens unchanged.
"""

import dataclasses
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.pks import PksConfig, PksPipeline
from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.evaluation.context import build_context
from repro.evaluation.dispersion import weighted_cycle_cov
from repro.evaluation.imputation import cycles_in_table_order
from repro.evaluation.metrics import prediction_error, simulation_speedup
from repro.evaluation.runner import MethodResult, evaluate_method

POOL = ("cactus/gru", "cactus/lmc", "mlperf/bert")


def strip_attribution(result: MethodResult) -> MethodResult:
    """Drop the attribution the registry path now attaches.

    The legacy bodies below predate error attribution; the equivalence
    guarantee is about selection/prediction numerics, which the pickle
    compare still covers byte-for-byte. Attribution correctness has its
    own property tests (``tests/observability/test_attribution.py``).
    """
    return dataclasses.replace(result, attribution=None)


def legacy_evaluate_sieve(context, config=None) -> MethodResult:
    """The pre-refactor Sieve runner body, inlined verbatim."""
    pipeline = SievePipeline(config)
    selection = pipeline.select(context.sieve_table)
    prediction = pipeline.predict(selection, context.golden)
    cycles = cycles_in_table_order(context.sieve_table, context.golden)
    cov = weighted_cycle_cov((s.rows for s in selection.strata), cycles)
    return MethodResult(
        workload=context.label,
        method=selection.method,
        error=prediction_error(prediction.predicted_cycles, context.truth.total_cycles),
        speedup=simulation_speedup(selection, context.golden),
        num_representatives=selection.num_representatives,
        cycle_cov=cov,
        predicted_cycles=prediction.predicted_cycles,
        measured_cycles=context.truth.total_cycles,
        selection=selection,
    )


def legacy_evaluate_pks(context, config=None) -> MethodResult:
    """The pre-refactor PKS runner body, inlined verbatim."""
    pipeline = PksPipeline(config)
    selection = pipeline.select(context.pks_table, context.golden)
    prediction = pipeline.predict(selection, context.golden)
    cycles = cycles_in_table_order(context.pks_table, context.golden)
    cov = weighted_cycle_cov(selection.cluster_rows, cycles)
    return MethodResult(
        workload=context.label,
        method=selection.method,
        error=prediction_error(prediction.predicted_cycles, context.truth.total_cycles),
        speedup=simulation_speedup(selection, context.golden),
        num_representatives=selection.num_representatives,
        cycle_cov=cov,
        predicted_cycles=prediction.predicted_cycles,
        measured_cycles=context.truth.total_cycles,
        selection=selection,
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    label=st.sampled_from(POOL),
    cap=st.sampled_from((500, 900, 1500)),
    theta=st.sampled_from((0.1, 0.4, 1.0)),
)
def test_evaluate_method_sieve_byte_identical_to_legacy(label, cap, theta):
    context = build_context(label, max_invocations=cap)
    config = SieveConfig(theta=theta)
    generic = evaluate_method("sieve", context, config)
    legacy = legacy_evaluate_sieve(context, config)
    assert pickle.dumps(strip_attribution(generic)) == pickle.dumps(legacy)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    label=st.sampled_from(POOL),
    cap=st.sampled_from((500, 900)),
    policy=st.sampled_from(("first", "random", "centroid")),
)
def test_evaluate_method_pks_byte_identical_to_legacy(label, cap, policy):
    context = build_context(label, max_invocations=cap)
    config = PksConfig(selection_policy=policy)
    generic = evaluate_method("pks", context, config)
    legacy = legacy_evaluate_pks(context, config)
    assert pickle.dumps(strip_attribution(generic)) == pickle.dumps(legacy)


def test_default_config_matches_legacy_default(small_context):
    """``config=None`` resolves to the same defaults the old path used."""
    assert pickle.dumps(
        strip_attribution(evaluate_method("sieve", small_context))
    ) == pickle.dumps(legacy_evaluate_sieve(small_context))
    assert pickle.dumps(
        strip_attribution(evaluate_method("pks", small_context))
    ) == pickle.dumps(legacy_evaluate_pks(small_context))
