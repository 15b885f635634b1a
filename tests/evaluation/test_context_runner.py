"""Tests for evaluation contexts and method runners."""

import numpy as np
import pytest

from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.evaluation.runner import (
    evaluate_method,
    hardware_speedup_between,
    predicted_speedup_between,
    sieve_tier_fractions,
)
from repro.gpu import TURING_RTX2080TI


def test_context_respects_cap(small_context):
    assert len(small_context.sieve_table) == 1500
    assert small_context.run.num_invocations == 1500


def test_context_is_cached():
    first = build_context("cactus/gru", max_invocations=1500)
    assert build_context("cactus/gru", max_invocations=1500) is first


def test_context_tables_consistent(small_context):
    assert np.array_equal(
        small_context.sieve_table.insn_count, small_context.pks_table.insn_count
    )
    assert small_context.sieve_table.metrics is None
    assert small_context.pks_table.metrics is not None


def test_evaluate_sieve_scorecard(small_context):
    result = evaluate_method("sieve", small_context)
    assert result.method == "sieve"
    assert 0 <= result.error < 0.2
    assert result.speedup > 5
    assert result.num_representatives >= small_context.run.spec.num_kernels
    assert result.measured_cycles == small_context.golden.total_cycles


def test_evaluate_pks_scorecard(small_context):
    result = evaluate_method("pks", small_context)
    assert result.method == "pks-first"
    assert result.error >= 0
    assert result.cycle_cov >= 0
    assert result.num_representatives <= 20


def test_sieve_beats_pks_dispersion(small_context):
    sieve = evaluate_method("sieve", small_context)
    pks = evaluate_method("pks", small_context)
    assert sieve.cycle_cov <= pks.cycle_cov + 0.05


def test_tier_fractions_sum_to_one(small_context):
    for theta in (0.1, 0.4, 1.0):
        fractions = sieve_tier_fractions(small_context, theta)
        assert fractions.sum() == pytest.approx(1.0)
    # Tier-3 mass cannot grow with theta.
    t3 = [sieve_tier_fractions(small_context, t)[2] for t in (0.1, 0.5, 1.0)]
    assert t3[0] >= t3[1] >= t3[2]


def test_theta_config_respected(small_context):
    tight = evaluate_method("sieve", small_context, SieveConfig(theta=0.1))
    loose = evaluate_method("sieve", small_context, SieveConfig(theta=1.0))
    assert tight.num_representatives >= loose.num_representatives


def test_cross_architecture_speedups(small_context):
    turing = small_context.measure_on(TURING_RTX2080TI)
    hardware = hardware_speedup_between(small_context.golden, turing)
    assert hardware > 0
    sieve = evaluate_method("sieve", small_context)
    predicted = predicted_speedup_between(
        sieve.selection, "sieve", small_context.golden, turing
    )
    assert predicted == pytest.approx(hardware, rel=0.15)


def test_predicted_speedup_method_dispatch(small_context):
    """"sieve" must route through SievePipeline, everything else to PKS."""
    from repro.baselines.pks import PksPipeline
    from repro.core.pipeline import SievePipeline

    turing = small_context.measure_on(TURING_RTX2080TI)
    golden = small_context.golden

    def expected(pipe, selection):
        base = pipe.predict(selection, golden).predicted_cycles
        other = pipe.predict(selection, turing).predicted_cycles
        return (other / (turing.clock_ghz * 1e9)) / (base / (golden.clock_ghz * 1e9))

    sieve = evaluate_method("sieve", small_context)
    via_sieve = predicted_speedup_between(sieve.selection, "sieve", golden, turing)
    assert via_sieve == pytest.approx(expected(SievePipeline(), sieve.selection))

    pks = evaluate_method("pks", small_context)
    via_pks = predicted_speedup_between(pks.selection, "pks", golden, turing)
    assert via_pks == pytest.approx(expected(PksPipeline(), pks.selection))


def test_predicted_speedup_clock_conversion(small_context):
    """With identical cycle counts, speedup reduces to the clock ratio."""
    import dataclasses

    golden = small_context.golden
    sieve = evaluate_method("sieve", small_context)
    for factor in (0.5, 2.0):
        faster = dataclasses.replace(golden, clock_ghz=golden.clock_ghz * factor)
        predicted = predicted_speedup_between(
            sieve.selection, "sieve", golden, faster
        )
        # same cycles on both sides -> other/base seconds = 1/factor
        assert predicted == pytest.approx(1.0 / factor)


def test_hardware_speedup_is_wall_time_ratio(small_context):
    import dataclasses

    golden = small_context.golden
    turing = small_context.measure_on(TURING_RTX2080TI)
    assert hardware_speedup_between(golden, turing) == pytest.approx(
        turing.wall_time_seconds / golden.wall_time_seconds
    )
    # pure clock change: wall time scales inversely with the clock
    doubled = dataclasses.replace(golden, clock_ghz=golden.clock_ghz * 2)
    assert hardware_speedup_between(golden, doubled) == pytest.approx(0.5)
    assert hardware_speedup_between(doubled, golden) == pytest.approx(2.0)


def test_tier_fractions_empty_profile_raises_typed_error():
    """0/0 tier fractions must be a SelectionError, not silent NaN."""
    from types import SimpleNamespace

    from repro.profiling.table import ProfileTable
    from repro.utils.errors import SelectionError, SieveError

    empty = ProfileTable(
        workload="empty",
        kernel_names=("k0",),
        kernel_id=np.array([], dtype=np.int32),
        invocation_id=np.array([], dtype=np.int64),
        insn_count=np.array([], dtype=np.int64),
        cta_size=np.array([], dtype=np.int32),
        num_ctas=np.array([], dtype=np.int64),
    )
    context = SimpleNamespace(sieve_table=empty, label="testsuite/empty")
    with pytest.raises(SelectionError, match="no invocations"):
        sieve_tier_fractions(context, theta=0.4)
    # it participates in the typed hierarchy (and stays a ValueError)
    assert issubclass(SelectionError, SieveError)
    assert issubclass(SelectionError, ValueError)


@pytest.mark.parametrize(
    ("plan", "alignments"),
    ((None, 1), ("drop:0.1", 1), ("zero_cycles:0.05", 2)),
)
def test_golden_cycles_are_aligned_once_unless_faults_split_them(
    monkeypatch, plan, alignments
):
    """Scoring aligns the golden cycles with the profile table once, and
    the attribution reuses them; only a fault in the golden reference
    makes the clean truth a second measurement to align."""
    from repro.evaluation import imputation, runner
    from repro.observability import attribution
    from repro.robustness.faults import parse_fault_plan

    calls = []

    def counted(table, measurement):
        calls.append(measurement)
        return imputation.cycles_in_table_order(table, measurement)

    monkeypatch.setattr(runner, "cycles_in_table_order", counted)
    monkeypatch.setattr(attribution, "cycles_in_table_order", counted)
    context = build_context(
        "cactus/gru",
        max_invocations=1500,
        fault_plan=None if plan is None else parse_fault_plan(plan, seed=7),
    )
    evaluate_method("sieve", context)
    assert len(calls) == alignments


def test_speedup_under_measurement_faults_is_the_clean_speedup():
    """Measurement faults corrupt only the golden reference, so Sieve
    selects what it selects on the clean run; its speedup, like its
    error, is judged against the clean truth."""
    from repro.robustness.faults import parse_fault_plan

    plan = parse_fault_plan("zero_cycles:0.3,cycle_noise:0.1,clock_drift:0.05", seed=7)
    clean = evaluate_method("sieve", build_context("cactus/gru", max_invocations=600))
    faulted = evaluate_method(
        "sieve", build_context("cactus/gru", max_invocations=600, fault_plan=plan)
    )
    assert faulted.selection.representatives == clean.selection.representatives
    assert faulted.speedup == clean.speedup
