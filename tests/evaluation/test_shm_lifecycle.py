"""Lifecycle tests for the shared-memory table plane.

The contract under test (see :mod:`repro.evaluation.shm`): the engine
owns every segment it publishes and *always* unlinks them — on a normal
``close()`` (idempotently), and when a worker crashes mid-task under
either entry point — while workers only ever attach and
close their own mapping. "No leaked segments" is asserted the strong
way: after cleanup, attaching by name must raise ``FileNotFoundError``.
"""

import os
import pickle

import numpy as np
import pytest

import repro.evaluation.engine as engine_mod
from repro.core.pipeline import SievePipeline
from repro.evaluation.context import build_context
from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
    run_task,
)
from repro.evaluation.shm import _LIVE_PLANES, _attach_segment, attached_context
from repro.observability import metrics
from repro.robustness.faults import parse_fault_plan
from repro.utils.errors import EngineError

CAP = 400


@pytest.fixture(scope="module")
def bundle():
    context = build_context("cactus/gru", max_invocations=CAP)
    return context.pks_table, context.golden


def segment_is_gone(name: str) -> bool:
    try:
        segment = _attach_segment(name)
    except FileNotFoundError:
        return True
    segment.close()
    return False


def engine_for(tmp_path, **overrides) -> EvaluationEngine:
    fields = dict(jobs=1, use_cache=False, cache_dir=tmp_path / "cache")
    fields.update(overrides)
    return EvaluationEngine(EngineConfig(**fields))


def table_task(ref, **overrides) -> EvaluationTask:
    fields = dict(label=ref.workload, methods=("sieve",), table_ref=ref)
    fields.update(overrides)
    return EvaluationTask(**fields)


def counter(name: str) -> float:
    return metrics.get_registry().counters.get(name, 0.0)


# --------------------------------------------------------------------- #
# Close semantics


def test_close_unlinks_and_is_idempotent(tmp_path, bundle):
    table, golden = bundle
    engine = engine_for(tmp_path)
    ref = engine.publish_table(table, golden)
    assert not segment_is_gone(ref.segment)
    assert engine._shm in _LIVE_PLANES

    engine.close()
    assert engine.closed
    assert segment_is_gone(ref.segment)
    assert engine._shm not in _LIVE_PLANES
    before = counter("engine.shm.unlinked")
    engine.close()  # second close: no error, no double-unlink
    assert counter("engine.shm.unlinked") == before
    with pytest.raises(EngineError):
        engine.publish_table(table, golden)


def test_context_manager_closes(tmp_path, bundle):
    table, golden = bundle
    with engine_for(tmp_path) as engine:
        ref = engine.publish_table(table, golden)
    assert engine.closed
    assert segment_is_gone(ref.segment)


def test_release_refcounts_dedup(tmp_path, bundle):
    table, golden = bundle
    with engine_for(tmp_path) as engine:
        ref = engine.publish_table(table, golden)
        dup = engine.publish_table(table, golden)
        assert dup.segment == ref.segment and dup.digest == ref.digest
        assert not engine.release_table(ref)  # one reference remains
        assert not segment_is_gone(ref.segment)
        assert engine.release_table(dup)  # last reference: unlinked
        assert segment_is_gone(ref.segment)
        assert not engine.release_table(ref)  # already gone: a no-op


# --------------------------------------------------------------------- #
# Failure paths


def test_worker_crash_under_run_leaves_no_segments(tmp_path, monkeypatch, bundle):
    """A worker dying mid-task under ``run`` never takes the owner's
    segment along: the task reruns on it, and close still reaps it."""
    table, golden = bundle
    marker = tmp_path / "died"
    real = engine_mod.run_task_with_telemetry

    def dies_once(task):
        try:
            marker.touch(exist_ok=False)  # O_EXCL: exactly one worker dies
        except FileExistsError:
            return real(task)
        os._exit(9)

    monkeypatch.setattr(engine_mod, "run_task_with_telemetry", dies_once)
    engine = engine_for(tmp_path, jobs=2)
    ref = engine.publish_table(table, golden)
    results = engine.run([table_task(ref), table_task(ref)])
    assert sorted(result.attempts for result in results) == [1, 2]
    assert all(result.results["sieve"].error >= 0.0 for result in results)
    assert not segment_is_gone(ref.segment)  # owner still holds it
    engine.close()
    assert segment_is_gone(ref.segment)


def test_crashed_isolated_child_leaves_no_segments(tmp_path, bundle):
    """A child dying via os._exit never takes the owner's segment along."""
    table, golden = bundle
    engine = engine_for(
        tmp_path,
        retry=engine_mod.RetryPolicy(
            max_attempts=1, deadline_s=60.0, backoff_base_s=0.0
        ),
    )
    ref = engine.publish_table(table, golden)
    crash = parse_fault_plan("crash:1.0", seed=3)
    [outcome] = engine.run_isolated([table_task(ref, fault_plan=crash)])
    assert outcome.status == "crash"
    assert not segment_is_gone(ref.segment)  # owner still holds it
    engine.close()
    assert segment_is_gone(ref.segment)


def test_attach_after_close_is_a_typed_miss(tmp_path, bundle):
    table, golden = bundle
    engine = engine_for(tmp_path)
    ref = engine.publish_table(table, golden)
    engine.close()
    misses = counter("engine.shm.attach_miss")
    with pytest.raises(EngineError, match="vanished"):
        run_task(table_task(ref))
    assert counter("engine.shm.attach_miss") == misses + 1


# --------------------------------------------------------------------- #
# Worker-side view discipline


def test_results_own_their_arrays_after_close(tmp_path, bundle):
    """Results must not hold live views into a closed segment."""
    table, golden = bundle
    engine = engine_for(tmp_path)
    ref = engine.publish_table(table, golden)
    results = run_task(table_task(ref))
    engine.close()
    blob = pickle.dumps(results["sieve"])  # would crash on a dead view
    assert pickle.loads(blob).workload == ref.workload


def test_attached_context_matches_direct_evaluation(tmp_path, bundle):
    """The reconstructed view is byte-equivalent to the source bundle."""
    table, golden = bundle
    with engine_for(tmp_path) as engine:
        ref = engine.publish_table(table, golden)
        with attached_context(ref) as context:
            assert np.array_equal(
                context.pks_table.insn_count, table.insn_count
            )
            shared = SievePipeline().select(context.sieve_table)
            prediction = SievePipeline().predict(shared, context.golden)
    direct_sel = SievePipeline().select(table.without_metrics())
    direct = SievePipeline().predict(direct_sel, golden)
    assert prediction.predicted_cycles == direct.predicted_cycles
