"""Resilience tests for the hardened evaluation engine.

Covers the failure paths the fuzz campaign leans on: a worker dying
under ``run`` (one attempt, not the run), ``run`` being interrupted,
crash isolation with bounded retries and deadlines, the quarantine
strike list, and the determinism contract under injected task-surface
faults (``jobs=1`` and ``jobs=4`` must produce byte-identical surviving
results).
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.evaluation.engine as engine_mod
from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
    Quarantine,
    RetryPolicy,
    TaskOutcome,
    run_task,
)
from repro.robustness.faults import parse_fault_plan
from repro.utils.errors import EngineError, TaskCrashError

CAP = 500
LABELS = ["cactus/gru", "cactus/gst"]
FAST = RetryPolicy(max_attempts=2, deadline_s=60.0, backoff_base_s=0.0)


def task_for(label="cactus/gru", **overrides):
    fields = dict(label=label, max_invocations=CAP, methods=("sieve",))
    fields.update(overrides)
    return EvaluationTask(**fields)


def engine_for(tmp_path, jobs=1, use_cache=True, **overrides):
    fields = dict(
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=tmp_path / "cache",
        quarantine_path=tmp_path / "quarantine.json",
        retry=FAST,
    )
    fields.update(overrides)
    return EvaluationEngine(EngineConfig(**fields))


# --------------------------------------------------------------------- #
# run on the workers: a dying worker costs one attempt, not the run


def test_worker_killed_mid_task_under_run_costs_one_attempt(tmp_path, monkeypatch):
    """The task whose worker dies reruns in a fresh worker; every result
    matches a one-lane run and lands in the cache."""
    marker = tmp_path / "died"
    real = engine_mod.run_task_with_telemetry

    def dies_once(task):
        if task.label == LABELS[1] and not marker.exists():
            marker.touch()
            os._exit(9)
        return real(task)

    # Patched before the engine forks its first worker, so workers run it.
    monkeypatch.setattr(engine_mod, "run_task_with_telemetry", dies_once)
    tasks = [task_for(label) for label in LABELS]
    with engine_for(tmp_path, jobs=2) as engine:
        results = engine.run(tasks)
    assert marker.exists()
    assert [(r.label, r.attempts) for r in results] == [(LABELS[0], 1), (LABELS[1], 2)]
    serial = engine_for(tmp_path / "serial", use_cache=False).run(tasks)
    for result, reference in zip(results, serial):
        assert pickle.dumps(result.results) == pickle.dumps(reference.results)
    assert all(r.from_cache for r in engine_for(tmp_path).run(tasks))


def test_run_ignores_task_surface_sabotage(tmp_path):
    """``run`` sends its workers no sabotage: a crash plan still only
    corrupts what its table and measurement faults corrupt."""
    plan = parse_fault_plan("crash:1.0", seed=3)
    tasks = [task_for(label, fault_plan=plan) for label in LABELS]
    with engine_for(tmp_path, jobs=2, use_cache=False) as engine:
        results = engine.run(tasks)
    for task, result in zip(tasks, results):
        assert pickle.dumps(result.results) == pickle.dumps(run_task(task))


def test_run_raises_an_unpicklable_task_error_as_a_crash(tmp_path, monkeypatch):
    class LocalError(Exception):  # defined in a function, so it cannot pickle
        pass

    def raises(task):
        raise LocalError(f"boom in {task.label}")

    monkeypatch.setattr(engine_mod, "run_task_with_telemetry", raises)
    with engine_for(tmp_path, jobs=2, use_cache=False) as engine:
        with pytest.raises(TaskCrashError, match=f"LocalError: boom in {LABELS[0]}"):
            engine.run([task_for(label) for label in LABELS])


#: A run whose two tasks sleep in their workers until the run is stopped.
INTERRUPTED_RUN = """
import sys, time
from pathlib import Path
import repro.evaluation.engine as engine_mod
from repro.evaluation.engine import EngineConfig, EvaluationEngine, EvaluationTask

def long_task(task):
    (Path(sys.argv[1]) / task.label.replace("/", "_")).touch()
    time.sleep(600)

engine_mod.run_task_with_telemetry = long_task
engine = EvaluationEngine(EngineConfig(jobs=2, use_cache=False))
engine.run([EvaluationTask(label, methods=("sieve",)) for label in sys.argv[2:]])
"""


def test_interrupted_run_kills_its_busy_workers(tmp_path):
    """Ctrl-C reaches the whole process group and workers ignore it, so an
    interrupted ``run`` kills its busy workers instead of waiting out their
    tasks, exits promptly and leaves no process behind."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_RUN, str(tmp_path), *LABELS],
        env=env,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        give_up = time.monotonic() + 60.0
        while len(list(tmp_path.iterdir())) < len(LABELS):
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < give_up, "the tasks never started"
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        proc.wait(timeout=60.0)
        took = time.monotonic() - sent
        left = True
        for _ in range(50):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                left = False
                break
            time.sleep(0.1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30.0)
        proc.stderr.close()
    assert took < 5.0
    assert not left
    assert proc.returncode != 0


# --------------------------------------------------------------------- #
# Retry policy / outcome plumbing


def test_retry_policy_validation():
    with pytest.raises(EngineError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(EngineError):
        RetryPolicy(deadline_s=0.0)
    with pytest.raises(EngineError):
        RetryPolicy(backoff_factor=0.5)
    policy = RetryPolicy(backoff_base_s=0.05, backoff_factor=2.0)
    assert policy.backoff(0) == pytest.approx(0.05)
    assert policy.backoff(2) == pytest.approx(0.2)


def test_failed_outcome_indexing_raises_typed_error():
    outcome = TaskOutcome("cactus/gru", "crash", error="exitcode=13")
    assert not outcome.ok
    with pytest.raises(TaskCrashError):
        outcome["sieve"]


# --------------------------------------------------------------------- #
# Crash isolation


def test_run_isolated_matches_run_when_healthy(tmp_path):
    engine = engine_for(tmp_path, use_cache=False)
    tasks = [task_for(label) for label in LABELS]
    outcomes = engine.run_isolated(tasks)
    plain = engine.run(tasks)
    assert [o.status for o in outcomes] == ["ok", "ok"]
    assert [o.attempts for o in outcomes] == [1, 1]
    for outcome, result in zip(outcomes, plain):
        assert pickle.dumps(dict(outcome.results)) == pickle.dumps(result.results)


def test_crashing_task_fails_alone_and_is_quarantined(tmp_path):
    """A worker dying via os._exit costs one task, then strikes it out."""
    plan = parse_fault_plan("crash:1.0", seed=3)
    tasks = [
        task_for(LABELS[0], fault_plan=plan),
        task_for(LABELS[1]),
    ]
    engine = engine_for(tmp_path)
    outcomes = engine.run_isolated(tasks)
    assert outcomes[0].status == "crash"
    assert outcomes[0].attempts == FAST.max_attempts
    assert "exitcode" in outcomes[0].error
    assert outcomes[1].ok

    # Second failing run reaches the threshold (2): third run skips it.
    engine.run_isolated(tasks[:1])
    assert engine.quarantine.is_quarantined("task", LABELS[0])
    skipped = engine.run_isolated(tasks[:1])
    assert skipped[0].status == "quarantined"
    assert skipped[0].attempts == 0

    # The quarantine survives engine restart via its JSON file.
    reborn = engine_for(tmp_path)
    assert reborn.quarantine.is_quarantined("task", LABELS[0])
    assert ("task", LABELS[0], 2) in reborn.quarantine.entries()
    assert reborn.quarantine.clear("task") == 1
    assert not reborn.quarantine.is_quarantined("task", LABELS[0])


def test_hanging_task_times_out_per_attempt(tmp_path):
    plan = parse_fault_plan("hang:1.0", seed=5)
    engine = engine_for(tmp_path, use_cache=False)
    policy = RetryPolicy(max_attempts=2, deadline_s=1.5, backoff_base_s=0.0)
    outcomes = engine.run_isolated([task_for(fault_plan=plan)], policy=policy)
    assert outcomes[0].status == "timeout"
    assert outcomes[0].attempts == 2
    assert "deadline" in outcomes[0].error


def test_injected_task_error_is_reported(tmp_path):
    plan = parse_fault_plan("task_error:1.0", seed=9)
    engine = engine_for(tmp_path, use_cache=False)
    outcomes = engine.run_isolated([task_for(fault_plan=plan)])
    assert outcomes[0].status == "error"
    assert "injected task fault" in outcomes[0].error


def test_isolated_results_are_cached_for_plain_run(tmp_path):
    engine = engine_for(tmp_path)
    task = task_for()
    outcomes = engine.run_isolated([task])
    assert outcomes[0].ok and not outcomes[0].from_cache
    again = engine.run_isolated([task])
    assert again[0].from_cache
    plain = engine.run([task])
    assert plain[0].from_cache
    assert pickle.dumps(dict(outcomes[0].results)) == pickle.dumps(plain[0].results)


# --------------------------------------------------------------------- #
# Quarantine bookkeeping


def test_quarantine_strikes_persist_and_round_trip(tmp_path):
    path = tmp_path / "q.json"
    quarantine = Quarantine(path, threshold=2)
    assert quarantine.strike("task", "a/b") == 1
    assert not quarantine.is_quarantined("task", "a/b")
    assert quarantine.strike("task", "a/b") == 2
    assert quarantine.is_quarantined("task", "a/b")
    quarantine.strike("cache", "deadbeef")

    reloaded = Quarantine(path, threshold=2)
    assert reloaded.entries() == [("cache", "deadbeef", 1), ("task", "a/b", 2)]
    assert reloaded.clear() == 2
    assert Quarantine(path, threshold=2).entries() == []


def test_quarantine_rejects_unknown_kind(tmp_path):
    quarantine = Quarantine(tmp_path / "q.json")
    with pytest.raises(EngineError):
        quarantine.strike("bogus", "x")


def test_corrupt_cache_entry_strikes_and_quarantined_key_not_rewritten(tmp_path):
    engine = engine_for(tmp_path)
    task = task_for()
    key = task.cache_key()
    path = engine.cache.path_for(key)

    for expected_strikes in (1, 2):
        engine.run([task])
        assert path.exists()
        path.write_bytes(b"garbage")
        engine.run([task])  # drops the corrupt entry -> one cache strike
        strikes = dict(
            ((kind, ident), count)
            for kind, ident, count in engine.quarantine.entries()
        )
        assert strikes.get(("cache", key)) == expected_strikes

    # Two strikes -> quarantined: the key is no longer written through.
    assert engine.quarantine.is_quarantined("cache", key)
    engine.run([task])
    assert not path.exists()


# --------------------------------------------------------------------- #
# Satellite: determinism under injected chaos (hypothesis)


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    plan_text=st.sampled_from(
        ("crash:0.5", "task_error:0.6", "crash:0.4,task_error:0.4")
    ),
)
def test_chaos_survivors_identical_serial_vs_parallel(tmp_path_factory, seed, plan_text):
    """Sabotage depends only on (plan.seed, label, attempt), never on
    scheduling: jobs=1 and jobs=4 agree on statuses, attempt counts and
    the exact bytes of every surviving result."""
    plan = parse_fault_plan(plan_text, seed=seed)
    tasks = [task_for(label, fault_plan=plan) for label in LABELS]

    def outcomes_with(jobs):
        tmp = tmp_path_factory.mktemp("chaos")
        engine = engine_for(tmp, jobs=jobs, use_cache=False)
        return engine.run_isolated(tasks, policy=FAST)

    serial = outcomes_with(1)
    parallel = outcomes_with(4)
    assert [(o.label, o.status, o.attempts) for o in serial] == [
        (o.label, o.status, o.attempts) for o in parallel
    ]
    for left, right in zip(serial, parallel):
        if left.ok:
            assert pickle.dumps(dict(left.results)) == pickle.dumps(
                dict(right.results)
            )
