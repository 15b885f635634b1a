"""The long-lived workers behind ``EvaluationEngine.run_isolated`` and ``run``.

A worker keeps its context cache between tasks; a crash or a timeout
costs the attempt and the worker, never the next task; a worker that
died while idle is replaced for free; worker telemetry nests under the
fan-out span; and close (or dropping an engine nobody closed) stops
every worker with a clean exit.
"""

import gc
import multiprocessing
import os
import pickle
import signal
import sys

import pytest

from repro.core.config import SieveConfig
from repro.evaluation import engine as engine_module
from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
    RetryPolicy,
    run_task,
)
from repro.methods import MethodRequest
from repro.observability import metrics, spans
from repro.observability.export import chrome_trace
from repro.observability.manifest import collect_manifest
from repro.robustness.faults import parse_fault_plan

#: A cap no other test builds, so no worker inherits this context.
CAP = 321
ONCE = RetryPolicy(max_attempts=1, deadline_s=60.0, backoff_base_s=0.0)


def task_for(label="cactus/gru", theta=None, **overrides):
    config = SieveConfig() if theta is None else SieveConfig(theta=theta)
    fields = dict(
        label=label,
        max_invocations=CAP,
        methods=(MethodRequest("sieve", config),),
    )
    fields.update(overrides)
    return EvaluationTask(**fields)


def engine_for(tmp_path, jobs=1):
    return EvaluationEngine(
        EngineConfig(
            jobs=jobs,
            use_cache=False,
            quarantine_path=tmp_path / "quarantine.json",
            retry=ONCE,
        )
    )


def idle_pids(engine) -> list[int]:
    return [worker.proc.pid for worker in engine._workers._idle]


def test_tasks_on_one_workload_share_a_worker_and_its_context(tmp_path):
    engine = engine_for(tmp_path)
    builds = metrics.get_registry().counters.get("context.builds", 0.0)
    first = engine.run_isolated([task_for(theta=0.4)])
    [pid] = idle_pids(engine)
    second = engine.run_isolated([task_for(theta=0.6)])
    assert [o.status for o in first + second] == ["ok", "ok"]
    assert idle_pids(engine) == [pid]
    # The second task's adopted telemetry carries no context build.
    assert metrics.get_registry().counters["context.builds"] == builds + 1
    engine.close()
    # A task on a warm worker, whose context an earlier unpickled task
    # built, pickles exactly as the same task run in-process.
    assert pickle.dumps(dict(second[0].results)) == pickle.dumps(run_task(task_for(theta=0.6)))


@pytest.mark.parametrize(
    "plan, policy, status",
    [
        ("crash:1.0", ONCE, "crash"),
        ("hang:1.0", RetryPolicy(max_attempts=1, deadline_s=1.0, backoff_base_s=0.0), "timeout"),
    ],
    ids=["crash", "deadline"],
)
def test_failed_attempt_costs_one_attempt_and_its_worker(tmp_path, plan, policy, status):
    engine = engine_for(tmp_path)
    engine.run_isolated([task_for()])
    [before] = engine._workers._idle
    failed = engine.run_isolated(
        [task_for("cactus/gst", fault_plan=parse_fault_plan(plan, seed=1))], policy
    )
    assert (failed[0].status, failed[0].attempts) == (status, 1)
    assert idle_pids(engine) == []
    assert before.proc.exitcode is not None  # reaped, not left running
    healthy = engine.run_isolated([task_for()])
    assert (healthy[0].status, healthy[0].attempts) == ("ok", 1)
    assert idle_pids(engine) != [before.proc.pid]
    engine.close()


@pytest.mark.parametrize("found", ["at-checkout", "on-send"])
def test_worker_killed_while_idle_is_replaced_free(tmp_path, monkeypatch, found):
    engine = engine_for(tmp_path)
    engine.run_isolated([task_for()])
    [worker] = engine._workers._idle
    os.kill(worker.proc.pid, signal.SIGKILL)
    os.waitid(os.P_PID, worker.proc.pid, os.WEXITED | os.WNOWAIT)  # dead, unreaped
    if found == "on-send":
        # Seen alive at checkout, so the dead worker is found by a
        # broken pipe when the task is sent.
        monkeypatch.setattr(worker.proc, "is_alive", lambda: True)
    [outcome] = engine.run_isolated([task_for(theta=0.7)])
    assert (outcome.status, outcome.attempts) == ("ok", 1)
    assert engine.quarantine.entries() == []
    [pid] = idle_pids(engine)
    assert pid != worker.proc.pid
    engine.close()


def test_worker_that_dies_before_reading_its_task_is_a_crash(tmp_path, monkeypatch):
    """A worker killed with the task unread resets the connection; the
    attempt is a crash, not an exception out of ``run_isolated``."""
    engine = engine_for(tmp_path)
    engine.run_isolated([task_for()])
    [worker] = engine._workers._idle
    os.kill(worker.proc.pid, signal.SIGSTOP)  # it cannot read what comes next
    real_take = engine_module._Worker.take

    def take_then_die(self, message):
        real_take(self, message)
        os.kill(self.proc.pid, signal.SIGKILL)

    monkeypatch.setattr(engine_module._Worker, "take", take_then_die)
    [outcome] = engine.run_isolated([task_for(theta=0.45)])
    assert (outcome.status, outcome.attempts) == ("crash", 1)
    assert worker.proc.exitcode == -signal.SIGKILL
    monkeypatch.undo()
    assert engine.run_isolated([task_for(theta=0.45)])[0].ok
    engine.close()


def test_task_that_exits_its_worker_is_charged_the_crash(tmp_path, monkeypatch):
    """A task raising SystemExit ends its worker without a reply: that task
    is charged the crash, and the next one runs in a fresh worker."""
    real = engine_module.run_task_with_telemetry

    def exiting(task):
        if task.label == "cactus/gst":
            raise SystemExit(3)
        return real(task)

    # Patched before the engine forks its first worker, so workers run it.
    monkeypatch.setattr(engine_module, "run_task_with_telemetry", exiting)
    engine = engine_for(tmp_path)
    outcomes = engine.run_isolated([task_for("cactus/gst"), task_for()])
    assert [(o.status, o.attempts) for o in outcomes] == [("crash", 1), ("ok", 1)]
    assert "exitcode=3" in outcomes[0].error
    engine.close()


@pytest.mark.parametrize(
    "lock, count",
    [
        (metrics._lock, lambda: metrics.MetricsRegistry().inc("x")),
        (engine_module._bookkeeping, lambda: engine_module.Quarantine().strike("task", "x")),
        (spans._lock, spans.reset),
    ],
    ids=["metrics", "engine", "spans"],
)
def test_a_child_forked_while_a_counter_lock_is_held_can_count(lock, count):
    """Workers fork from threads that count; a lock copied while held
    must not block the child's first count."""
    child = multiprocessing.get_context("fork").Process(target=count)
    with lock:
        child.start()
    child.join(30.0)
    stuck = child.is_alive()
    if stuck:
        child.kill()
        child.join()
    assert not stuck
    assert child.exitcode == 0


@pytest.mark.parametrize(
    "entry, fan_out", [("run_isolated", "engine.run_isolated"), ("run", "engine.pool")]
)
def test_worker_telemetry_nests_under_the_fan_out_span(tmp_path, entry, fan_out):
    """Every attempt span is a child of the fan-out span, so a manifest's
    total is its root's wall time, and each task's worker spans get their
    own track of the Chrome trace's worker process."""
    engine = engine_for(tmp_path, jobs=2)
    mark = spans.mark()
    with spans.span("test.root"):
        getattr(engine, entry)([task_for(), task_for("cactus/gst")])
    engine.close()
    window = spans.records(since=mark)
    [root] = [r for r in window if r.name == "test.root"]
    [parent] = [r for r in window if r.name == fan_out]
    attempts = [r for r in window if r.name == "engine.attempt"]
    assert [r.parent_id for r in attempts] == [parent.span_id] * 2
    assert collect_manifest("test", since=mark).total_wall_s == root.wall_s
    events = chrome_trace(window)["traceEvents"]
    tracks = {e["args"]["name"] for e in events if e["ph"] == "M" and e["pid"] == 1 and e["tid"]}
    assert tracks == {"task cactus/gru", "task cactus/gst"}
    on_workers = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
    assert len(on_workers) == sum(r.proc == "worker" for r in window) > 0


def test_close_stops_every_worker_with_a_clean_exit(tmp_path):
    engine = engine_for(tmp_path, jobs=2)
    outcomes = engine.run_isolated([task_for(), task_for("cactus/gst")])
    assert all(o.ok for o in outcomes)
    workers = list(engine._workers._idle)
    assert len(workers) == 2
    engine.close()
    assert [w.proc.exitcode for w in workers] == [0, 0]
    assert not any(w.proc.is_alive() for w in workers)


def test_close_is_idempotent(tmp_path):
    engine = engine_for(tmp_path)
    engine.run_isolated([task_for()])
    [worker] = engine._workers._idle
    engine.close()
    assert engine.closed and worker.proc.exitcode == 0
    engine.close()  # a second close finds nothing left to stop
    assert engine.closed and engine._workers._idle == []


def test_context_manager_closes_the_engine(tmp_path):
    with engine_for(tmp_path) as engine:
        engine.run_isolated([task_for()])
        [worker] = engine._workers._idle
    assert engine.closed
    assert worker.proc.exitcode == 0


def test_dropped_engine_stops_its_workers(tmp_path):
    engine = engine_for(tmp_path)
    engine.run_isolated([task_for()])
    [worker] = engine._workers._idle
    del engine
    gc.collect()
    assert worker.proc.exitcode == 0


def test_supervisors_share_the_pool_under_contention(tmp_path):
    """More supervisors than cores, crashes among them and a short switch
    interval: each outcome follows its plan, and the pool keeps at most
    ``jobs`` idle workers, all alive."""
    engine = engine_for(tmp_path, jobs=4)
    crash = parse_fault_plan("crash:1.0", seed=2)
    tasks = [
        task_for(label, theta=0.3 + 0.1 * i, fault_plan=crash if i % 3 == 2 else None)
        for i, label in enumerate(["cactus/gru", "cactus/gst"] * 4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcomes = engine.run_isolated(tasks)
    finally:
        sys.setswitchinterval(interval)
    assert [o.status for o in outcomes] == [
        "crash" if task.fault_plan is not None else "ok" for task in tasks
    ]
    workers = list(engine._workers._idle)
    assert 1 <= len(workers) <= 4
    assert all(w.proc.is_alive() for w in workers)
    engine.close()
    assert [w.proc.exitcode for w in workers] == [0] * len(workers)
