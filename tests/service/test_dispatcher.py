"""Dispatcher concurrency: lanes, coalescing, crash isolation, cancellation.

These run against a stub engine (instant, scripted outcomes) so the
dispatch semantics are tested without evaluation cost; the live-engine
end of the same contract is covered in ``test_server.py``.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
    TaskOutcome,
)
from repro.service.batching import BatchingDispatcher
from repro.utils.errors import ServiceUnavailableError


class StubEngine:
    """Scripted engine: records batches, optionally blocks, never raises."""

    def __init__(
        self, fail_labels=(), release: threading.Event | None = None, jobs: int = 1
    ):
        self.config = EngineConfig(jobs=jobs)
        self.batches: list[list[EvaluationTask]] = []
        self.fail_labels = set(fail_labels)
        self.release = release

    def probe(self, task, key):
        return None  # every task is a miss

    def run_isolated(self, tasks, policy=None):
        if self.release is not None:
            assert self.release.wait(timeout=30)
        self.batches.append(list(tasks))
        return [
            TaskOutcome(
                label=task.label,
                status="crash" if task.label in self.fail_labels else "ok",
                results=None if task.label in self.fail_labels else {},
                attempts=1,
                error="boom" if task.label in self.fail_labels else None,
            )
            for task in tasks
        ]


def task_for(label: str, cap: int = 100) -> EvaluationTask:
    return EvaluationTask(label=label, max_invocations=cap, methods=("periodic",))


def run(coroutine):
    return asyncio.run(coroutine)


def test_identical_requests_coalesce_to_one_engine_task():
    async def main():
        engine = StubEngine()
        dispatcher = BatchingDispatcher(engine)
        outcomes = await asyncio.gather(
            *[dispatcher.submit(task_for("rodinia/nw")) for _ in range(6)]
        )
        await dispatcher.close()
        return engine, dispatcher, outcomes

    engine, dispatcher, outcomes = run(main())
    assert len(engine.batches) == 1 and len(engine.batches[0]) == 1
    assert dispatcher.stats.requests == 6
    assert dispatcher.stats.coalesced == 5
    assert dispatcher.stats.batches == 1
    assert all(outcome is outcomes[0] for outcome in outcomes)


def test_distinct_requests_each_run_as_one_engine_task():
    async def main():
        engine = StubEngine()
        dispatcher = BatchingDispatcher(engine)
        labels = ["rodinia/nw", "rodinia/lud", "rodinia/srad"]
        outcomes = await asyncio.gather(
            *[dispatcher.submit(task_for(label)) for label in labels]
        )
        await dispatcher.close()
        return engine, dispatcher, outcomes, labels

    engine, dispatcher, outcomes, labels = run(main())
    # One lane takes the queue in arrival order, one task per call.
    assert [[task.label for task in batch] for batch in engine.batches] == [
        [label] for label in labels
    ]
    assert [outcome.label for outcome in outcomes] == labels
    assert dispatcher.stats.batches == 3


def test_each_unique_key_runs_once_across_lanes():
    async def main():
        engine = StubEngine(jobs=2)
        dispatcher = BatchingDispatcher(engine)
        # Five requests, three keys: a label and cap make one key.
        requests = [("rodinia/nw", 50), ("rodinia/lud", 51), ("rodinia/nw", 50),
                    ("rodinia/srad", 52), ("rodinia/lud", 51)]
        outcomes = await asyncio.gather(
            *[dispatcher.submit(task_for(label, cap=cap)) for label, cap in requests]
        )
        await dispatcher.close()
        return engine, dispatcher, outcomes

    engine, dispatcher, outcomes = run(main())
    assert all(len(batch) == 1 for batch in engine.batches)
    assert sorted((b[0].label, b[0].max_invocations) for b in engine.batches) == [
        ("rodinia/lud", 51), ("rodinia/nw", 50), ("rodinia/srad", 52),
    ]
    assert outcomes[2] is outcomes[0] and outcomes[4] is outcomes[1]
    assert (dispatcher.stats.requests, dispatcher.stats.coalesced) == (5, 2)
    assert dispatcher.stats.batches == 3


def test_crashing_task_fails_only_its_own_requests():
    async def main():
        engine = StubEngine(fail_labels={"rodinia/lud"})
        dispatcher = BatchingDispatcher(engine)
        crash, ok = await asyncio.gather(
            dispatcher.submit(task_for("rodinia/lud")),
            dispatcher.submit(task_for("rodinia/nw")),
        )
        await dispatcher.close()
        return dispatcher, crash, ok

    dispatcher, crash, ok = run(main())
    assert crash.status == "crash" and crash.error == "boom"
    assert ok.status == "ok"
    assert dispatcher.stats.failures == 1


def test_cancelled_waiter_does_not_poison_siblings():
    async def main():
        release = threading.Event()
        engine = StubEngine(release=release)
        dispatcher = BatchingDispatcher(engine)
        first = asyncio.create_task(dispatcher.submit(task_for("rodinia/nw")))
        second = asyncio.create_task(dispatcher.submit(task_for("rodinia/nw")))
        other = asyncio.create_task(dispatcher.submit(task_for("rodinia/lud")))
        await asyncio.sleep(0.05)  # batch is in flight, blocked on release
        first.cancel()
        with pytest.raises(asyncio.CancelledError):
            await first
        release.set()
        second_outcome = await second
        other_outcome = await other
        await dispatcher.close()
        return second_outcome, other_outcome

    second_outcome, other_outcome = run(main())
    assert second_outcome.status == "ok"
    assert second_outcome.label == "rodinia/nw"
    assert other_outcome.status == "ok"


def test_close_fails_queued_requests_and_rejects_new_ones():
    async def main():
        # The one lane is busy, so the second submission stays queued.
        engine = GatedEngine(jobs=1)
        dispatcher = BatchingDispatcher(engine)
        running = asyncio.create_task(dispatcher.submit(task_for("rodinia/srad")))
        await until(lambda: engine.entered == ["rodinia/srad"])
        waiter = asyncio.create_task(dispatcher.submit(task_for("rodinia/nw")))
        await asyncio.sleep(0.01)
        closing = asyncio.create_task(dispatcher.close())
        with pytest.raises(ServiceUnavailableError):
            await waiter
        engine.gate("rodinia/srad").set()
        await closing  # waits for the running task
        assert (await running).ok
        with pytest.raises(ServiceUnavailableError):
            await dispatcher.submit(task_for("rodinia/lud"))
        return engine

    engine = run(main())
    assert engine.entered == ["rodinia/srad"]


class GatedEngine(StubEngine):
    """Each task waits inside ``run_isolated`` until its label is opened."""

    def __init__(self, jobs: int):
        super().__init__(jobs=jobs)
        self.entered: list[str] = []
        self.gates: dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    def gate(self, label: str) -> threading.Event:
        with self._lock:
            return self.gates.setdefault(label, threading.Event())

    def run_isolated(self, tasks, policy=None):
        [task] = tasks
        with self._lock:
            self.entered.append(task.label)
        assert self.gate(task.label).wait(timeout=30)
        return super().run_isolated(tasks, policy)


async def until(condition, timeout_s: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def test_two_lanes_run_two_misses_at_once_and_a_third_when_one_frees():
    labels = ["rodinia/nw", "rodinia/lud", "rodinia/srad"]

    async def main():
        engine = GatedEngine(jobs=2)
        dispatcher = BatchingDispatcher(engine)
        waiters = [asyncio.create_task(dispatcher.submit(task_for(label))) for label in labels]
        try:
            # Both lanes are inside run_isolated, neither released yet.
            await until(lambda: len(engine.entered) == 2)
            await asyncio.sleep(0.1)  # time for a third lane to show, were there one
            both = sorted(engine.entered)
            engine.gate("rodinia/lud").set()
            await waiters[1]
            await until(lambda: len(engine.entered) == 3)
            third = engine.entered[2]
        finally:
            for label in labels:
                engine.gate(label).set()
            outcomes = await asyncio.gather(*waiters)
            await dispatcher.close()
        return both, third, outcomes

    both, third, outcomes = run(main())
    assert both == ["rodinia/lud", "rodinia/nw"]
    assert third == "rodinia/srad"
    assert [outcome.label for outcome in outcomes] == labels


# --------------------------------------------------------------------- #
# Answers without a batch: the engine's probe, checked in submit


class ProbedEngine(StubEngine):
    """A real engine's probe in front of the scripted batches."""

    def __init__(self, engine: EvaluationEngine):
        super().__init__()
        self.engine = engine

    def probe(self, task, key):
        return self.engine.probe(task, key)


def cached_engine(tmp_path) -> EvaluationEngine:
    return EvaluationEngine(EngineConfig(cache_dir=tmp_path / "cache"))


def test_cache_hit_returns_without_waiting_for_the_window(tmp_path):
    engine = cached_engine(tmp_path)
    hit = task_for("rodinia/nw")
    engine.cache.put(hit.cache_key(), {"periodic": "cached"})

    async def main():
        stub = ProbedEngine(engine)
        dispatcher = BatchingDispatcher(stub)
        outcome = await asyncio.wait_for(dispatcher.submit(hit), timeout=5.0)
        await dispatcher.close()
        return stub, dispatcher, outcome

    stub, dispatcher, outcome = run(main())
    engine.close()
    assert outcome.ok and outcome.from_cache and outcome.attempts == 0
    assert dict(outcome.results) == {"periodic": "cached"}
    assert stub.batches == []
    assert dispatcher.stats.to_dict() == {
        "requests": 1, "coalesced": 0, "batches": 0, "failures": 0,
    }


def test_quarantined_label_returns_its_outcome_at_once(tmp_path):
    engine = cached_engine(tmp_path)
    for _ in range(engine.quarantine.threshold):
        engine.quarantine.strike("task", "rodinia/lud")

    async def main():
        stub = ProbedEngine(engine)
        dispatcher = BatchingDispatcher(stub)
        outcome = await asyncio.wait_for(
            dispatcher.submit(task_for("rodinia/lud")), timeout=5.0
        )
        await dispatcher.close()
        return stub, dispatcher, outcome

    stub, dispatcher, outcome = run(main())
    engine.close()
    assert outcome.status == "quarantined" and outcome.attempts == 0
    assert stub.batches == []
    assert dispatcher.stats.failures == 1


def test_hits_beside_misses_take_no_lane(tmp_path):
    engine = cached_engine(tmp_path)
    hit = task_for("rodinia/nw")
    engine.cache.put(hit.cache_key(), {"periodic": "cached"})

    async def main():
        stub = ProbedEngine(engine)
        dispatcher = BatchingDispatcher(stub)
        outcomes = await asyncio.gather(
            dispatcher.submit(hit),
            *[dispatcher.submit(task_for("rodinia/lud")) for _ in range(3)],
            dispatcher.submit(task_for("rodinia/srad")),
        )
        await dispatcher.close()
        return stub, dispatcher, outcomes

    stub, dispatcher, outcomes = run(main())
    engine.close()
    assert outcomes[0].from_cache
    assert [o.from_cache for o in outcomes[1:]] == [False] * 4
    # Only the two misses ran, each once; the repeated one coalesced.
    assert [[task.label for task in batch] for batch in stub.batches] == [
        ["rodinia/lud"], ["rodinia/srad"],
    ]
    assert dispatcher.stats.coalesced == 2 and dispatcher.stats.batches == 2
