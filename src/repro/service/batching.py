"""Lane dispatcher: many concurrent requests, one engine.

The server handles each HTTP request on its own asyncio task, and a
request whose result is not known must run in one of the
:class:`~repro.evaluation.engine.EvaluationEngine`'s worker processes.
The dispatcher bridges the two worlds:

* :meth:`BatchingDispatcher.submit` answers a task the engine can
  answer without running it — a result-cache hit or a quarantined label,
  via :meth:`~repro.evaluation.engine.EvaluationEngine.probe` — at once;
  any other :class:`~repro.evaluation.engine.EvaluationTask` is queued
  and its :class:`~repro.evaluation.engine.TaskOutcome` awaited;
* at most ``jobs`` lanes (the engine's worker count) run queued tasks,
  each one ``engine.run_isolated`` call of one task at a time on a
  thread of its own, and a lane that finishes a task takes the next
  queued one at once: no task waits for a window or for a batch to fill;
* requests whose tasks share a cache key **coalesce**: the first one
  queues the engine task, later arrivals await the same future. With
  ``asyncio.shield`` around the shared future, one client cancelling
  (disconnecting) never cancels the underlying work or poisons the
  siblings awaiting the same result.

``run_isolated`` reports per-task failures as outcome statuses instead
of raising, so a crashing task fails *its* requests with a structured
error while the other lanes carry on — the crash isolation, retries
and quarantine from the hardened engine apply per-request for free.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.evaluation.engine import EvaluationEngine, EvaluationTask, TaskOutcome
from repro.observability.metrics import inc
from repro.observability.spans import span
from repro.utils.errors import ServiceUnavailableError


@dataclass
class DispatcherStats:
    """Monotonic counters exposed via ``/v1/healthz``."""

    requests: int = 0  # submit() calls
    coalesced: int = 0  # submits served by an already-inflight task
    batches: int = 0  # engine.run_isolated invocations, one task each
    tasks: int = 0  # unique engine tasks dispatched
    failures: int = 0  # outcomes with a non-ok status

    def to_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "tasks": self.tasks,
            "failures": self.failures,
        }


@dataclass
class _Pending:
    """One unique engine task, queued or running in a lane."""

    task: EvaluationTask
    key: str
    future: asyncio.Future = field(default_factory=asyncio.Future)


class BatchingDispatcher:
    """Run concurrent evaluation requests on the engine's lanes.

    Must be started (and closed) on the event loop it serves:
    ``await dispatcher.start()`` / ``await dispatcher.close()``. Tasks
    submitted before ``start`` wait in the queue.
    """

    def __init__(self, engine: EvaluationEngine):
        self.engine = engine
        self.lanes = engine.config.jobs
        self.stats = DispatcherStats()
        self._inflight: dict[str, _Pending] = {}  # queued or running, by key
        self._queue: deque[_Pending] = deque()
        self._running: set[asyncio.Task] = set()
        self._started = False
        self._closed = False
        # One thread per lane: it blocks in run_isolated while the task
        # runs in a worker process.
        self._executor = ThreadPoolExecutor(
            max_workers=self.lanes, thread_name_prefix="sieve-service-lane"
        )

    async def start(self) -> None:
        self._started = True
        self._open_lanes()

    async def submit(self, task: EvaluationTask, key: str | None = None) -> TaskOutcome:
        """Answer ``task`` from the engine's probe, or queue it and await it.

        ``key`` is the task's cache key, when the caller already has it.
        Identical concurrent tasks (same content-addressed cache key)
        share one engine execution; a task that is not in flight and that
        the engine answers without running (a cache hit, a quarantined
        label) returns at once, without taking a lane. A miss is probed
        again by ``run_isolated`` in its lane. Cancellation of this
        coroutine abandons *this* waiter only — the shared work keeps
        running for the siblings.
        """
        if self._closed:
            raise ServiceUnavailableError("service is shutting down")
        self.stats.requests += 1
        if key is None:
            key = task.cache_key()
        pending = self._inflight.get(key)
        if pending is not None:
            self.stats.coalesced += 1
            inc("service.coalesced")
        else:
            outcome = self.engine.probe(task, key)
            if outcome is not None:
                self._count(outcome)
                return outcome
            pending = _Pending(task=task, key=key)
            self._inflight[key] = pending
            self._queue.append(pending)
            self._open_lanes()
        return await asyncio.shield(pending.future)

    async def close(self) -> None:
        """Stop the lanes and fail every request still waiting."""
        self._closed = True
        lanes = list(self._running)
        for lane in lanes:
            lane.cancel()
        await asyncio.gather(*lanes, return_exceptions=True)
        for pending in self._inflight.values():
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceUnavailableError(
                        "service shut down before the task finished",
                        workload=pending.task.label,
                    )
                )
        self._queue.clear()
        self._inflight.clear()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------ internals

    def _open_lanes(self) -> None:
        """Start a lane for each queued task while fewer than ``lanes`` run."""
        if not self._started or self._closed:
            return
        for _ in range(min(len(self._queue), self.lanes - len(self._running))):
            self._running.add(asyncio.create_task(self._lane()))

    async def _lane(self) -> None:
        """Run queued tasks one at a time until the queue is empty."""
        loop = asyncio.get_running_loop()
        try:
            while self._queue:
                await self._run(loop, self._queue.popleft())
        finally:
            self._running.discard(asyncio.current_task())

    async def _run(self, loop: asyncio.AbstractEventLoop, pending: _Pending) -> None:
        self.stats.batches += 1
        self.stats.tasks += 1
        try:
            outcome = await loop.run_in_executor(
                self._executor, self._run_isolated, pending.task
            )
        except Exception as exc:  # engine misuse, executor shutdown
            self._finish(pending)
            if not pending.future.done():
                pending.future.set_exception(exc)
            return
        self._count(outcome)
        self._finish(pending)
        if not pending.future.done():
            pending.future.set_result(outcome)

    def _run_isolated(self, task: EvaluationTask) -> TaskOutcome:
        # On the lane's own thread, so its span nests the engine's spans
        # and never interleaves with another lane's on the event loop.
        with span("service.batch", workload=task.label):
            [outcome] = self.engine.run_isolated([task])
        return outcome

    def _count(self, outcome: TaskOutcome) -> None:
        if outcome.status != "ok":
            self.stats.failures += 1
            inc("service.task_failures", status=outcome.status)

    def _finish(self, pending: _Pending) -> None:
        if self._inflight.get(pending.key) is pending:
            del self._inflight[pending.key]
