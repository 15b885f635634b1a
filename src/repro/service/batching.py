"""Lane dispatcher: many concurrent requests, one engine.

The server handles each HTTP request on its own asyncio task, and a
request whose result is not known must run in one of the
:class:`~repro.evaluation.engine.EvaluationEngine`'s worker processes.
The dispatcher bridges the two worlds:

* :meth:`BatchingDispatcher.submit` answers a task the engine can
  answer without running it — a result-cache hit or a quarantined label,
  via :meth:`~repro.evaluation.engine.EvaluationEngine.probe` — at once;
  any other :class:`~repro.evaluation.engine.EvaluationTask` is sent to
  the dispatcher's executor and its
  :class:`~repro.evaluation.engine.TaskOutcome` awaited;
* the executor's ``jobs`` threads (the engine's worker count) are the
  lanes: each runs one ``engine.run_isolated`` call of one task at a
  time, and a thread that finishes a task takes the next queued one at
  once: no task waits for a window or for a batch to fill;
* requests whose tasks share a cache key **coalesce**: the first one
  sends the engine task, later arrivals await the same future. With
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
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.evaluation.engine import EvaluationEngine, EvaluationTask, TaskOutcome
from repro.observability.metrics import inc
from repro.observability.spans import span
from repro.utils.errors import ServiceUnavailableError


@dataclass
class DispatcherStats:
    """Monotonic counters exposed via ``/v1/healthz``."""

    requests: int = 0  # submit() calls
    coalesced: int = 0  # submits served by an already-inflight task
    batches: int = 0  # misses sent to a lane, one run_isolated call each
    failures: int = 0  # outcomes with a non-ok status

    def to_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "failures": self.failures,
        }


class BatchingDispatcher:
    """Run concurrent evaluation requests on the engine's lanes.

    Submit and close on the event loop it serves.
    """

    def __init__(self, engine: EvaluationEngine):
        self.engine = engine
        self.stats = DispatcherStats()
        self._inflight: dict[str, asyncio.Future] = {}  # queued or running, by key
        self._closed = False
        # One thread per lane: it blocks in run_isolated while the task
        # runs in a worker process; its work queue holds the waiting misses.
        self._executor = ThreadPoolExecutor(
            max_workers=engine.config.jobs, thread_name_prefix="sieve-service-lane"
        )

    async def submit(self, task: EvaluationTask, key: str | None = None) -> TaskOutcome:
        """Answer ``task`` from the engine's probe, or run it and await it.

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
        future = self._inflight.get(key)
        if future is not None:
            self.stats.coalesced += 1
            inc("service.coalesced")
        else:
            outcome = self.engine.probe(task, key)
            if outcome is not None:
                self._count(outcome)
                return outcome
            self.stats.batches += 1
            loop = asyncio.get_running_loop()
            future = self._inflight[key] = loop.create_future()
            lane = self._executor.submit(self._run_isolated, task)
            lane.add_done_callback(
                lambda ran: loop.call_soon_threadsafe(self._settle, key, task, ran)
            )
        return await asyncio.shield(future)

    async def close(self) -> None:
        """Drop the queued tasks, failing their requests, and wait for the
        running ones."""
        self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        await asyncio.gather(*self._inflight.values(), return_exceptions=True)

    # ------------------------------------------------------------ internals

    def _run_isolated(self, task: EvaluationTask) -> TaskOutcome:
        # On the lane's own thread, so its span nests the engine's spans
        # and never interleaves with another lane's on the event loop.
        with span("service.batch", workload=task.label):
            [outcome] = self.engine.run_isolated([task])
        return outcome

    def _settle(self, key: str, task: EvaluationTask, ran: Future) -> None:
        """Answer the requests waiting on ``key`` with how its lane ended."""
        future = self._inflight.pop(key)
        if ran.cancelled():  # still queued when close() dropped it
            future.set_exception(
                ServiceUnavailableError(
                    "service shut down before the task started", workload=task.label
                )
            )
        elif ran.exception() is not None:  # engine misuse
            future.set_exception(ran.exception())
        else:
            self._count(ran.result())
            future.set_result(ran.result())

    def _count(self, outcome: TaskOutcome) -> None:
        if outcome.status != "ok":
            self.stats.failures += 1
            inc("service.task_failures", status=outcome.status)
