"""Parallel, cached evaluation engine.

Every figure/table experiment reduces to the same unit of work: build a
workload context (generate + measure + profile) and run one or both
samplers on it. That unit is a pure function of (resolved workload spec,
sampler configs, fault plan, package source), so this module fans units
out across long-lived supervised worker processes and memoizes their
results in a content-addressed on-disk cache:

* :class:`EvaluationTask` — one picklable, seed-deterministic unit of
  work, with a :meth:`~EvaluationTask.cache_key` derived via
  :func:`repro.utils.hashing.stable_hash`;
* :class:`ResultCache` — the on-disk store (atomic writes, corruption
  tolerance, hit/miss statistics);
* :class:`EvaluationEngine` — scheduling: cache probe, then fan-out over
  at most ``jobs`` workers, where a dying worker costs its task one
  attempt (reported through :mod:`repro.robustness.diagnostics`).

Determinism contract: every stochastic element downstream of a task
(workload generation, measurement noise, k-means init, random selection)
is seeded from string labels via :mod:`repro.utils.seeding`, so
``jobs=1``, ``jobs=N`` and a cache-warm rerun produce *byte-identical*
pickled :class:`~repro.evaluation.runner.MethodResult`\\ s. The property
tests in ``tests/evaluation/test_engine_properties.py`` enforce this.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from multiprocessing import util as mp_util
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import repro
from repro.evaluation.context import build_context
from repro.evaluation.runner import (
    MethodResult,
    evaluate_method,
    evaluate_method_streaming,
)
from repro.methods import MethodRequest, get_method
from repro.observability import manifest as obs_manifest
from repro.observability import metrics, spans
from repro.observability import state as obs_state
from repro.observability.spans import span
from repro.robustness import diagnostics
from repro.robustness.faults import FaultPlan, task_sabotage
from repro.utils.errors import EngineError, TaskCrashError
from repro.utils.hashing import stable_hash, tree_fingerprint
from repro.utils.validation import require
from repro.workloads.catalog import spec_for
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # annotation-only
    from repro.core.types import SampleSelection
    from repro.profiling.table import ProfileTable
    from repro.streaming.base import StreamingSpec

#: Bump when the cached payload layout changes; old entries become misses.
#: 3: MethodResult grew ``attribution`` (and PredictionResult
#: ``contributions``), changing the pickled payload shape.
CACHE_SCHEMA = 3

#: The default method comparison (the paper's headline Sieve-vs-PKS).
KNOWN_METHODS = ("sieve", "pks")

#: Serializes ``ResultCache.stats`` and ``Quarantine`` updates: a server
#: probes the cache on its event loop while its batch thread runs tasks.
#: A forked child gets a fresh lock, since its copy may have been taken
#: while another thread held it.
_bookkeeping = threading.Lock()
os.register_at_fork(after_in_child=_bookkeeping._at_fork_reinit)


def default_cache_dir() -> Path:
    """Resolve the default on-disk cache location.

    ``SIEVE_REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/sieve-repro``,
    then ``~/.cache/sieve-repro``.
    """
    env = os.environ.get("SIEVE_REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "sieve-repro"


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Content hash of the installed ``repro`` package source.

    Folded into every cache key so editing any module invalidates stale
    results even when ``repro.__version__`` is unchanged.
    """
    return tree_fingerprint(Path(repro.__file__).resolve().parent)


@dataclass(frozen=True)
class EvaluationTask:
    """One unit of work: evaluate the requested methods on one workload.

    Tasks are frozen, hashable and picklable; workers resolve the label
    through the catalog and rebuild the context from seeds, so shipping a
    task to another process ships *no* bulk data — except a table task,
    which carries its table.

    ``methods`` accepts registry names (``"sieve"``) and/or
    :class:`~repro.methods.MethodRequest`\\ s; plain names are normalized
    into requests at construction. Every requested method must resolve in
    the registry — construction and :meth:`cache_key` both raise a typed
    :class:`~repro.utils.errors.UnknownMethodError` otherwise, so a task
    can never mint a cache key for a method that cannot run.
    """

    label: str
    max_invocations: int | None = None
    fault_plan: FaultPlan | None = None
    methods: tuple[str | MethodRequest, ...] = KNOWN_METHODS
    #: Inline workload spec for labels *not* in the catalog (fuzz
    #: candidates). When set, its ``label`` must equal ``label`` and it
    #: replaces the catalog lookup in both execution and cache keying.
    spec: WorkloadSpec | None = None
    #: A profile table shipped by value (an uploaded profile). A table
    #: task is select-only: its one method selects from the table through
    #: :func:`repro.service.protocol.select_inline`, and its result is
    #: the :class:`~repro.core.types.SampleSelection`. The table's
    #: :meth:`~repro.profiling.table.ProfileTable.digest` replaces the
    #: spec in the cache key. Left out of equality and hashing, which a
    #: table of arrays does not support; callers derive ``label`` from the
    #: digest instead.
    table: ProfileTable | None = field(default=None, compare=False)
    #: When set, each method consumes the profile through its
    #: ``begin_stream`` surface in ``chunk_rows`` slices (optionally with
    #: a bounded per-kernel reservoir) instead of one batch ``select``.
    #: Folded into the cache key: a streamed result never aliases a batch
    #: one, even though unbounded streams are byte-identical by contract.
    streaming: StreamingSpec | None = None

    def __post_init__(self) -> None:
        require(len(self.methods) >= 1, "task must request a method", EngineError)
        if self.spec is not None:
            require(
                self.spec.label == self.label,
                f"inline spec label {self.spec.label!r} does not match "
                f"task label {self.label!r}",
                EngineError,
            )
        if self.table is not None:
            require(
                self.spec is None
                and self.max_invocations is None
                and self.fault_plan is None
                and self.streaming is None
                and len(self.methods) == 1,
                "a table task selects with one method, and carries no spec, "
                "cap, fault plan or streaming spec",
                EngineError,
            )
        requests = tuple(
            entry if isinstance(entry, MethodRequest) else MethodRequest(method=entry)
            for entry in self.methods
        )
        keys = [request.key for request in requests]
        require(
            len(set(keys)) == len(keys),
            f"duplicate method keys in task: {keys} (alias repeated requests)",
            EngineError,
        )
        # Fail loudly now: resolve every name and type-check its config.
        for request in requests:
            get_method(request.method).resolve_config(request.config)
        # Normalize in place (frozen dataclass), so a task built from names
        # hashes identically to one built from explicit requests.
        object.__setattr__(self, "methods", requests)

    def cache_key(self) -> str:
        """Content-addressed identity of this task's result.

        Key material: schema version, package version, package source
        fingerprint, the *resolved* workload spec (so catalog
        recalibration invalidates) or a table's content digest, the
        invocation cap, the fault plan and every method request (registry
        name + full config), so two tasks differing only in a method's
        config never collide.

        Raises :class:`~repro.utils.errors.UnknownMethodError` if any
        requested method is no longer registered.
        """
        for request in self.methods:
            get_method(request.method)  # typed failure before hashing
        if self.table is not None:
            workload_identity: object = ("profile-table", self.table.digest())
        elif self.spec is not None:
            workload_identity = self.spec
        else:
            workload_identity = spec_for(self.label)
        return stable_hash(
            "evaluation-task",
            CACHE_SCHEMA,
            repro.__version__,
            source_fingerprint(),
            workload_identity,
            self.max_invocations,
            self.fault_plan,
            list(self.methods),
            self.streaming,
        )


def run_task(task: EvaluationTask) -> dict[str, MethodResult | SampleSelection]:
    """Execute one task in the current process.

    What the workers run, and :meth:`EvaluationEngine.run` at one lane:
    independent of all engine state, so every lane shares one code path.

    The result keys are interned. Pickle writes a string once per object,
    so a key that *is* its result's ``method`` string pickles shorter than
    an equal copy; a task unpickled in a worker carries copies, and
    without interning its results would pickle differently from the same
    results computed in-process.
    """
    def evaluate(context) -> dict[str, MethodResult]:
        if task.streaming is not None:
            return {
                sys.intern(request.key): evaluate_method_streaming(
                    request.method,
                    context,
                    request.config,
                    chunk_rows=task.streaming.chunk_rows,
                    reservoir_rows=task.streaming.reservoir_rows,
                )
                for request in task.methods
            }
        return {
            sys.intern(request.key): evaluate_method(
                request.method, context, request.config
            )
            for request in task.methods
        }

    with span("engine.task", workload=task.label):
        if task.table is not None:
            return _select_from_table(task)
        return evaluate(
            build_context(
                task.label,
                task.max_invocations,
                fault_plan=task.fault_plan,
                spec=task.spec,
            )
        )


def _select_from_table(task: EvaluationTask) -> dict[str, SampleSelection]:
    """A table task's one result: the selection the service's
    ``protocol.select_inline`` makes. It is looked up on its module at call
    time, so a wrapper installed there before the workers fork runs in
    them too."""
    from repro.service import protocol  # that package imports this module

    [request] = task.methods
    inline = protocol.EvaluationRequest(
        kind="select",
        method=request.method,
        workload=None,
        cap=None,
        config=request.config,
        fault_plan=None,
        table=task.table,
    )
    return {sys.intern(request.key): protocol.select_inline(inline)}


def run_task_with_telemetry(
    task: EvaluationTask,
) -> tuple[dict[str, MethodResult], tuple, dict, tuple]:
    """Worker: run a task and ship its telemetry back to the parent.

    The worker's span records, metrics registry and event list are reset
    at task start (the fork inherited the parent's — counting that twice
    would corrupt the merge), so the returned snapshot is exactly this
    task's delta. Live sinks are also dropped: they wrap parent-owned
    file handles, and a forked worker emitting into them would interleave
    with the parent's stream. The parent adopts spans under its fan-out
    span and merges metric snapshots and events in task input order,
    which keeps the merged telemetry byte-equal to a one-lane run's.
    """
    spans.reset()
    spans.clear_sinks()
    metrics.get_registry().reset()
    obs_manifest.reset_events()
    results = run_task(task)
    return (
        results,
        spans.records(),
        metrics.get_registry().snapshot(),
        obs_manifest.events(),
    )


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # corrupt/stale entries dropped and recomputed

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.invalid} invalid"
        )


class ResultCache:
    """Content-addressed on-disk store for task results.

    Entries live at ``<dir>/<key[:2]>/<key>.pkl`` (fanned out so huge
    caches do not create million-entry directories). Writes go through a
    temp file + ``os.replace`` so a crashed run never leaves a torn
    entry; unreadable or schema-mismatched entries are treated as misses
    and deleted, with a diagnostic, never as errors.
    """

    def __init__(
        self,
        directory: Path | None = None,
        on_invalid: Callable[[str], None] | None = None,
    ):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.stats = CacheStats()
        #: Invoked with the cache *key* whenever an entry is dropped as
        #: corrupt/stale — the engine wires this to the quarantine's
        #: strike counter so repeatedly-poisoned keys stop being rewritten.
        self.on_invalid = on_invalid
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise EngineError(
                f"cannot create cache directory {self.directory}: {exc}"
            ) from exc

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> dict[str, MethodResult] | None:
        path = self.path_for(key)
        try:
            payload = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            with _bookkeeping:
                self.stats.misses += 1
            metrics.inc("engine.cache.miss", reason="absent")
            return None
        except Exception as exc:  # torn write, foreign file, pickle drift
            self._drop_invalid(path, f"unreadable ({type(exc).__name__})", "unreadable")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or payload.get("key") != key
        ):
            self._drop_invalid(path, "stale schema or key mismatch", "stale")
            return None
        with _bookkeeping:
            self.stats.hits += 1
        metrics.inc("engine.cache.hit")
        return payload["results"]

    def put(self, key: str, results: dict[str, MethodResult]) -> None:
        path = self.path_for(key)
        payload = {"schema": CACHE_SCHEMA, "key": key, "results": results}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            # A full or read-only disk must not fail the evaluation.
            diagnostics.emit(
                "engine.cache", f"cache write failed for {path.name}: {exc}"
            )
            return
        with _bookkeeping:
            self.stats.writes += 1

    def _drop_invalid(self, path: Path, reason: str, reason_label: str) -> None:
        with _bookkeeping:
            self.stats.invalid += 1
            self.stats.misses += 1
        metrics.inc("engine.cache.miss", reason=reason_label)
        diagnostics.emit("engine.cache", f"dropping cache entry {path.name}: {reason}")
        try:
            path.unlink()
        except OSError:
            pass
        if self.on_invalid is not None:
            self.on_invalid(path.stem)

    def entries(self) -> list[Path]:
        """All entry files currently on disk, sorted."""
        return sorted(self.directory.glob("??/*.pkl"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + bounded-retry knobs for tasks run on the workers.

    ``deadline_s`` is the per-*attempt* wall-clock budget; ``None``
    disables the deadline (the supervisor blocks until the worker
    responds). Backoff between attempt ``k`` and ``k+1`` is
    ``backoff_base_s * backoff_factor**k``.
    """

    max_attempts: int = 3
    deadline_s: float | None = 60.0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1", EngineError)
        require(
            self.deadline_s is None or self.deadline_s > 0,
            "deadline_s must be positive (or None to disable)",
            EngineError,
        )
        require(self.backoff_base_s >= 0, "backoff_base_s must be >= 0", EngineError)
        require(self.backoff_factor >= 1, "backoff_factor must be >= 1", EngineError)

    def backoff(self, attempt: int) -> float:
        """Sleep before retrying after failed attempt ``attempt`` (0-based)."""
        return self.backoff_base_s * self.backoff_factor**attempt


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one task, successful or not.

    ``status`` is one of ``ok`` (results present), ``timeout`` (every
    attempt blew its deadline), ``crash`` (worker process died),
    ``error`` (task raised), or ``quarantined`` (skipped without running
    because earlier campaigns struck it out).
    """

    label: str
    status: str
    results: Mapping[str, MethodResult | SampleSelection] | None = None
    attempts: int = 0
    from_cache: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __getitem__(self, method: str) -> MethodResult | SampleSelection:
        if self.results is None:
            raise TaskCrashError(
                f"no results for failed task {self.label!r}",
                status=self.status,
                error=self.error,
            )
        return self.results[method]


class Quarantine:
    """Strike-counting quarantine list for tasks and cache entries.

    Persisted as sorted JSON at ``path`` (memory-only when ``path`` is
    ``None``) so repeated campaign runs remember which task labels and
    cache keys keep failing. An identity reaching ``threshold`` strikes
    is quarantined: ``run_isolated`` skips quarantined tasks outright
    and the engine stops rewriting quarantined cache keys.
    """

    def __init__(self, path: Path | None = None, threshold: int = 2):
        require(threshold >= 1, "quarantine threshold must be >= 1", EngineError)
        self.path = Path(path) if path is not None else None
        self.threshold = threshold
        self.strikes: dict[str, int] = {}
        self._load()

    @staticmethod
    def _entry(kind: str, ident: str) -> str:
        require(
            kind in ("task", "cache"),
            f"unknown quarantine kind {kind!r}",
            EngineError,
        )
        return f"{kind}:{ident}"

    def _load(self) -> None:
        if self.path is None or not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text())
            self.strikes = {str(k): int(v) for k, v in payload["strikes"].items()}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            diagnostics.emit(
                "engine.quarantine",
                f"unreadable quarantine file {self.path}: {exc!r}; starting empty",
            )
            self.strikes = {}

    def _save(self) -> None:
        if self.path is None:
            return
        payload = {"threshold": self.threshold, "strikes": dict(sorted(self.strikes.items()))}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=".tmp-quar-")
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError as exc:
            diagnostics.emit(
                "engine.quarantine", f"cannot persist quarantine: {exc}"
            )

    def strike(self, kind: str, ident: str) -> int:
        """Record one failure; returns the new strike count."""
        entry = self._entry(kind, ident)
        with _bookkeeping:
            count = self.strikes[entry] = self.strikes.get(entry, 0) + 1
            # Saved under the lock, so the file never ends on an older count.
            self._save()
        metrics.inc("engine.quarantine.strikes", kind=kind)
        if count == self.threshold:
            metrics.inc("engine.quarantine.added", kind=kind)
            diagnostics.emit(
                "engine.quarantine",
                f"{kind} {ident!r} quarantined after {count} strikes",
            )
            obs_manifest.record_event(
                "engine.quarantined", target=kind, ident=ident, strikes=count
            )
        return count

    def is_quarantined(self, kind: str, ident: str) -> bool:
        return self.strikes.get(self._entry(kind, ident), 0) >= self.threshold

    def clear(self, kind: str | None = None) -> int:
        """Forget strikes (optionally only one kind); returns entries dropped."""
        with _bookkeeping:
            if kind is None:
                dropped = len(self.strikes)
                self.strikes = {}
            else:
                doomed = [e for e in self.strikes if e.startswith(f"{kind}:")]
                dropped = len(doomed)
                for entry in doomed:
                    del self.strikes[entry]
            self._save()
        return dropped

    def entries(self) -> list[tuple[str, str, int]]:
        """Sorted ``(kind, ident, strikes)`` rows (for CLI/report display)."""
        rows = []
        for entry, count in sorted(self.strikes.items()):
            kind, _, ident = entry.partition(":")
            rows.append((kind, ident, count))
        return rows


#: How often an idle worker checks that its supervisor still exists.
_ORPHAN_CHECK_S = 1.0
#: How long :meth:`_Worker.stop` waits for a worker to exit by itself.
_WORKER_STOP_S = 5.0


def _sabotage(task: EvaluationTask, mode: str | None) -> None:
    """Apply the task-surface sabotage the supervisor chose for an attempt.

    The chaos hooks behind :func:`repro.robustness.faults.task_sabotage`:
    ``hang`` sleeps past any reasonable deadline, ``crash`` kills the
    worker abruptly, ``task_error`` raises. The mode depends only on
    ``(plan.seed, mode, label, attempt)`` — never on scheduling or on
    which worker runs the attempt — so ``jobs=1`` and ``jobs=N``
    campaigns sabotage identically.
    """
    if mode == "hang":
        time.sleep(3600.0)
    elif mode == "crash":
        os._exit(13)
    elif mode == "task_error":
        raise EngineError("injected task fault", workload=task.label)


def _portable(exc: Exception) -> Exception | None:
    """``exc`` if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 — any failure means "send text only"
        return None
    return exc


def _worker_main(conn, parent_pid: int) -> None:
    """Entry point of a long-lived worker process.

    Loops: receive ``(task, sabotage)``, apply the sabotage mode, run the
    task with its own telemetry (:func:`run_task_with_telemetry` resets
    spans, sinks, metrics and events per task) and send the result back;
    a raised ``Exception`` goes back as text, plus itself if it pickles.
    The context LRU survives between tasks, which is the point of keeping
    the worker. ``None`` — or the supervisor's process going away — ends
    the loop, and the worker *returns* from its target, so multiprocessing
    runs the process's exit finalizers; a killed worker would skip them.
    A task that raises anything but an ``Exception`` (a ``SystemExit``
    from a method, say) ends the worker without a reply, so the supervisor
    charges that task the crash rather than checking in a dying worker.
    SIGINT is ignored: a terminal's Ctrl-C reaches the whole process
    group, and the supervisor, not the signal, decides when workers stop.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            while not conn.poll(_ORPHAN_CHECK_S):
                if os.getppid() != parent_pid:
                    return
            message = conn.recv()
        except (EOFError, OSError):
            return  # the supervisor is gone
        if message is None:
            return
        task, mode = message
        try:
            _sabotage(task, mode)
            conn.send(("ok", run_task_with_telemetry(task)))
        except Exception as exc:  # ship the task's failure to the supervisor
            try:
                conn.send(("error", (f"{type(exc).__name__}: {exc}", _portable(exc))))
            except OSError:
                return  # the supervisor is gone


class _Worker:
    """One long-lived worker process and the supervisor's end of its pipe."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, args=(child, os.getpid()), daemon=True
        )
        _start_on_plain_thread(self.proc)
        child.close()

    def take(self, message: tuple) -> None:
        """Send ``message``; a worker that cannot take it is discarded."""
        try:
            self.conn.send(message)
        except BaseException:
            self.discard()
            raise

    def stop(self) -> None:
        """Ask the worker to exit and join it; only a stuck one is killed."""
        try:
            self.conn.send(None)
        except OSError:
            pass  # already gone
        self.discard(_WORKER_STOP_S)

    def discard(self, join_s: float = 0.0) -> None:
        """Close the pipe, wait up to ``join_s`` for an exit, then reap."""
        self.conn.close()
        if join_s:
            self.proc.join(join_s)
        if self.proc.is_alive():
            _reap(self.proc)
        else:
            self.proc.join()


def _start_on_plain_thread(proc: multiprocessing.Process) -> None:
    """``proc.start()`` on a short-lived plain thread; re-raises its error.

    A child forked from a ``concurrent.futures`` thread (a supervisor, the
    service's batch thread) inherits that executor's exit hook, which
    joins the forking thread — the child's only thread — and fails, so
    the worker would exit with code 1 after a clean stop. A plain thread
    is not in the executor's registry.
    """
    errors: list[BaseException] = []

    def start() -> None:
        try:
            proc.start()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    starter = threading.Thread(target=start, name="sieve-worker-fork")
    starter.start()
    starter.join()
    if errors:
        raise errors[0]


def _reap(proc: multiprocessing.Process) -> None:
    """Terminate, then kill, a stuck child; always joins."""
    proc.terminate()
    proc.join(2.0)
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)


class _WorkerPool:
    """The long-lived workers behind both of the engine's entry points.

    Workers are forked on demand and returned to an idle list of at most
    ``size`` (the engine's ``jobs``) after each attempt, so a later task
    finds the contexts an earlier one built. Forking happens under the
    lock: a worker forked while another's pipe is half set up would hold
    that pipe's child end, and a crash of the other would then read as a
    timeout instead of an ``EOFError``. Busy workers are kept with their
    fan-out's stop event, for :meth:`interrupt`.
    """

    def __init__(self, size: int):
        self.size = size
        self._idle: list[_Worker] = []
        self._busy: dict[_Worker, threading.Event] = {}
        self._lock = threading.Lock()
        self._closed = False

    def attempt(
        self,
        task: EvaluationTask,
        sabotage: str | None,
        deadline_s: float | None,
        stop: threading.Event,
    ) -> tuple[str, object]:
        """Run one attempt in a worker under a deadline.

        Returns ``(status, payload)`` where status is ``ok`` (payload is
        the telemetry tuple from :func:`run_task_with_telemetry`),
        ``error`` (payload is the worker's ``(text, exception)``),
        ``timeout`` or ``crash`` (payload is a description). A timeout
        kills the worker and a crash loses it; either way the next
        attempt gets a fresh one. The pipe is a socket pair, so a worker
        that dies before reading the task resets the connection rather
        than closing it: that too is a crash.
        """
        worker = self._send((task, sabotage), stop)
        try:
            reply = worker.conn.recv() if worker.conn.poll(deadline_s) else None
        except (EOFError, OSError):
            self._drop(worker, 5.0)
            return ("crash", f"worker died without result (exitcode={worker.proc.exitcode})")
        except BaseException:
            self._drop(worker)
            raise
        if reply is None:
            self._drop(worker)
            return ("timeout", f"no result within {deadline_s}s deadline")
        self._checkin(worker)
        return reply

    def interrupt(self, stop: threading.Event) -> None:
        """Kill ``stop``'s busy workers, and any it sends to later; their
        supervisors see a crash and reap them."""
        with self._lock:
            stop.set()
            for worker, owner in self._busy.items():
                if owner is stop:
                    worker.proc.kill()

    def _send(self, message: tuple, stop: threading.Event) -> _Worker:
        """A worker that has taken ``message``, busy on ``stop``'s fan-out.

        An idle worker that died since its last task shows up dead at
        checkout or as a broken pipe on send; either way a fresh worker
        takes the message and the attempt is not charged.
        """
        worker = self._checkout(fresh=False)
        try:
            worker.take(message)
        except OSError:
            worker = self._checkout(fresh=True)
            worker.take(message)
        with self._lock:
            self._busy[worker] = stop
            if stop.is_set():  # stopped while the message was on its way
                worker.proc.kill()
        return worker

    def _checkout(self, fresh: bool) -> _Worker:
        with self._lock:
            while self._idle and not fresh:
                worker = self._idle.pop()
                if worker.proc.is_alive():
                    return worker
                worker.discard()
            return _Worker()

    def _checkin(self, worker: _Worker) -> None:
        with self._lock:
            del self._busy[worker]
            if not self._closed and len(self._idle) < self.size:
                self._idle.append(worker)
                return
        worker.stop()

    def _drop(self, worker: _Worker, join_s: float = 0.0) -> None:
        with self._lock:
            del self._busy[worker]
        worker.discard(join_s)

    def close(self) -> None:
        """Stop every idle worker; one still busy stops when checked in."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.stop()


def _run_with_retries(
    workers: _WorkerPool,
    task: EvaluationTask,
    policy: RetryPolicy,
    stop: threading.Event,
    isolated: bool,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[TaskOutcome, tuple | None]:
    """Drive one task through supervised attempts with backoff.

    Returns the outcome plus the worker telemetry tuple for successful
    attempts (``None`` on failure); the caller merges telemetry in task
    input order so parallel campaigns stay deterministic. ``isolated``
    is :meth:`EvaluationEngine.run_isolated`'s contract: the fault plan
    sabotages attempts, and a raised error is retried and reported.
    Otherwise (:meth:`EvaluationEngine.run`) a raised error is raised
    here, unretried, and so is a crash on every attempt.
    """
    status, payload = "error", "never attempted"
    for attempt in range(policy.max_attempts):
        sabotage = None
        if isolated and task.fault_plan is not None:
            sabotage = task_sabotage(task.fault_plan, task.label, attempt)
        with span("engine.attempt", workload=task.label, attempt=attempt):
            status, payload = workers.attempt(task, sabotage, policy.deadline_s, stop)
        if status == "ok":
            results = payload[0]
            return (
                TaskOutcome(task.label, "ok", results, attempts=attempt + 1),
                payload,
            )
        if status == "error":
            payload, exc = payload
            if not isolated:
                raise exc if exc is not None else TaskCrashError(payload, workload=task.label)
        if stop.is_set():
            break  # the fan-out was stopped: neither retry nor report
        metrics.inc("engine.isolated.attempt_failures", reason=status)
        diagnostics.emit(
            "engine.isolated",
            f"attempt {attempt + 1}/{policy.max_attempts} for {task.label} "
            f"failed ({status}): {payload}",
        )
        if attempt + 1 < policy.max_attempts:
            sleep(policy.backoff(attempt))
    if not isolated:
        raise TaskCrashError(f"worker died on every attempt: {payload}", workload=task.label)
    return (
        TaskOutcome(
            task.label,
            status,
            None,
            attempts=policy.max_attempts,
            error=str(payload),
        ),
        None,
    )


def _adopt(telemetry: tuple, parent_id: int) -> None:
    """Merge one worker task's telemetry under the fan-out span."""
    if not obs_state.enabled():
        return
    _, worker_spans, snapshot, worker_events = telemetry
    spans.adopt(worker_spans, parent_id=parent_id, proc="worker")
    metrics.get_registry().merge(snapshot)
    obs_manifest.extend_events(worker_events)


@dataclass(frozen=True)
class EngineConfig:
    """Tunable parameters of the evaluation engine."""

    jobs: int = 1
    use_cache: bool = True
    cache_dir: Path | None = None  # None -> default_cache_dir()
    #: Where the quarantine list persists. ``None`` puts it next to the
    #: cache (``<cache_dir>/quarantine.json``) when caching is on, else
    #: keeps it in memory for the engine's lifetime.
    quarantine_path: Path | None = None
    #: Failures before a task label / cache key is quarantined.
    quarantine_threshold: int = 2
    #: Deadline + retry schedule of the workers; ``run`` drops the deadline.
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        require(self.jobs >= 1, "jobs must be >= 1", EngineError)
        require(
            self.quarantine_threshold >= 1,
            "quarantine_threshold must be >= 1",
            EngineError,
        )


class EvaluationEngine:
    """Schedule evaluation tasks across the cache and long-lived workers.

    Both entry points return :class:`TaskOutcome`\\ s in input order
    regardless of completion order, cache state or worker count, and fan
    out over the same ``jobs`` workers; the one-lane path (``jobs=1``) and
    the default ``EngineConfig(jobs=1, use_cache=False)`` reproduce the
    historical single-process behaviour exactly.
    """

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.cache = (
            ResultCache(self.config.cache_dir) if self.config.use_cache else None
        )
        quarantine_path = self.config.quarantine_path
        if quarantine_path is None and self.cache is not None:
            quarantine_path = self.cache.directory / "quarantine.json"
        self.quarantine = Quarantine(
            quarantine_path, threshold=self.config.quarantine_threshold
        )
        if self.cache is not None:
            # A partial, not a lambda over self: no reference cycle, so an
            # engine nobody closed is freed (and its workers stopped) at once.
            self.cache.on_invalid = partial(self.quarantine.strike, "cache")
        self._closed = False
        self._workers = _WorkerPool(self.config.jobs)
        # Stops the workers when an unclosed engine is collected, and at
        # exit ahead of multiprocessing's terminate of daemon children.
        self._stop_workers = mp_util.Finalize(
            self, self._workers.close, exitpriority=10
        )

    @property
    def cache_stats(self) -> CacheStats | None:
        return self.cache.stats if self.cache is not None else None

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the workers.

        Idempotent. Each idle worker is sent a stop message and joined;
        only a stuck one is terminated. Multiprocessing's exit finalizers
        are the backstop; benches and the service also call it (or use the
        engine as a context manager) so long-lived processes do not
        accumulate workers.
        """
        self._closed = True
        self._stop_workers()  # a Finalize runs its callback once

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, tasks: Sequence[EvaluationTask]) -> list[TaskOutcome]:
        """Evaluate every task, probing the cache first.

        Tasks run in the caller at one lane, else on the workers with no
        deadline, quarantine or sabotage. A task's error is raised as it
        was raised; a worker's death costs its task one attempt, and the
        retry policy's last one raises :class:`TaskCrashError`.
        """
        with span("engine.run", tasks=len(tasks)):
            ordered: list[TaskOutcome | None] = [None] * len(tasks)
            pending: list[int] = []
            keys: list[str | None] = [None] * len(tasks)
            with span("engine.cache.probe", tasks=len(tasks)):
                for index, task in enumerate(tasks):
                    if self.cache is not None:
                        keys[index] = task.cache_key()
                        cached = self.cache.get(keys[index])
                        if cached is not None:
                            ordered[index] = TaskOutcome(
                                task.label, "ok", cached, from_cache=True
                            )
                            continue
                    pending.append(index)
            if pending:
                computed = self._execute([tasks[i] for i in pending])
                for index, outcome in zip(pending, computed):
                    ordered[index] = outcome
                    self._cache_put(keys[index], dict(outcome.results))
            return [outcome for outcome in ordered if outcome is not None]

    def _cache_put(self, key: str | None, results: dict[str, MethodResult]) -> None:
        """Write-through, unless the key's entries keep coming back corrupt."""
        if self.cache is None or key is None:
            return
        if self.quarantine.is_quarantined("cache", key):
            metrics.inc("engine.cache.quarantine_skips")
            return
        self.cache.put(key, results)

    def _execute(self, tasks: Sequence[EvaluationTask]) -> list[TaskOutcome]:
        jobs = min(self.config.jobs, len(tasks))
        if jobs <= 1:
            return [
                TaskOutcome(task.label, "ok", run_task(task), attempts=1)
                for task in tasks
            ]
        policy = replace(self.config.retry, deadline_s=None)
        with span("engine.pool", jobs=jobs, tasks=len(tasks)) as pool_span:
            attempted = self._supervise(tasks, policy, isolated=False)
            for _, telemetry in attempted:
                _adopt(telemetry, pool_span.span_id)
        return [outcome for outcome, _ in attempted]

    def _supervise(
        self, tasks: Sequence[EvaluationTask], policy: RetryPolicy, isolated: bool
    ) -> list[tuple[TaskOutcome, tuple | None]]:
        """Run tasks on the workers, in input order: ``jobs`` supervisor
        threads, whose attempt spans nest under the caller's open spans,
        or a plain loop at one lane. If the wait is interrupted or a task
        raises, the busy workers are killed, not waited for: they ignore
        SIGINT, and without a deadline a full-scale task runs for minutes.
        """
        stop = threading.Event()
        open_ids = spans.open_spans()

        def supervise(task: EvaluationTask) -> tuple[TaskOutcome, tuple | None]:
            spans.nest_under(open_ids)
            return _run_with_retries(self._workers, task, policy, stop, isolated)

        jobs = min(self.config.jobs, len(tasks))
        if jobs <= 1:
            return [supervise(task) for task in tasks]
        with ThreadPoolExecutor(max_workers=jobs) as supervisors:
            try:
                return list(supervisors.map(supervise, tasks))
            except BaseException:
                self._workers.interrupt(stop)
                raise

    def probe(self, task: EvaluationTask, key: str | None) -> TaskOutcome | None:
        """The outcome :meth:`run_isolated` gives ``task`` without running it.

        ``quarantined`` when the label is struck out (checked first), the
        cached results when ``key`` (the task's :meth:`~EvaluationTask.
        cache_key`, or ``None`` without a cache) has an entry, else
        ``None``: the task must run. The service answers hits with this
        before they reach a batch.
        """
        if self.quarantine.is_quarantined("task", task.label):
            metrics.inc("engine.isolated.quarantine_skips")
            obs_manifest.record_event(
                "engine.task_skipped", workload=task.label, reason="quarantined"
            )
            return TaskOutcome(
                task.label,
                "quarantined",
                attempts=0,
                error="skipped: quarantined task",
            )
        if self.cache is not None and key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return TaskOutcome(
                    task.label, "ok", cached, attempts=0, from_cache=True
                )
        return None

    def run_isolated(
        self,
        tasks: Sequence[EvaluationTask],
        policy: RetryPolicy | None = None,
    ) -> list[TaskOutcome]:
        """Evaluate tasks with per-task crash isolation and deadlines.

        Each pending task runs in one of at most ``jobs`` long-lived
        worker processes, even at one lane: a hang costs one deadline, a
        crash or a raised error one attempt, and neither aborts the batch
        (contrast :meth:`run`, which raises a task's error). The task's
        fault plan may sabotage each attempt. Failed tasks earn quarantine
        strikes; quarantined tasks are skipped outright. Outcomes come
        back in input order, cache-warm where possible, and worker
        telemetry is merged in input order so ``jobs=1`` and ``jobs=N``
        produce byte-identical surviving results and aggregates.
        """
        policy = policy or self.config.retry
        with span("engine.run_isolated", tasks=len(tasks)) as iso_span:
            ordered: list[TaskOutcome | None] = [None] * len(tasks)
            keys: list[str | None] = [None] * len(tasks)
            pending: list[int] = []
            for index, task in enumerate(tasks):
                if self.cache is not None:
                    keys[index] = task.cache_key()
                ordered[index] = self.probe(task, keys[index])
                if ordered[index] is None:
                    pending.append(index)
            if pending:
                attempted = self._supervise(
                    [tasks[i] for i in pending], policy, isolated=True
                )
                for index, (outcome, telemetry) in zip(pending, attempted):
                    ordered[index] = outcome
                    if outcome.ok:
                        self._cache_put(keys[index], dict(outcome.results))
                        _adopt(telemetry, iso_span.span_id)
                    else:
                        metrics.inc("engine.isolated.failures", status=outcome.status)
                        obs_manifest.record_event(
                            "engine.task_failed",
                            workload=outcome.label,
                            status=outcome.status,
                            attempts=outcome.attempts,
                            error=outcome.error,
                        )
                        self.quarantine.strike("task", outcome.label)
            return [outcome for outcome in ordered if outcome is not None]
