"""Outside-in layer timing for the traced run.

:func:`install` wraps the public entry point of each layer, replacing
the attribute where callers look it up: the class attribute for a
method, and for a function every ``repro`` module that bound it by
name. Wrappers keep spans in memory, one list per process; forked
children (compare's pool workers, the service's isolated children)
inherit the wrappers and write their own file when they exit, and the
owning process calls :meth:`Tracer.flush` when its work is done.

A span's *self time* is its duration minus the time its child spans
cover; children may sit in a forked process, because a child inherits
the forking thread's open span as its parent. :func:`layer_table`
splits a timed window among the layers whose self time is running,
``lanes`` at a time, so the rows plus ``unattributed`` sum to the window.

Every wrapper a workload exercises must see at least one call, so a
refactor that moves a call site fails the traced run instead of
silently zeroing a layer (:func:`check_required`).
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path


class TraceError(RuntimeError):
    """The traced run cannot be trusted (a wrapper saw no calls)."""


@dataclass(frozen=True)
class Target:
    layer: str  # metric stem, e.g. "core.kde"
    module: str  # defining module
    attr: str  # "function" or "Class.method"
    kind: str = "call"  # "call" | "iter" (time each next()) | "wait" (async)


TARGETS = (
    Target("workloads.generate", "repro.workloads.generator", "generate"),
    Target("gpu.timing", "repro.gpu.timing", "invocation_timing"),
    Target("gpu.measure", "repro.gpu.hardware", "HardwareExecutor.measure"),
    Target("profiling.nvbit", "repro.profiling.nvbit", "NVBitProfiler.profile"),
    Target("profiling.nsight", "repro.profiling.nsight", "NsightComputeProfiler.profile"),
    Target("baselines.kmeans", "repro.baselines.kmeans", "BisectingKMeans.fit_all"),
    Target("baselines.pca", "repro.baselines.pca", "PCA.fit"),
    Target("baselines.pks", "repro.baselines.pks", "PksPipeline.select"),
    Target("core.stratify", "repro.core.stratify", "stratify_table"),
    Target("core.kde", "repro.core.kde", "kde_strata"),
    Target("observability.attribution", "repro.observability.attribution", "attribute_error"),
    Target("evaluation.score", "repro.evaluation.runner", "evaluate_method"),
    Target("evaluation.cache_put", "repro.evaluation.engine", "ResultCache.put"),
    Target("evaluation.cache_get", "repro.evaluation.engine", "ResultCache.get"),
    Target("evaluation.isolated", "repro.evaluation.engine", "EvaluationEngine.run_isolated"),
    Target("profiling.reader", "repro.profiling.csv_io", "ProfileTableReader.__iter__", "iter"),
    Target("streaming.observe", "repro.streaming.base", "MethodStream.observe"),
    Target("streaming.finalize", "repro.streaming.base", "MethodStream.finalize"),
    Target("service.parse", "repro.service.protocol", "parse_request"),
    Target("core.inline_select", "repro.service.protocol", "select_inline"),
    Target("service.serialize", "repro.service.protocol", "response_body"),
    Target("service.serialize", "repro.service.protocol", "canonical_json"),
    Target("service.submit", "repro.service.batching", "BatchingDispatcher.submit", "wait"),
)

#: Modules that bind a wrapped function by name; imported before
#: patching so their bindings are replaced too.
CALLERS = (
    "repro.evaluation.context",
    "repro.profiling.base",
    "repro.core.pipeline",
    "repro.streaming.stratify",
    "repro.streaming.sieve",
    "repro.methods.builtin",
    "repro.service.server",
)

#: Layers that own self time, in table order (waits are not layers).
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS if t.kind != "wait"))

GROUPS = {
    "context build": (
        "workloads.generate", "gpu.timing", "gpu.measure",
        "profiling.nvbit", "profiling.nsight",
    ),
    "baselines": ("baselines.kmeans", "baselines.pca", "baselines.pks"),
    "sieve core": ("core.stratify", "core.kde", "core.inline_select"),
    "evaluation": (
        "evaluation.score", "observability.attribution", "evaluation.cache_put",
        "evaluation.cache_get", "evaluation.isolated",
    ),
    "stream input": ("profiling.reader", "streaming.observe", "streaming.finalize"),
    "service": ("service.parse", "service.serialize"),
}

_CONTEXT = GROUPS["context build"]
_SCORING = ("observability.attribution", "evaluation.score", "evaluation.cache_put",
            "evaluation.cache_get")

#: Layers each workload must reach; each of their wrappers must fire.
REQUIRED = {
    "compare": (*_CONTEXT, *GROUPS["baselines"], "core.stratify", "core.kde", *_SCORING),
    "scale": (*_CONTEXT, "core.stratify", *_SCORING),
    "stream": ("profiling.reader", "streaming.observe", "streaming.finalize", "core.kde"),
    "serve": (
        *_CONTEXT, "core.stratify", "core.kde", *_SCORING, "evaluation.isolated",
        "service.parse", "service.submit", "core.inline_select", "service.serialize",
    ),
}


def target_key(target: Target) -> str:
    return f"{target.module}:{target.attr}"


class Tracer:
    """In-memory spans, counts and waits of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._tls = threading.local()
        self._reset(forked=False)
        os.register_at_fork(after_in_child=lambda: self._reset(forked=True))

    def _reset(self, forked: bool) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: collections.Counter = collections.Counter()
        self.counts: list[tuple[float, str, float]] = []  # (t, name, value)
        self.waits: list[tuple[float, float, object]] = []  # (t0, t1, task)
        self.batches: list[tuple[float, float, tuple]] = []  # (t0, t1, tasks)
        self.marks: list[float] = []  # window edges noted by mark()
        # A forked child writes its spans at exit; the finalizer is
        # registered on first use, after multiprocessing's bootstrap
        # has cleared the registry it inherited.
        self._needs_finalizer = forked

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        if self._needs_finalizer:
            self._needs_finalizer = False
            mp_util.Finalize(None, self.flush, exitpriority=10)
        stack = self._stack()
        sid = (self.pid << 32) | next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, layer, key, t0) -> float:
        t1 = time.monotonic()
        while stack and stack.pop() != sid:
            pass
        self.spans.append((sid, parent, layer, t0, t1))
        self.calls[key] += 1
        return t1

    def count(self, name: str, value: float, t: float) -> None:
        self.counts.append((t, name, value))

    def mark(self) -> None:
        """Note the time (a window edge). Safe inside a signal handler:
        it takes no lock the interrupted code might hold."""
        self.marks.append(time.monotonic())

    def flush(self, extra: dict | None = None) -> Path:
        """Write this process's trace to ``trace-<pid>.json``."""
        by_task: dict = collections.defaultdict(list)
        for b0, b1, tasks in self.batches:
            for task in tasks:
                by_task[task].append((b0, b1))
        waits = []
        for t0, t1, task in self.waits:
            inside = [b1 - b0 for b0, b1 in by_task.get(task, ()) if b0 >= t0 and b1 <= t1]
            waits.append((t0, t1, (t1 - t0) - (inside[-1] if inside else 0.0)))
        path = self.out_dir / f"trace-{self.pid}.json"
        payload = {
            "pid": self.pid,
            "spans": self.spans,
            "calls": dict(self.calls),
            "counts": self.counts,
            "waits": waits,
            "marks": self.marks,
            "extra": extra or {},
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------ wrappers

    def wrap_call(self, target: Target, fn, after=None):
        layer, key = target.layer, target_key(target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self._close(stack, sid, parent, layer, key, t0)
            if after is not None:
                after(args, result, t0, t1)
            return result

        return traced

    def wrap_iter(self, target: Target, fn):
        layer, key = target.layer, target_key(target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack, sid, parent = self._open()
                    t0 = time.monotonic()
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = self._close(stack, sid, parent, layer, key, t0)
                    self.count("profiling.reader_rows", len(chunk), t1)
                    yield chunk
            finally:
                inner.close()

        return traced

    def wrap_wait(self, target: Target, fn):
        key = target_key(target)

        @functools.wraps(fn)
        async def traced(self_, task, *args, **kwargs):
            self.calls[key] += 1
            t0 = time.monotonic()
            try:
                return await fn(self_, task, *args, **kwargs)
            finally:
                self.waits.append((t0, time.monotonic(), task))

        return traced

    def hook_for(self, target: Target):
        """What a call wrapper records after the call, for targets that count."""
        if target.attr == "MethodStream.observe":
            def after(args, result, t0, t1):
                self.count("streaming.resident_rows", args[0].resident_rows, t1)
            return after
        if target.attr == "EvaluationEngine.run_isolated":
            def after(args, outcomes, t0, t1):
                self.batches.append((t0, t1, tuple(args[1])))
                self.count("evaluation.isolated_attempts", sum(o.attempts for o in outcomes), t1)
            return after
        return None


def install(out_dir: Path) -> Tracer:
    """Wrap every target in this process; returns the process's tracer."""
    tracer = Tracer(out_dir)
    for name in CALLERS:
        importlib.import_module(name)
    for target in TARGETS:
        module = importlib.import_module(target.module)
        owner_name, _, name = target.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, name)
        if target.kind == "iter":
            wrapper = tracer.wrap_iter(target, original)
        elif target.kind == "wait":
            wrapper = tracer.wrap_wait(target, original)
        else:
            wrapper = tracer.wrap_call(target, original, tracer.hook_for(target))
        setattr(owner, name, wrapper)
        if owner_name:
            continue
        for other in list(sys.modules.values()):
            if (
                other is not module
                and getattr(other, "__name__", "").startswith("repro")
                and getattr(other, name, None) is original
            ):
                setattr(other, name, wrapper)
    return tracer


# ------------------------------------------------------------- analysis


def load(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(trace_dir).glob("trace-*.json"))]


def total_calls(processes: list[dict]) -> dict[str, int]:
    """Calls per wrapper, summed over processes."""
    calls: collections.Counter = collections.Counter()
    for proc in processes:
        calls.update(proc["calls"])
    return calls


def check_required(workload: str, calls: dict, extra: tuple[str, ...] = ()) -> None:
    """Raise :class:`TraceError` unless every required wrapper fired."""
    required = set(REQUIRED[workload]) | set(extra)
    unknown = required - {t.layer for t in TARGETS}
    if unknown:
        raise TraceError(f"no wrapper for layer(s): {', '.join(sorted(unknown))}")
    silent = [
        target_key(t) for t in TARGETS
        if t.layer in required and calls.get(target_key(t), 0) == 0
    ]
    if silent:
        raise TraceError(
            f"{workload}: wrapper(s) saw no calls: {', '.join(silent)} "
            "(a call site moved, or the layer no longer runs)"
        )


def _self_intervals(spans: list) -> list[tuple[float, float, str]]:
    children = collections.defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = []
    for sid, _, layer, t0, t1 in spans:
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            if c0 > cursor:
                out.append((cursor, min(c0, t1), layer))
            cursor = max(cursor, c1)
            if cursor >= t1:
                break
        if cursor < t1:
            out.append((cursor, t1, layer))
    return out


def layer_table(spans: list, w0: float, w1: float, lanes: int) -> dict:
    """Split the window [w0, w1] among layers by self time.

    While ``n`` layers run self time at once, each gets ``1/max(lanes, n)``
    of the wall clock and idle lanes go to ``unattributed``; the rows
    plus ``unattributed`` sum to ``w1 - w0`` exactly. Also returns each
    layer's raw self seconds (summed over processes) and its calls.
    """
    events = []
    raw = collections.Counter()
    for a, b, layer in _self_intervals(spans):
        a, b = max(a, w0), min(b, w1)
        if b > a:
            events.append((a, 1, layer))
            events.append((b, -1, layer))
            raw[layer] += b - a
    events.sort(key=lambda e: (e[0], e[1]))
    share = collections.Counter()
    active: collections.Counter = collections.Counter()
    running, unattributed, prev = 0, 0.0, w0
    for t, delta, layer in events:
        dt = t - prev
        if dt > 0:
            if running:
                scale = dt / max(lanes, running)
                for name, n in active.items():
                    if n:
                        share[name] += n * scale
            unattributed += dt * max(0, lanes - running) / lanes
            prev = t
        active[layer] += delta
        running += delta
    unattributed += (w1 - prev) if w1 > prev else 0.0
    calls = collections.Counter(layer for _, _, layer, t0, _ in spans if w0 <= t0 < w1)
    return {
        "window_s": w1 - w0,
        "share": {layer: share.get(layer, 0.0) for layer in LAYERS},
        "raw": {layer: raw.get(layer, 0.0) for layer in LAYERS},
        "calls": {layer: calls.get(layer, 0) for layer in LAYERS},
        "unattributed_s": unattributed,
    }


def merge_tables(tables: list[dict]) -> dict:
    """Sum several windows' tables (one per traced pass)."""
    merged = {"window_s": 0.0, "unattributed_s": 0.0, "share": {}, "raw": {}, "calls": {}}
    for table in tables:
        merged["window_s"] += table["window_s"]
        merged["unattributed_s"] += table["unattributed_s"]
        for part in ("share", "raw", "calls"):
            for layer, value in table[part].items():
                merged[part][layer] = merged[part].get(layer, 0) + value
    return merged


def counts_in(windows: list[tuple[list[dict], float, float]]) -> dict:
    """Counted values inside each ``(processes, w0, w1)`` window, summed
    over windows; high-water marks take the maximum instead."""
    totals: dict[str, float] = collections.defaultdict(float)
    for processes, w0, w1 in windows:
        for proc in processes:
            for t, name, value in proc["counts"]:
                if w0 <= t <= w1:
                    if name == "streaming.resident_rows":
                        totals[name] = max(totals[name], value)
                    else:
                        totals[name] += value
    return totals


def format_table(table: dict, lanes: int) -> str:
    window = table["window_s"]
    lines = [
        f"{'layer':<28}{'window_s':>10}{'share':>8}{'self_s':>10}{'calls':>9}",
    ]
    for layer in LAYERS:
        share = table["share"][layer]
        if share == 0 and table["calls"][layer] == 0:
            continue
        lines.append(
            f"{layer:<28}{share:>10.4f}{share / window:>8.1%}"
            f"{table['raw'][layer]:>10.4f}{table['calls'][layer]:>9d}"
        )
    un = table["unattributed_s"]
    lines.append(f"{'unattributed':<28}{un:>10.4f}{un / window:>8.1%}")
    total = sum(table["share"].values()) + un
    lines.append(f"{'total (= window)':<28}{total:>10.4f}{total / window:>8.1%}")
    lines.append(f"(window {window:.4f} s over {lanes} lane(s); self_s sums all processes)")
    return "\n".join(lines)


def group_shares(table: dict) -> dict[str, float]:
    window = table["window_s"]
    shares = {g: sum(table["share"][l] for l in ls) / window for g, ls in GROUPS.items()}
    shares["unattributed"] = table["unattributed_s"] / window
    return shares
