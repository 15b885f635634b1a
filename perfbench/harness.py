"""Shared run plumbing: the run's directories, child processes, statistics."""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import probe
from perfbench.inputs import Sizes
from perfbench.system import cpu_ticks, unstolen_since

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER = (
    ("workloads.generate_s", "s", "lower"),
    ("gpu.timing_s", "s", "lower"),
    ("gpu.timing_calls", "count", "lower"),
    ("gpu.measure_s", "s", "lower"),
    ("profiling.nvbit_s", "s", "lower"),
    ("profiling.nsight_s", "s", "lower"),
    ("baselines.kmeans_s", "s", "lower"),
    ("baselines.pca_s", "s", "lower"),
    ("baselines.pks_s", "s", "lower"),
    ("core.stratify_s", "s", "lower"),
    ("core.kde_s", "s", "lower"),
    ("core.kde_calls", "count", "lower"),
    ("observability.attribution_s", "s", "lower"),
    ("evaluation.score_s", "s", "lower"),
    ("evaluation.cache_put_s", "s", "lower"),
    ("observability.spans", "count", "lower"),
    ("profiling.reader_s", "s", "lower"),
    ("profiling.reader_rows", "count", "higher"),
    ("streaming.observe_s", "s", "lower"),
    ("streaming.finalize_s", "s", "lower"),
    ("streaming.resident_rows", "count", "lower"),
    ("service.parse_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.batches", "count", "lower"),
    ("service.coalesced_ratio", "ratio", "higher"),
    ("evaluation.isolated_s", "s", "lower"),
    ("evaluation.isolated_attempts", "count", "lower"),
    ("evaluation.isolated_failures", "count", "lower"),
    ("evaluation.cache_get_s", "s", "lower"),
    ("evaluation.cache_hit_ratio", "ratio", "higher"),
    ("core.inline_select_s", "s", "lower"),
    ("service.serialize_s", "s", "lower"),
    ("service.hot_p50_ms", "ms", "lower"),
    ("service.inline_p50_ms", "ms", "lower"),
    ("service.sweep_p50_ms", "ms", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.window_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program answer)."""


@dataclass
class Run:
    """One benchmark invocation: its arguments and its scratch space."""

    root: Path  # checkout root
    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    work: Path  # scratch directory inside the checkout, removed at exit
    expected: dict
    extra_required: tuple[str, ...] = ()
    host: HostSpeed | None = None  # the probe, over the measurements
    _counter: int = 0

    def path(self, stem: str) -> Path:
        self._counter += 1
        return self.work / f"{self._counter:03d}-{stem}"


class HostSpeed:
    """The host speed probe (``perfbench.probe``) running beside a run.

    A timed interval of one process's work (a cold start, a ``scale`` or
    ``stream`` pass) is divided by :meth:`slowdown` over it, so a spell
    in which the host ran the vCPUs slowly is not charged to the program.
    """

    def __init__(self, run: Run):
        self.out = run.path("probe.json")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe", str(self.out)],
            cwd=run.root, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
        )
        self.samples: list | None = None

    def stop(self) -> None:
        """End the probe (it stops when its input closes) and load its samples."""
        if self.samples is not None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        ok = self.proc.returncode == 0 and self.out.exists()
        self.samples = sorted(json.loads(self.out.read_text())) if ok else []

    def slowdown(self, t0: float, t1: float) -> float:
        self.stop()
        if not self.samples:
            raise BenchError(f"the host speed probe exited {self.proc.returncode} without samples")
        return probe.slowdown(self.samples, t0, t1)


@dataclass
class Outcome:
    """What one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)  # human-readable report
    record: dict = field(default_factory=dict)  # samples, digests, steal


def run_child(run: Run, job: dict, timeout_s: float = 170.0) -> dict:
    """Run ``perfbench.child`` on ``job``; returns its result plus the
    spawn time and the cold-start seconds (spawn to ready, less steal)
    as ``spawn`` and ``setup_s``."""
    job_path = run.path(f"{job['workload']}-job.json")
    job["out"] = str(job_path.with_suffix(".out.json"))
    job_path.write_text(json.dumps(job))
    spawn, spawn_ticks = time.monotonic(), cpu_ticks()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", str(job_path)],
        cwd=run.root,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        timeout=timeout_s,
    )
    out = Path(job["out"])
    if not out.exists():
        raise BenchError(f"child exited {proc.returncode} without a result")
    result = json.loads(out.read_text())
    if "ready" in result:
        result["spawn"] = spawn
        result["setup_s"] = (result["ready"] - spawn) * unstolen_since(spawn_ticks, result["ready_ticks"])
    return result


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def plural(n: int, word: str) -> str:
    if n == 1:
        return f"{n} {word}"
    return f"{n} {word}" + ("es" if word.endswith("s") else "s")


def close(a: float, b: float) -> bool:
    """Numeric outputs agree: equal up to floating-point reassociation."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
