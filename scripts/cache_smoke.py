"""Cache-correctness smoke check (run in CI).

Runs a reduced-scale Figure 3 experiment twice against one cache
directory and asserts the contract the engine promises:

* the warm (cache-hit) run is at least MIN_SPEEDUP faster than the cold
  run;
* both runs produce byte-identical pickled ``MethodResult``\\ s;
* the warm run served every task from cache (no recomputation);
* no worker process outlives its engine: each run closes its engine,
  which stops the long-lived workers ``--jobs`` > 1 forks, so
  ``multiprocessing.active_children()`` must then be empty.

Usage::

    PYTHONPATH=src python scripts/cache_smoke.py [--jobs N] [--cap N]

Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import argparse
import multiprocessing
import pickle
import sys
import tempfile
import time
from pathlib import Path

from repro.evaluation.engine import EngineConfig, EvaluationEngine
from repro.evaluation.experiments import compare_methods

MIN_SPEEDUP = 5.0


def run_once(cache: Path, jobs: int, cap: int):
    with EvaluationEngine(
        EngineConfig(jobs=jobs, use_cache=True, cache_dir=cache)
    ) as engine:
        start = time.perf_counter()
        rows = compare_methods(max_invocations=cap, engine=engine)
        elapsed = time.perf_counter() - start
    return rows, elapsed, engine.cache_stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cap", type=int, default=2000)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="sieve-cache-smoke-") as tmp:
        cache = Path(tmp)
        cold_rows, cold_time, cold_stats = run_once(cache, args.jobs, args.cap)
        warm_rows, warm_time, warm_stats = run_once(cache, args.jobs, args.cap)
    survivors = multiprocessing.active_children()

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    print(f"cold: {cold_time:.3f}s ({cold_stats.summary()})")
    print(f"warm: {warm_time:.3f}s ({warm_stats.summary()})")
    print(f"warm-cache speedup: {speedup:.1f}x (required >= {MIN_SPEEDUP}x)")
    print(f"child processes alive after close: {len(survivors)}")

    failures = []
    if warm_stats.hits != len(cold_rows) or warm_stats.misses != 0:
        failures.append(
            f"warm run recomputed work: {warm_stats.summary()} over "
            f"{len(cold_rows)} tasks"
        )
    for cold, warm in zip(cold_rows, warm_rows):
        for method in ("sieve", "pks"):
            if pickle.dumps(getattr(cold, method)) != pickle.dumps(
                getattr(warm, method)
            ):
                failures.append(
                    f"{cold.workload} {method}: warm result is not "
                    "byte-identical to cold result"
                )
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"warm run only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x)"
        )
    if survivors:
        failures.append(
            f"{len(survivors)} child process(es) outlived their engine: "
            + ", ".join(f"pid {child.pid}" for child in survivors)
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("cache smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
