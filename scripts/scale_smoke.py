"""Scale smoke: cap=100k vectorization gate.

Builds one large synthetic workload (default: 2048 kernels x 100 000
invocations, tier-1/2 heavy so per-kernel bookkeeping rather than the
KDE inner loop dominates), then:

* times the vectorized stratify -> golden-align -> predict path against
  the retained scalar references in :mod:`repro.core.reference` (best of
  ``--repeats`` runs each) and **fails** unless the vectorized path is at
  least ``--min-speedup`` x faster (default 5x, the PR's acceptance
  criterion);
* cross-checks the two implementations produce identical strata, golden
  cycle alignments and predictions on that table, so the speedup number
  can never drift away from the correctness it advertises;
* evaluates Sieve on the fixture in-process for its prediction error;
* when ``SIEVE_BENCH_MANIFEST_DIR`` is set, writes ``BENCH_scale.json``
  (per-stage wall times + deterministic aggregates), auto-recorded into
  the perf store when ``SIEVE_PERFSTORE_DIR`` is set. The CI
  ``scale-bench`` job records three runs and gates them with
  ``sieve-repro report --against`` the committed
  ``benchmarks/perfstore/`` snapshot.

Timing-derived numbers (the speedups) ride as a ``scale.speedups``
event, which the gate ignores; the gated surfaces are the *stage wall
times* (rank test over three runs, 2x / 0.1 s floors) and the
deterministic aggregates and prediction error (compared exactly).

Usage::

    PYTHONPATH=src python scripts/scale_smoke.py
    PYTHONPATH=src python scripts/scale_smoke.py --kernels 4096 --repeats 5
    SIEVE_BENCH_MANIFEST_DIR=/tmp/m PYTHONPATH=src python scripts/scale_smoke.py
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import SieveConfig
from repro.core.reference import (
    cycles_in_table_order_scalar,
    sieve_predict_scalar,
    stratify_table_scalar,
)
from repro.core.pipeline import SievePipeline
from repro.core.stratify import stratify_table
from repro.evaluation.context import build_context
from repro.evaluation.imputation import cycles_in_table_order
from repro.evaluation.runner import evaluate_method
from repro.observability import manifest as obs_manifest
from repro.observability import span
from repro.observability import spans as obs_spans
from repro.workloads.spec import WorkloadSpec

DEFAULT_KERNELS = 2048
DEFAULT_CAP = 100_000
DEFAULT_REPEATS = 3
DEFAULT_MIN_SPEEDUP = 5.0

#: The timed path, in pipeline order. Stage spans are named
#: ``scale.<stage>.<impl>`` so the regression gate can watch each one.
PATH_STAGES = ("stratify", "align", "predict")


def scale_spec(kernels: int = DEFAULT_KERNELS, cap: int = DEFAULT_CAP) -> WorkloadSpec:
    """The synthetic scale fixture: many kernels, no tier-3 mass.

    Tier fractions (0.5, 0.5, 0.0) keep the KDE inner loop (identical in
    both implementations, and the dominant cost on mixed workloads) out
    of the measurement, so the timed difference is exactly the per-kernel
    Python bookkeeping the vectorization pass replaced.
    """
    return WorkloadSpec(
        name=f"scale-{kernels}x{cap}",
        suite="synthetic",
        num_kernels=kernels,
        num_invocations=cap,
        tier_fractions=(0.5, 0.5, 0.0),
    )


@dataclass
class ScaleReport:
    """Everything one scale run measured, for printing and the manifest."""

    kernels: int
    cap: int
    repeats: int
    rows: int
    #: best-of-``repeats`` wall seconds per stage per implementation.
    vectorized: dict[str, float] = field(default_factory=dict)
    scalar: dict[str, float] = field(default_factory=dict)
    num_strata: int = 0
    num_representatives: int = 0
    predicted_cycles: float = 0.0
    sieve_error: float = 0.0

    def speedup(self, stage: str) -> float:
        return self.scalar[stage] / max(self.vectorized[stage], 1e-12)

    @property
    def path_speedup(self) -> float:
        total_scalar = sum(self.scalar[s] for s in PATH_STAGES)
        total_vec = sum(self.vectorized[s] for s in PATH_STAGES)
        return total_scalar / max(total_vec, 1e-12)


def _best_of(repeats: int, stage: str, impl: str, fn) -> tuple[float, object]:
    """Best wall time over ``repeats`` runs; keeps the last return value.

    Each run gets its own span so the manifest's stage table shows the
    summed wall time, while the report (and the printed speedups) use the
    minimum — the standard way to strip scheduler noise from a ratio.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        with span(f"scale.{stage}.{impl}"):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
    return best, result


def _check_strata_equal(vec, ref) -> None:
    assert len(vec) == len(ref), f"strata count {len(vec)} != {len(ref)}"
    for a, b in zip(vec, ref):
        assert a.kernel_id == b.kernel_id and a.tier == b.tier
        assert np.array_equal(np.asarray(a.rows), np.asarray(b.rows))
        assert a.insn_total == b.insn_total
        assert np.isclose(a.insn_cov, b.insn_cov, rtol=1e-9, atol=1e-12)


def run_scale(
    kernels: int = DEFAULT_KERNELS,
    cap: int = DEFAULT_CAP,
    repeats: int = DEFAULT_REPEATS,
) -> ScaleReport:
    """Build the fixture, time both implementations, verify equivalence."""
    spec = scale_spec(kernels, cap)
    config = SieveConfig()
    with span("scale.build", workload=spec.label):
        context = build_context(spec.label, spec=spec)
    table = context.sieve_table
    golden = context.golden
    report = ScaleReport(
        kernels=kernels, cap=cap, repeats=repeats, rows=len(table)
    )

    # --- stratify ----------------------------------------------------
    t_vec, strata = _best_of(
        repeats, "stratify", "vectorized", lambda: stratify_table(table, config)
    )
    t_ref, strata_ref = _best_of(
        repeats, "stratify", "scalar", lambda: stratify_table_scalar(table, config)
    )
    report.vectorized["stratify"], report.scalar["stratify"] = t_vec, t_ref
    _check_strata_equal(strata, strata_ref)
    report.num_strata = len(strata)

    # --- golden-cycle alignment --------------------------------------
    t_vec, cycles = _best_of(
        repeats, "align", "vectorized", lambda: cycles_in_table_order(table, golden)
    )
    t_ref, cycles_ref = _best_of(
        repeats, "align", "scalar",
        lambda: cycles_in_table_order_scalar(table, golden),
    )
    report.vectorized["align"], report.scalar["align"] = t_vec, t_ref
    assert np.array_equal(cycles, cycles_ref), "golden alignment diverged"

    # --- predict -----------------------------------------------------
    pipe = SievePipeline(config)
    with span("scale.select", workload=spec.label):
        selection = pipe.select(table)
    report.num_representatives = len(selection.representatives)
    t_vec, prediction = _best_of(
        repeats, "predict", "vectorized", lambda: pipe.predict(selection, golden)
    )
    t_ref, prediction_ref = _best_of(
        repeats, "predict", "scalar",
        lambda: sieve_predict_scalar(selection, golden),
    )
    report.vectorized["predict"], report.scalar["predict"] = t_vec, t_ref
    assert np.isclose(
        prediction.predicted_cycles, prediction_ref.predicted_cycles, rtol=1e-12
    ), "prediction diverged"
    report.predicted_cycles = float(prediction.predicted_cycles)
    report.sieve_error = float(evaluate_method("sieve", context).error)
    return report


def write_manifest(report: ScaleReport, mark: tuple[int, int, float, float]):
    """Write ``BENCH_scale.json`` when ``SIEVE_BENCH_MANIFEST_DIR`` is set."""
    directory = os.environ.get("SIEVE_BENCH_MANIFEST_DIR")
    if not directory:
        return None
    since, events_since, wall_start, cpu_start = mark
    # Measured speedups are informational, and they ride as an event
    # rather than config keys: the perfstore fingerprints ``config`` to
    # group runs of the same experiment *shape*, so run-varying
    # measurements in it would split every repeat into its own group.
    # The >=5x criterion is enforced by this script's own assertion.
    obs_manifest.record_event(
        "scale.speedups",
        path_speedup=round(report.path_speedup, 2),
        **{
            f"{stage}_speedup": round(report.speedup(stage), 2)
            for stage in PATH_STAGES
        },
    )
    manifest = obs_manifest.collect_manifest(
        "bench scale",
        config={
            "kernels": report.kernels,
            "cap": report.cap,
            "repeats": report.repeats,
        },
        workloads=[
            {
                "workload": scale_spec(report.kernels, report.cap).label,
                "sieve_error": report.sieve_error,
            }
        ],
        aggregates={
            "rows": report.rows,
            "num_strata": report.num_strata,
            "num_representatives": report.num_representatives,
        },
        since=since,
        events_since=events_since,
        total_wall_s=time.perf_counter() - wall_start,
        total_cpu_s=time.process_time() - cpu_start,
    )
    path = manifest.save(Path(directory) / "BENCH_scale.json")
    from repro.perfstore.store import maybe_record

    maybe_record(manifest, figure="scale")
    window = obs_spans.records()[since:]
    if window:
        from repro.observability.export import write_chrome_trace

        write_chrome_trace(Path(directory) / "TRACE_scale.json", window)
    return path


def print_report(report: ScaleReport) -> None:
    print(f"scale smoke: {report.kernels} kernels x {report.cap} invocations "
          f"({report.rows} profiled rows), best of {report.repeats}")
    header = f"{'stage':<10} {'scalar':>10} {'vectorized':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for stage in PATH_STAGES:
        print(f"{stage:<10} {report.scalar[stage]:>9.4f}s "
              f"{report.vectorized[stage]:>11.4f}s {report.speedup(stage):>8.2f}x")
    total_scalar = sum(report.scalar[s] for s in PATH_STAGES)
    total_vec = sum(report.vectorized[s] for s in PATH_STAGES)
    print(f"{'path':<10} {total_scalar:>9.4f}s {total_vec:>11.4f}s "
          f"{report.path_speedup:>8.2f}x")
    print(f"strata={report.num_strata} representatives={report.num_representatives} "
          f"sieve_error={report.sieve_error:.4%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernels", type=int, default=DEFAULT_KERNELS)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="timing repeats per stage (best-of)")
    parser.add_argument("--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
                        help="fail below this vectorized-path speedup")
    args = parser.parse_args(argv)

    mark = (obs_spans.mark(), obs_manifest.events_mark(),
            time.perf_counter(), time.process_time())
    report = run_scale(args.kernels, args.cap, args.repeats)
    print_report(report)
    path = write_manifest(report, mark)
    if path:
        print(f"manifest: {path}")

    if report.path_speedup < args.min_speedup:
        print(f"FAIL: path speedup {report.path_speedup:.2f}x is below the "
              f"required {args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    print(f"OK: path speedup {report.path_speedup:.2f}x "
          f">= {args.min_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
