"""Experiment drivers: declarative specs, one thin driver per figure.

The unifying abstraction is :class:`ExperimentSpec` — *which methods*
(registry names or configured :class:`~repro.methods.MethodRequest`\\ s)
run on *which workloads* (explicit labels and/or whole suites) under
*which cap and fault plan*. A single :func:`run_experiment` executes any
spec through the evaluation engine, so every figure driver reduces to
"build spec, post-process rows":

* Figures 3/4/6/8 are ``compare_methods`` (the default Sieve-vs-PKS
  spec) plus an aggregate function;
* Figure 5 is one spec with three aliased PKS requests (one per
  selection policy) and Sieve;
* Figure 10 is one spec with one aliased Sieve request per theta;
* Figure 9 runs the default comparison, then re-predicts each
  selection on a second architecture.

Each driver takes an optional ``max_invocations`` cap (tests use small
caps; benches run the full Table I scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.baselines.pks import PKS_SELECTION_POLICIES, PksConfig
from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
)
from repro.evaluation.metrics import harmonic_mean, relative_speedup_error
from repro.evaluation.runner import (
    MethodResult,
    hardware_speedup_between,
    predicted_speedup_between,
    sieve_tier_fractions,
)
from repro.gpu.arch import TURING_RTX2080TI
from repro.methods import MethodRequest
from repro.profiling.metrics import PKS_METRICS
from repro.robustness.faults import FaultPlan
from repro.utils.errors import EngineError
from repro.utils.validation import require
from repro.workloads.catalog import (
    CHALLENGING_SUITES,
    SIMPLE_SUITES,
    all_specs,
    specs_for_suites,
)
from repro.workloads.generator import generate

#: Fig 9 excludes MLPerf and Cactus' rfl ("Due to infrastructure
#: limitations on the RTX 2080Ti we were unable to run the MLPerf
#: workloads as well as Cactus' rfl").
RELATIVE_STUDY_LABELS: tuple[str, ...] = (
    "cactus/gru",
    "cactus/gst",
    "cactus/gms",
    "cactus/lmc",
    "cactus/lmr",
    "cactus/dcg",
    "cactus/lgt",
    "cactus/nst",
    "cactus/spt",
)


def _challenging_labels() -> list[str]:
    return [spec.label for spec in specs_for_suites(CHALLENGING_SUITES)]


def _simple_labels() -> list[str]:
    return [spec.label for spec in specs_for_suites(SIMPLE_SUITES)]


# --------------------------------------------------------------------- #
# The declarative experiment layer


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: methods x workloads x cap x fault plan.

    ``methods`` entries are registry names (``"sieve"``) or configured
    :class:`~repro.methods.MethodRequest`\\ s; aliases disambiguate
    several requests of the same method (Figure 5 runs three PKS
    configurations side by side). Workloads come from explicit
    ``labels``, whole ``suites``, or both (labels first, suite
    expansion after, duplicates dropped).

    A spec is pure data — hashable, comparable, trivially serialized —
    and :meth:`tasks` lowers it onto engine tasks, so one
    :func:`run_experiment` executes every figure's spec through the
    same cache/worker machinery.
    """

    name: str
    methods: tuple[str | MethodRequest, ...] = ("sieve", "pks")
    labels: tuple[str, ...] = ()
    suites: tuple[str, ...] = ()
    max_invocations: int | None = None
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        require(len(self.methods) >= 1, "spec must request a method", EngineError)
        require(
            bool(self.labels) or bool(self.suites),
            f"experiment {self.name!r} names no labels and no suites",
            EngineError,
        )

    def resolved_labels(self) -> tuple[str, ...]:
        """Explicit labels first, then suite expansion, duplicates dropped."""
        labels = list(self.labels)
        labels += [spec.label for spec in specs_for_suites(self.suites)]
        return tuple(dict.fromkeys(labels))

    def tasks(self) -> list[EvaluationTask]:
        """Lower the spec onto one engine task per workload.

        Task construction validates every method request against the
        registry, so an unknown method fails here — before any work or
        cache traffic happens.
        """
        return [
            EvaluationTask(
                label=label,
                max_invocations=self.max_invocations,
                fault_plan=self.fault_plan,
                methods=self.methods,
            )
            for label in self.resolved_labels()
        ]


@dataclass(frozen=True)
class ExperimentRow:
    """One workload's results, keyed by method request key (name or alias)."""

    workload: str
    results: Mapping[str, MethodResult]
    from_cache: bool = False

    def __getitem__(self, key: str) -> MethodResult:
        return self.results[key]


def run_experiment(
    spec: ExperimentSpec,
    engine: EvaluationEngine | None = None,
) -> list[ExperimentRow]:
    """Execute a spec through the evaluation engine, one row per workload.

    ``engine`` routes the per-workload work through a
    :class:`repro.evaluation.engine.EvaluationEngine` (worker fan-out +
    on-disk result cache); the default is serial and uncached, which
    reproduces the historical behaviour exactly.
    """
    if engine is None:
        engine = EvaluationEngine(EngineConfig(jobs=1, use_cache=False))
    return [
        ExperimentRow(
            workload=result.label,
            results=result.results,
            from_cache=result.from_cache,
        )
        for result in engine.run(spec.tasks())
    ]


def collect_attributions(rows) -> list[dict]:
    """Error-attribution dicts from experiment/comparison rows, in order.

    Accepts :class:`ExperimentRow`\\ s (results keyed by request key) and
    :class:`ComparisonRow`\\ s alike; results without an attribution
    (foreign methods, pre-attribution cache entries) are skipped. The
    output feeds ``RunManifest.attribution`` and the per-figure
    ``ATTRIBUTION_*.json`` bench artifacts.
    """
    collected: list[dict] = []
    for row in rows:
        if isinstance(row, ComparisonRow):
            results: Mapping[str, MethodResult] = {
                "sieve": row.sieve,
                "pks": row.pks,
            }
        else:
            results = row.results
        for key in results:
            attribution = getattr(results[key], "attribution", None)
            if attribution is not None:
                collected.append(attribution.to_dict())
    return collected


# --------------------------------------------------------------------- #
# Table I / Table II


def table1_inventory(max_invocations: int | None = None) -> list[dict]:
    """Workload inventory: suite, name, #kernels, #invocations (Table I).

    Regenerates every workload and cross-checks the realized counts
    against the spec (they must match exactly at full scale).
    """
    rows = []
    for spec in all_specs():
        run = generate(spec, max_invocations=max_invocations)
        rows.append(
            {
                "suite": spec.suite,
                "workload": spec.name,
                "kernels": len(run.kernels),
                "invocations": run.num_invocations,
                "paper_kernels": spec.num_kernels,
                "paper_invocations": spec.num_invocations,
            }
        )
    return rows


def table2_metrics() -> list[dict]:
    """Execution characteristics profiled by PKS versus Sieve (Table II)."""
    return [
        {
            "characteristic": metric.name,
            "pks": "yes" if metric.used_by_pks else "",
            "sieve": "yes" if metric.used_by_sieve else "",
        }
        for metric in PKS_METRICS
    ]


# --------------------------------------------------------------------- #
# Figure 2: tier fractions vs theta


def figure2_tiers(
    thetas: tuple[float, ...] = (0.1, 0.5, 1.0),
    max_invocations: int | None = None,
) -> list[dict]:
    """Invocation fractions per tier for each challenging workload."""
    rows = []
    for label in _challenging_labels():
        context = build_context(label, max_invocations)
        row: dict = {"workload": label}
        for theta in thetas:
            fractions = sieve_tier_fractions(context, theta)
            row[f"tier1@{theta}"] = float(fractions[0])
            row[f"tier2@{theta}"] = float(fractions[1])
            row[f"tier3@{theta}"] = float(fractions[2])
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figures 3, 4, 6: accuracy, dispersion, speedup on Cactus + MLPerf


@dataclass(frozen=True)
class ComparisonRow:
    """Sieve-vs-PKS scorecard for one workload."""

    workload: str
    sieve: MethodResult
    pks: MethodResult


def comparison_spec(
    name: str,
    labels: tuple[str, ...],
    max_invocations: int | None = None,
    theta: float = 0.4,
    fault_plan: FaultPlan | None = None,
) -> ExperimentSpec:
    """The paper's headline spec: Sieve (at ``theta``) versus PKS."""
    return ExperimentSpec(
        name=name,
        methods=(MethodRequest("sieve", SieveConfig(theta=theta)), "pks"),
        labels=labels,
        max_invocations=max_invocations,
        fault_plan=fault_plan,
    )


def compare_methods(
    labels: list[str] | None = None,
    max_invocations: int | None = None,
    theta: float = 0.4,
    fault_plan=None,
    engine: EvaluationEngine | None = None,
) -> list[ComparisonRow]:
    """Evaluate Sieve and PKS on each workload (drives Figures 3, 4, 6).

    A thin wrapper over :func:`run_experiment` with
    :func:`comparison_spec`. ``fault_plan`` (a
    :class:`repro.robustness.faults.FaultPlan`) injects deterministic
    profile/measurement corruption first — the resilience study's entry
    point.
    """
    labels = labels if labels is not None else _challenging_labels()
    spec = comparison_spec(
        "compare", tuple(labels), max_invocations, theta, fault_plan
    )
    return [
        ComparisonRow(workload=row.workload, sieve=row["sieve"], pks=row["pks"])
        for row in run_experiment(spec, engine)
    ]


def figure3_accuracy(rows: list[ComparisonRow]) -> dict:
    """Aggregate prediction errors (Figure 3)."""
    sieve = [r.sieve.error for r in rows]
    pks = [r.pks.error for r in rows]
    return {
        "sieve_avg": float(np.mean(sieve)),
        "sieve_max": float(np.max(sieve)),
        "pks_avg": float(np.mean(pks)),
        "pks_max": float(np.max(pks)),
    }


def figure4_dispersion(rows: list[ComparisonRow]) -> dict:
    """Aggregate within-cluster cycle CoV (Figure 4)."""
    sieve = [r.sieve.cycle_cov for r in rows]
    pks = [r.pks.cycle_cov for r in rows]
    return {
        "sieve_avg": float(np.mean(sieve)),
        "sieve_max": float(np.max(sieve)),
        "pks_avg": float(np.mean(pks)),
        "pks_max": float(np.max(pks)),
    }


def figure6_speedup(rows: list[ComparisonRow]) -> dict:
    """Harmonic-mean simulation speedups, excluding gst (Figure 6)."""
    included = [r for r in rows if not r.workload.endswith("/gst")]
    return {
        "sieve_hmean": harmonic_mean([r.sieve.speedup for r in included]),
        "pks_hmean": harmonic_mean([r.pks.speedup for r in included]),
    }


# --------------------------------------------------------------------- #
# Figure 5: PKS selection policies


def figure5_selection_policies(
    labels: list[str] | None = None,
    max_invocations: int | None = None,
    engine: EvaluationEngine | None = None,
) -> list[dict]:
    """PKS error under first/random/centroid selection, vs Sieve (Fig. 5).

    One spec, four method requests per workload: three aliased PKS
    configurations plus Sieve.
    """
    labels = labels if labels is not None else _challenging_labels()
    spec = ExperimentSpec(
        name="figure5",
        methods=tuple(
            MethodRequest(
                "pks",
                PksConfig(selection_policy=policy),
                alias=f"pks_{policy}",
            )
            for policy in PKS_SELECTION_POLICIES
        )
        + ("sieve",),
        labels=tuple(labels),
        max_invocations=max_invocations,
    )
    rows = []
    for row in run_experiment(spec, engine):
        out: dict = {"workload": row.workload}
        for policy in PKS_SELECTION_POLICIES:
            out[f"pks_{policy}"] = row[f"pks_{policy}"].error
        out["sieve"] = row["sieve"].error
        rows.append(out)
    return rows


# --------------------------------------------------------------------- #
# Figure 7: profiling time


def figure7_profiling(
    labels: list[str] | None = None,
    max_invocations: int | None = None,
) -> list[dict]:
    """Profiling-time speedup of Sieve (NVBit) over PKS (Nsight)."""
    labels = labels if labels is not None else _challenging_labels()
    rows = []
    for label in labels:
        context = build_context(label, max_invocations)
        rows.append(
            {
                "workload": label,
                "pks_days": context.pks_profiling.total_days,
                "sieve_days": context.sieve_profiling.total_days,
                "speedup": context.pks_profiling.total_seconds
                / context.sieve_profiling.total_seconds,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Figure 8: the simple suites


def figure8_simple_suites(
    max_invocations: int | None = None,
    fault_plan=None,
    engine: EvaluationEngine | None = None,
) -> list[ComparisonRow]:
    """Sieve vs PKS on Parboil/Rodinia/CUDA SDK (Figure 8)."""
    return compare_methods(
        _simple_labels(), max_invocations, fault_plan=fault_plan, engine=engine
    )


# --------------------------------------------------------------------- #
# Figure 9: relative accuracy across architectures


def figure9_relative(
    labels: tuple[str, ...] = RELATIVE_STUDY_LABELS,
    max_invocations: int | None = None,
    engine: EvaluationEngine | None = None,
) -> list[dict]:
    """Ampere-vs-Turing speedup: hardware vs Sieve vs PKS (Figure 9).

    Runs the default comparison spec, then re-predicts each method's
    selection on the Turing measurement of the same (deterministically
    rebuilt) context.
    """
    spec = ExperimentSpec(
        name="figure9",
        labels=tuple(labels),
        max_invocations=max_invocations,
    )
    rows = []
    for row in run_experiment(spec, engine):
        context = build_context(row.workload, max_invocations)
        turing = context.measure_on(TURING_RTX2080TI)
        hardware = hardware_speedup_between(context.golden, turing)
        sieve_pred = predicted_speedup_between(
            row["sieve"].selection, "sieve", context.golden, turing
        )
        pks_pred = predicted_speedup_between(
            row["pks"].selection, "pks", context.golden, turing
        )
        rows.append(
            {
                "workload": row.workload,
                "hardware": hardware,
                "sieve": sieve_pred,
                "pks": pks_pred,
                "sieve_error": relative_speedup_error(sieve_pred, hardware),
                "pks_error": relative_speedup_error(pks_pred, hardware),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Figure 10: theta sensitivity


def figure10_theta_sweep(
    thetas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    labels: list[str] | None = None,
    max_invocations: int | None = None,
    engine: EvaluationEngine | None = None,
) -> list[dict]:
    """Average Sieve error and hmean speedup per theta (Figure 10).

    One spec with one aliased Sieve request per theta, so the whole
    sweep is a single engine pass (and a single cache entry) per
    workload.
    """
    labels = labels if labels is not None else _challenging_labels()
    spec = ExperimentSpec(
        name="figure10",
        methods=tuple(
            MethodRequest("sieve", SieveConfig(theta=theta), alias=f"sieve@{theta:g}")
            for theta in thetas
        ),
        labels=tuple(labels),
        max_invocations=max_invocations,
    )
    experiment_rows = run_experiment(spec, engine)
    rows = []
    for theta in thetas:
        errors = []
        speedups = []
        for row in experiment_rows:
            result = row[f"sieve@{theta:g}"]
            errors.append(result.error)
            if not row.workload.endswith("/gst"):
                speedups.append(result.speedup)
        rows.append(
            {
                "theta": theta,
                "avg_error": float(np.mean(errors)),
                "max_error": float(np.max(errors)),
                "hmean_speedup": harmonic_mean(speedups),
            }
        )
    return rows
