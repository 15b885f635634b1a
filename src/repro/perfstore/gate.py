"""Statistical diff of two run *sets* — the one regression gate.

:func:`gate_manifests` compares *samples*: every stored run of the
baseline version against every run of the current one (``report A B``
is the one-run-per-side case), one :class:`GateRow` per metric.

* **Walls** (total and each stage) get a verdict from
  :func:`repro.perfstore.stats.degradation_test`: the rank test with a
  practical floor at n >= 2 per side, the labeled single-sample ratio
  heuristic otherwise.
* **Accuracy** (each workload's ``*_error`` fields) and **aggregates**
  are compared exactly, at any n and in either direction: the pipeline
  is seed-deterministic, so every value on both sides must sit within
  ``1e-9 + 1e-6·|b|`` of the baseline median ``b``. The tolerance only
  absorbs float reassociation; an improvement is drift too.

Stages present on only one side get explicit ``new`` / ``removed`` rows
instead of a silent skip or a near-zero division: ``removed`` (the
baseline spent real time there and the current run never entered it) is
a failure; ``new`` is informational — a freshly added stage has no
baseline to regress from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.observability import metrics
from repro.observability.manifest import RunManifest
from repro.perfstore.stats import (
    DistributionSummary,
    GateVerdict,
    degradation_test,
    summarize,
)
from repro.utils.validation import require

#: Row severities: only ``fail`` rows gate a build.
SEVERITY_FAIL = "fail"
SEVERITY_INFO = "info"


@dataclass(frozen=True)
class GateRow:
    """One metric's comparison across the two run sets."""

    #: "total-wall" | "stage-wall" | "stage-new" | "stage-removed"
    #: | "accuracy" | "aggregate" | "workload-new" | "workload-removed"
    kind: str
    name: str
    #: "regressed" | "improved" | "indistinguishable" (walls);
    #: "matched" | "drifted" (accuracy, aggregates); "new" | "removed"
    verdict: str
    severity: str
    detail: str
    baseline: DistributionSummary | None = None
    current: DistributionSummary | None = None
    p_slower: float | None = None
    p_faster: float | None = None
    #: "rank" | "single-sample" | "exact" | "presence"
    mode: str = "presence"

    @property
    def failed(self) -> bool:
        return self.severity == SEVERITY_FAIL

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "verdict": self.verdict,
            "severity": self.severity,
            "detail": self.detail,
            "baseline": self.baseline.to_dict() if self.baseline else None,
            "current": self.current.to_dict() if self.current else None,
            "p_slower": self.p_slower,
            "p_faster": self.p_faster,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class GateReport:
    """Everything the gate decided, plus enough context to render it."""

    baseline_label: str
    current_label: str
    n_baseline: int
    n_current: int
    rows: tuple[GateRow, ...] = ()
    figure: str = ""

    @property
    def failures(self) -> tuple[GateRow, ...]:
        return tuple(row for row in self.rows if row.failed)

    @property
    def regressed(self) -> bool:
        return bool(self.failures)

    @property
    def verdict(self) -> str:
        """Overall: worst row wins (regressed > improved > indistinguishable)."""
        if self.regressed:
            return "regressed"
        if any(row.verdict == "improved" for row in self.rows):
            return "improved"
        return "indistinguishable"

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_label,
            "current": self.current_label,
            "n_baseline": self.n_baseline,
            "n_current": self.n_current,
            "figure": self.figure,
            "verdict": self.verdict,
            "rows": [row.to_dict() for row in self.rows],
        }


def _verdict_row(
    kind: str, name: str, verdict: GateVerdict, *, fail_on: str = "regressed"
) -> GateRow:
    return GateRow(
        kind=kind,
        name=name,
        verdict=verdict.verdict,
        severity=SEVERITY_FAIL if verdict.verdict == fail_on else SEVERITY_INFO,
        detail=verdict.detail,
        baseline=verdict.baseline,
        current=verdict.current,
        p_slower=verdict.p_slower,
        p_faster=verdict.p_faster,
        mode=verdict.mode,
    )


#: Exact-comparison tolerance for accuracy and aggregate rows: absorbs
#: float reassociation across platforms, never algorithmic drift.
EXACT_ATOL = 1e-9
EXACT_RTOL = 1e-6


def _exact_row(
    kind: str, name: str, base_vals: Sequence[float], cur_vals: Sequence[float]
) -> GateRow:
    """Fail unless every value on both sides matches the baseline median."""
    base = summarize(base_vals)
    cur = summarize(cur_vals)
    tolerance = EXACT_ATOL + EXACT_RTOL * abs(base.median)
    deviations = [abs(v - base.median) for v in (*base_vals, *cur_vals)]
    matched = all(d <= tolerance for d in deviations)  # NaN never matches
    return GateRow(
        kind=kind,
        name=name,
        verdict="matched" if matched else "drifted",
        severity=SEVERITY_INFO if matched else SEVERITY_FAIL,
        detail=(
            f"median {base.median:.6g} -> {cur.median:.6g}; largest deviation "
            f"{max(deviations):.3g} from the baseline median "
            f"(tolerance {tolerance:.3g})"
        ),
        baseline=base,
        current=cur,
        mode="exact",
    )


def _stage_walls(runs: Sequence[RunManifest]) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = {}
    for manifest in runs:
        for stage in manifest.stages:
            walls.setdefault(stage.name, []).append(stage.wall_s)
    return walls


def _workload_errors(
    runs: Sequence[RunManifest],
) -> dict[str, dict[str, list[float]]]:
    """``{workload: {error_key: [value per run where present]}}``."""
    table: dict[str, dict[str, list[float]]] = {}
    for manifest in runs:
        for row in manifest.workloads:
            workload = str(row.get("workload"))
            for key, value in row.items():
                if key.endswith("_error") and isinstance(value, (int, float)):
                    table.setdefault(workload, {}).setdefault(key, []).append(
                        float(value)
                    )
    return table


def _aggregate_values(runs: Sequence[RunManifest]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for manifest in runs:
        for key, value in manifest.aggregates.items():
            if isinstance(value, (int, float)):
                values.setdefault(key, []).append(float(value))
    return values


def gate_manifests(
    baseline: Sequence[RunManifest],
    current: Sequence[RunManifest],
    *,
    alpha: float = 0.05,
    min_ratio: float = 1.10,
    min_seconds: float = 0.05,
    fallback_slowdown: float = 1.25,
    baseline_label: str = "baseline",
    current_label: str = "current",
    figure: str = "",
) -> GateReport:
    """Gate ``current`` runs against ``baseline`` runs.

    Wall metrics regress when the rank test is significant at ``alpha``
    *and* the median moved by ``min_ratio``× and ``min_seconds``
    absolute; with a single run on either side they degrade to the
    labeled ``single-sample`` heuristic (``fallback_slowdown``).
    Accuracy and aggregate metrics are compared exactly at any n (see
    the module docstring): any drift fails.

    The overall verdict lands on the ``perfstore.gate`` metric.
    """
    baseline = list(baseline)
    current = list(current)
    require(bool(baseline), "gate_manifests needs at least one baseline run")
    require(bool(current), "gate_manifests needs at least one current run")
    rows: list[GateRow] = []

    def wall_test(base_vals: Sequence[float], cur_vals: Sequence[float]) -> GateVerdict:
        return degradation_test(
            base_vals,
            cur_vals,
            alpha=alpha,
            min_ratio=min_ratio,
            min_abs=min_seconds,
            fallback_slowdown=fallback_slowdown,
        )

    rows.append(
        _verdict_row(
            "total-wall",
            "total",
            wall_test(
                [m.total_wall_s for m in baseline],
                [m.total_wall_s for m in current],
            ),
        )
    )

    base_stages = _stage_walls(baseline)
    cur_stages = _stage_walls(current)
    for name in sorted(set(base_stages) | set(cur_stages)):
        base_vals = base_stages.get(name)
        cur_vals = cur_stages.get(name)
        if base_vals and cur_vals:
            rows.append(_verdict_row("stage-wall", name, wall_test(base_vals, cur_vals)))
        elif base_vals:
            summary = summarize(base_vals)
            significant = summary.median > min_seconds
            rows.append(
                GateRow(
                    kind="stage-removed",
                    name=name,
                    verdict="removed",
                    severity=SEVERITY_FAIL if significant else SEVERITY_INFO,
                    detail=(
                        f"stage ran in baseline (median {summary.median:.3f}s over "
                        f"{summary.n} run(s)) but never in current"
                    ),
                    baseline=summary,
                    current=None,
                )
            )
        else:
            summary = summarize(cur_vals)
            rows.append(
                GateRow(
                    kind="stage-new",
                    name=name,
                    verdict="new",
                    severity=SEVERITY_INFO,
                    detail=(
                        f"stage is new in current (median {summary.median:.3f}s over "
                        f"{summary.n} run(s)); no baseline to compare"
                    ),
                    baseline=None,
                    current=summary,
                )
            )

    base_workloads = _workload_errors(baseline)
    cur_workloads = _workload_errors(current)
    for workload in sorted(set(base_workloads) | set(cur_workloads)):
        base_metrics = base_workloads.get(workload)
        cur_metrics = cur_workloads.get(workload)
        if base_metrics and cur_metrics:
            for key in sorted(set(base_metrics) | set(cur_metrics)):
                base_vals = base_metrics.get(key)
                cur_vals = cur_metrics.get(key)
                name = f"{workload}.{key}"
                if base_vals and cur_vals:
                    rows.append(_exact_row("accuracy", name, base_vals, cur_vals))
                elif base_vals:
                    rows.append(
                        GateRow(
                            kind="accuracy",
                            name=name,
                            verdict="removed",
                            severity=SEVERITY_FAIL,
                            detail="metric present in baseline runs but absent from current",
                            baseline=summarize(base_vals),
                        )
                    )
                else:
                    rows.append(
                        GateRow(
                            kind="accuracy",
                            name=name,
                            verdict="new",
                            severity=SEVERITY_INFO,
                            detail="metric is new in current runs",
                            current=summarize(cur_vals),
                        )
                    )
        elif base_metrics:
            rows.append(
                GateRow(
                    kind="workload-removed",
                    name=workload,
                    verdict="removed",
                    severity=SEVERITY_FAIL,
                    detail="workload present in baseline runs but absent from current",
                )
            )
        else:
            rows.append(
                GateRow(
                    kind="workload-new",
                    name=workload,
                    verdict="new",
                    severity=SEVERITY_INFO,
                    detail="workload is new in current runs",
                )
            )

    base_aggregates = _aggregate_values(baseline)
    cur_aggregates = _aggregate_values(current)
    for key in sorted(set(base_aggregates) | set(cur_aggregates)):
        base_vals = base_aggregates.get(key)
        cur_vals = cur_aggregates.get(key)
        if base_vals and cur_vals:
            rows.append(_exact_row("aggregate", key, base_vals, cur_vals))
        elif base_vals:
            rows.append(
                GateRow(
                    kind="aggregate",
                    name=key,
                    verdict="removed",
                    severity=SEVERITY_FAIL,
                    detail="aggregate present in baseline runs but absent from current",
                    baseline=summarize(base_vals),
                )
            )
        else:
            rows.append(
                GateRow(
                    kind="aggregate",
                    name=key,
                    verdict="new",
                    severity=SEVERITY_INFO,
                    detail="aggregate is new in current runs",
                    current=summarize(cur_vals),
                )
            )

    report = GateReport(
        baseline_label=baseline_label,
        current_label=current_label,
        n_baseline=len(baseline),
        n_current=len(current),
        rows=tuple(rows),
        figure=figure,
    )
    metrics.inc("perfstore.gate", verdict=report.verdict)
    return report


def _ci(summary: DistributionSummary | None) -> str:
    if summary is None:
        return "-"
    if summary.n == 1:
        return f"{summary.median:.4g}"
    return f"{summary.median:.4g} CI[{summary.ci_low:.4g}, {summary.ci_high:.4g}]"


def render_gate_report(report: GateReport, *, verbose: bool = False) -> str:
    """Human-readable gate report.

    Non-verbose output shows every decided row (regressed / improved /
    drifted / new / removed) and folds the indistinguishable and matched
    bulk into one count; ``verbose=True`` prints everything.
    """
    lines = [
        f"perf gate: {report.current_label} (n={report.n_current}) vs "
        f"{report.baseline_label} (n={report.n_baseline})"
        + (f" [{report.figure}]" if report.figure else "")
    ]
    quiet = 0
    for row in report.rows:
        if not verbose and row.verdict in ("indistinguishable", "matched"):
            quiet += 1
            continue
        marker = "FAIL" if row.failed else row.verdict
        lines.append(
            f"  [{row.kind}] {row.name}: {marker} — {row.detail} "
            f"({_ci(row.baseline)} -> {_ci(row.current)})"
        )
    if quiet:
        lines.append(
            f"  ({quiet} metric(s) statistically indistinguishable or matched)"
        )
    lines.append(f"verdict: {report.verdict.upper()}")
    return "\n".join(lines)
