"""Render run manifests as human-readable timing/accuracy reports.

Backs ``sieve-repro report``: one manifest renders as a per-stage timing
table (sorted by self time, the honest "where did the wall clock go"
ordering) plus per-workload accuracy rows and cache statistics. Two
manifests are gated by :func:`repro.perfstore.gate.gate_manifests`;
:func:`_diff_attribution` adds their per-kernel attribution drift.
"""

from __future__ import annotations

from repro.evaluation.reporting import format_table, percent
from repro.observability.manifest import RunManifest


def _seconds(value: float) -> str:
    return f"{value:.4f}s" if value < 10 else f"{value:.2f}s"


def render_manifest(manifest: RunManifest) -> str:
    """One manifest as header lines + stage and workload tables."""
    lines = [
        f"command          : {manifest.command}",
        f"created          : {manifest.created or '-'}",
        f"package          : {manifest.package_version} "
        f"({manifest.source_fingerprint[:12] or '-'})",
        f"total wall       : {_seconds(manifest.total_wall_s)} "
        f"(cpu {_seconds(manifest.total_cpu_s)})",
        f"instrumented self: {_seconds(manifest.stage_self_total())}",
    ]
    if manifest.cache is not None:
        cache = manifest.cache
        lines.append(
            f"engine           : jobs={cache.get('jobs', 1)}, cache "
            f"{cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses / "
            f"{cache.get('writes', 0)} writes / {cache.get('invalid', 0)} invalid"
        )
    for event in manifest.events:
        fields = ", ".join(f"{k}={v}" for k, v in event.items() if k != "kind")
        lines.append(f"event            : {event.get('kind')} ({fields})")

    if manifest.stages:
        stages = sorted(manifest.stages, key=lambda s: s.self_s, reverse=True)
        total = manifest.total_wall_s or manifest.stage_self_total() or 1.0
        lines.append("")
        lines.append(
            format_table(
                ["stage", "calls", "wall", "self", "cpu", "share", "errors"],
                [
                    (
                        stage.name,
                        stage.count,
                        _seconds(stage.wall_s),
                        _seconds(stage.self_s),
                        _seconds(stage.cpu_s),
                        percent(stage.self_s / total),
                        stage.errors or "-",
                    )
                    for stage in stages
                ],
            )
        )

    if manifest.workloads:
        keys = [k for k in manifest.workloads[0] if k != "workload"]
        lines.append("")
        lines.append(
            format_table(
                ["workload"] + keys,
                [
                    [row.get("workload")] + [_format_value(k, row.get(k)) for k in keys]
                    for row in manifest.workloads
                ],
            )
        )

    if manifest.aggregates:
        lines.append("")
        for key in sorted(manifest.aggregates):
            lines.append(f"{key}: {manifest.aggregates[key]:.6g}")

    if manifest.attribution:
        lines.append("")
        lines.append(render_attribution(manifest.attribution))
    return "\n".join(lines)


def _format_value(key: str, value: object) -> object:
    if isinstance(value, float) and (key.endswith("_error") or key.endswith("_cov")):
        return percent(value)
    return value


def _signed_percent(value: float) -> str:
    return f"{value * 100.0:+.3f}%"


def render_attribution(entries, top: int = 8) -> str:
    """Per-workload error attributions as per-kernel/per-stratum tables.

    ``entries`` are attribution dicts (manifest form or
    :meth:`~repro.observability.attribution.ErrorAttribution.to_dict`).
    Rows are ranked by absolute contribution; ``top`` bounds each table.
    """
    lines = []
    for entry in entries:
        if lines:
            lines.append("")
        lines.append(
            f"attribution {entry['workload']} · {entry['method']}: "
            f"signed error {_signed_percent(entry['signed_error'])}"
        )
        kernels = sorted(
            entry.get("per_kernel", ()),
            key=lambda k: abs(k["contribution"]),
            reverse=True,
        )[:top]
        if kernels:
            lines.append(
                format_table(
                    ["kernel", "predicted", "measured", "contribution", "reps"],
                    [
                        (
                            k["kernel_name"],
                            f"{k['predicted_cycles']:.4g}",
                            f"{k['measured_cycles']:.4g}",
                            _signed_percent(k["contribution"]),
                            k.get("num_representatives", 0),
                        )
                        for k in kernels
                    ],
                )
            )
        groups = sorted(
            entry.get("per_group", ()),
            key=lambda g: abs(g["contribution"]),
            reverse=True,
        )[:top]
        if groups:
            note = "" if entry.get("groups_partition") else " (non-partitioning)"
            lines.append(f"per-group{note}:")
            lines.append(
                format_table(
                    ["group", "kernel", "size", "weight", "contribution"],
                    [
                        (
                            g["group"],
                            g["kernel_name"],
                            g["size"],
                            f"{g['weight']:.4f}",
                            _signed_percent(g["contribution"]),
                        )
                        for g in groups
                    ],
                )
            )
        unhealthy = sorted(
            (h for h in entry.get("health", ()) if h["cov_drift"] > 0),
            key=lambda h: h["cov_drift"],
            reverse=True,
        )[:top]
        if unhealthy:
            lines.append("strata above the CoV target:")
            lines.append(
                format_table(
                    ["stratum", "tier", "size", "cov", "drift", "rep dist", "balance"],
                    [
                        (
                            h["group"],
                            h["tier"],
                            h["size"],
                            f"{h['insn_cov']:.3f}",
                            f"{h['cov_drift']:+.3f}",
                            f"{h['rep_distance']:.3f}",
                            f"{h['split_balance']:.2f}",
                        )
                        for h in unhealthy
                    ],
                )
            )
    return "\n".join(lines)


def _diff_attribution(baseline: RunManifest, current: RunManifest) -> str:
    """Signed-error drift per (workload, method), with the kernel that
    moved the most — empty when neither manifest carries attributions."""
    base = {(e["workload"], e["method"]): e for e in baseline.attribution}
    cur = {(e["workload"], e["method"]): e for e in current.attribution}
    shared = sorted(set(base) & set(cur))
    if not shared:
        return ""
    rows = []
    for key in shared:
        b, c = base[key], cur[key]
        b_kernels = {k["kernel_name"]: k["contribution"] for k in b.get("per_kernel", ())}
        c_kernels = {k["kernel_name"]: k["contribution"] for k in c.get("per_kernel", ())}
        mover, shift = "-", 0.0
        for name in set(b_kernels) | set(c_kernels):
            delta = c_kernels.get(name, 0.0) - b_kernels.get(name, 0.0)
            if abs(delta) > abs(shift):
                mover, shift = name, delta
        rows.append(
            (
                f"{key[0]} · {key[1]}",
                _signed_percent(b["signed_error"]),
                _signed_percent(c["signed_error"]),
                _signed_percent(c["signed_error"] - b["signed_error"]),
                f"{mover} ({_signed_percent(shift)})" if mover != "-" else "-",
            )
        )
    return "attribution drift:\n" + format_table(
        ["workload · method", "baseline", "current", "delta", "largest kernel shift"],
        rows,
    )


def render_findings(payload: dict) -> str:
    """A fuzz campaign's findings file as a summary plus one table.

    ``payload`` is the dict ``repro.fuzz.campaign`` writes to
    ``findings.json`` (schema-checked by ``load_findings``).
    """
    campaign = payload.get("campaign", {})
    summary = payload.get("summary", {})
    lines = [
        f"campaign  : seed={campaign.get('seed')} budget={campaign.get('budget')} "
        f"threshold={campaign.get('threshold')} chaos={campaign.get('chaos') or '-'}",
        f"candidates: {summary.get('scored', 0)} scored, "
        f"{summary.get('ok', 0)} ok, {summary.get('failed', 0)} failed "
        f"({', '.join(f'{k}={v}' for k, v in sorted(summary.get('statuses', {}).items()))})",
        f"findings  : {summary.get('findings', 0)} above threshold",
    ]
    findings = payload.get("findings", ())
    if findings:
        lines.append("")
        lines.append(
            format_table(
                ["idx", "base", "worst", "error", "score", "shrunk", "faults"],
                [
                    (
                        finding["index"],
                        finding["base_label"],
                        finding["score"]["worst_method"],
                        percent(finding["score"]["max_error"]),
                        f"{finding['score']['score']:.4f}",
                        f"{finding['shrunk_score']['score']:.4f}",
                        (
                            ",".join(
                                s["mode"]
                                for s in (finding["shrunk"].get("fault_plan") or {}).get(
                                    "specs", ()
                                )
                            )
                            or "-"
                        ),
                    )
                    for finding in findings
                ],
            )
        )
    return "\n".join(lines)
