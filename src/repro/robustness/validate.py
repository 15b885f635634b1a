"""Schema/invariant validation and repair of profile tables.

:func:`validate_table` checks the invariants both samplers rely on —
positive instruction counts and launch shapes, finite non-negative
metrics, per-kernel invocation-id monotonicity, declared-vs-actual row
counts — and returns a structured :class:`ValidationReport`.

Issues carry a severity: ``error`` marks corruption that would poison the
pipelines (and that :func:`repair_table` can remove), while ``warning``
marks *missing* data (invocation-id gaps, truncation) that no repair can
recreate but that the pipelines tolerate. A report is ``ok`` when it has
no errors.

:func:`validate_profile_csv` is the lenient file-level twin: it runs the
one profile parser (:class:`~repro.profiling.csv_io.ProfileTableReader`)
with its bad-row method overridden to record each malformed row instead
of raising, salvages the parseable rows into a table and validates that.

:func:`repair_table` drops or imputes the error-level rows/cells and
records every action taken; its output always passes
:func:`validate_table` with no errors (a property the test suite enforces
with hypothesis).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.profiling.csv_io import ProfileTableReader
from repro.profiling.table import ProfileTable, concat_profile_tables
from repro.utils.errors import ProfileError

#: issue kinds considered data corruption (repairable); everything else is
#: missing data and reported as a warning.
_ERROR_KINDS = frozenset({
    "nonpositive-insn",
    "nonpositive-cta-size",
    "nonpositive-num-ctas",
    "nonfinite-metric",
    "negative-metric",
    "duplicate-invocation",
    "nonmonotonic-invocation",
    "malformed-row",
    "malformed-header",
    "unreadable-file",
    "empty-table",
})


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation, located as precisely as possible."""

    kind: str
    message: str
    row: int | None = None  # table row index, or 1-based CSV line number
    kernel: str | None = None

    @property
    def severity(self) -> str:
        return "error" if self.kind in _ERROR_KINDS else "warning"


@dataclass
class ValidationReport:
    """Structured result of validating one profile table or CSV file."""

    source: str
    rows_checked: int
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no *error*-severity issues were found."""
        return not any(i.severity == "error" for i in self.issues)

    @property
    def clean(self) -> bool:
        """True when no issues at all (not even warnings) were found."""
        return not self.issues

    def counts_by_kind(self) -> dict[str, int]:
        return dict(Counter(issue.kind for issue in self.issues))

    def summary(self) -> str:
        if self.clean:
            return f"{self.source}: OK ({self.rows_checked} rows, no issues)"
        parts = ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(self.counts_by_kind().items())
        )
        status = "OK with warnings" if self.ok else "CORRUPT"
        return (
            f"{self.source}: {status} ({self.rows_checked} rows, "
            f"{len(self.issues)} issues: {parts})"
        )


# --------------------------------------------------------------------- #
# Table-level validation


def validate_table(
    table: ProfileTable, declared_rows: int | None = None
) -> ValidationReport:
    """Check every pipeline-relied invariant of ``table``."""
    report = ValidationReport(
        source=f"table:{table.workload}", rows_checked=len(table)
    )
    issues = report.issues

    if len(table) == 0:
        issues.append(ValidationIssue("empty-table", "table has no rows"))
        return report

    if declared_rows is not None and declared_rows != len(table):
        issues.append(ValidationIssue(
            "row-count-mismatch",
            f"declared {declared_rows} rows, found {len(table)} "
            "(truncated or dropped rows?)",
        ))

    def flag_rows(mask: np.ndarray, kind: str, describe) -> None:
        for row in np.flatnonzero(mask):
            issues.append(ValidationIssue(
                kind, describe(int(row)), row=int(row),
                kernel=table.kernel_name_of_row(int(row)),
            ))

    flag_rows(
        table.insn_count <= 0, "nonpositive-insn",
        lambda r: f"insn_count={int(table.insn_count[r])}",
    )
    flag_rows(
        table.cta_size <= 0, "nonpositive-cta-size",
        lambda r: f"cta_size={int(table.cta_size[r])}",
    )
    flag_rows(
        table.num_ctas <= 0, "nonpositive-num-ctas",
        lambda r: f"num_ctas={int(table.num_ctas[r])}",
    )

    if table.metrics is not None:
        bad = ~np.isfinite(table.metrics)
        for row, col in zip(*np.nonzero(bad)):
            issues.append(ValidationIssue(
                "nonfinite-metric",
                f"metric {table.metric_names[col]!r} is "
                f"{table.metrics[row, col]!r}",
                row=int(row), kernel=table.kernel_name_of_row(int(row)),
            ))
        negative = np.isfinite(table.metrics) & (table.metrics < 0)
        for row, col in zip(*np.nonzero(negative)):
            issues.append(ValidationIssue(
                "negative-metric",
                f"metric {table.metric_names[col]!r} = "
                f"{float(table.metrics[row, col])!r} < 0",
                row=int(row), kernel=table.kernel_name_of_row(int(row)),
            ))

    # Per-kernel invocation-id structure: ids must be strictly increasing
    # in chronological (row) order; equal ids are duplicates, decreasing
    # ids are ordering corruption, skipped ids are dropped invocations.
    for kernel_id in range(table.num_kernels):
        rows = table.rows_for_kernel(kernel_id)
        if len(rows) == 0:
            continue
        name = table.kernel_names[kernel_id]
        ids = table.invocation_id[rows]
        deltas = np.diff(ids)
        for j in np.flatnonzero(deltas == 0):
            issues.append(ValidationIssue(
                "duplicate-invocation",
                f"invocation {int(ids[j + 1])} appears twice",
                row=int(rows[j + 1]), kernel=name,
            ))
        for j in np.flatnonzero(deltas < 0):
            issues.append(ValidationIssue(
                "nonmonotonic-invocation",
                f"invocation id drops from {int(ids[j])} to {int(ids[j + 1])}",
                row=int(rows[j + 1]), kernel=name,
            ))
        gaps = int(ids[0]) + int(np.sum(np.maximum(deltas - 1, 0)))
        if gaps > 0:
            issues.append(ValidationIssue(
                "invocation-gap",
                f"{gaps} invocation ids missing from the sequence",
                kernel=name,
            ))

    return report


# --------------------------------------------------------------------- #
# Lenient CSV validation


class _LenientReader(ProfileTableReader):
    """The profile reader, recording malformed rows instead of raising."""

    def __init__(self, path: Path):
        self.issues: list[ValidationIssue] = []
        super().__init__(path, fmt="csv")

    def _reject_row(self, message: str, line: int | None) -> None:
        # A short count (no line) is validate_table's row-count warning.
        if line is not None:
            self.issues.append(ValidationIssue("malformed-row", message, row=line))


def validate_profile_csv(
    path: str | Path,
) -> tuple[ValidationReport, ProfileTable | None]:
    """Scan a profile CSV leniently, reporting every problem found.

    Unlike :func:`repro.profiling.csv_io.read_profile_csv` this never
    raises on malformed *rows*: each one becomes a ``malformed-row`` issue
    (with its 1-based line number) and is skipped. The salvaged rows are
    assembled into a table which then runs through :func:`validate_table`;
    that report's issues are merged in. Returns ``(report, table)`` where
    ``table`` is ``None`` only when nothing was salvageable: an unreadable
    file, preamble or header, text that is not valid UTF-8, or zero good
    rows.
    """
    path = Path(path)
    report = ValidationReport(source=str(path), rows_checked=0)
    try:
        reader = _LenientReader(path)
        chunks = list(reader)
    except OSError as exc:
        report.issues.append(ValidationIssue("unreadable-file", str(exc)))
        return report, None
    except ProfileError as exc:
        undecodable = isinstance(exc.__cause__, UnicodeDecodeError)
        report.issues.append(ValidationIssue(
            "unreadable-file" if undecodable else "malformed-header",
            str(exc), row=exc.row,
        ))
        return report, None

    report.issues.extend(reader.issues)
    report.rows_checked = reader.rows_read + len(reader.issues)
    if not chunks:
        report.issues.append(ValidationIssue(
            "empty-table", "no parseable invocation rows"
        ))
        return report, None
    table = concat_profile_tables(chunks)
    table_report = validate_table(table, declared_rows=reader.declared_rows)
    report.issues.extend(table_report.issues)
    return report, table


# --------------------------------------------------------------------- #
# Repair


@dataclass(frozen=True)
class RepairAction:
    """One repair decision: what was dropped or imputed, and why."""

    kind: str  # "drop-row" | "impute-metric" | "clamp-metric"
    row: int
    kernel: str
    detail: str


@dataclass
class RepairResult:
    """A repaired table plus the full log of actions taken."""

    table: ProfileTable
    actions: list[RepairAction]

    @property
    def changed(self) -> bool:
        return bool(self.actions)


def repair_table(
    table: ProfileTable, report: ValidationReport | None = None
) -> RepairResult:
    """Drop or impute every error-level defect of ``table``.

    Policy, in order: duplicate/non-monotonic invocation rows are dropped
    (first occurrence wins); rows with non-positive instruction counts or
    launch shapes are dropped (their true magnitudes are unknowable);
    non-finite metric cells are imputed with the kernel's column mean over
    clean rows (falling back to the global column mean, then 0.0);
    negative metric cells are clamped to 0. Missing-data warnings
    (invocation gaps, truncation) are unrepairable and left as-is.

    The result always satisfies ``validate_table(result.table).ok`` —
    except for the degenerate case where *every* row is defective, which
    raises :class:`ProfileError` instead of emitting an empty table.
    """
    if report is None:
        report = validate_table(table)
    actions: list[RepairAction] = []
    if not report.issues or len(table) == 0:
        return RepairResult(table=table, actions=actions)

    n = len(table)
    drop = np.zeros(n, dtype=bool)

    def mark_drop(mask: np.ndarray, why) -> None:
        for row in np.flatnonzero(mask & ~drop):
            actions.append(RepairAction(
                "drop-row", int(row), table.kernel_name_of_row(int(row)),
                why(int(row)),
            ))
        drop[mask] = True

    # Duplicate / out-of-order invocation ids: keep the first occurrence
    # of each (kernel, invocation) pair, then drop any row that still
    # breaks monotonicity.
    seen: set[tuple[int, int]] = set()
    dup = np.zeros(n, dtype=bool)
    last_id: dict[int, int] = {}
    for row in range(n):
        key = (int(table.kernel_id[row]), int(table.invocation_id[row]))
        if key in seen:
            dup[row] = True
            continue
        seen.add(key)
        prev = last_id.get(key[0])
        if prev is not None and key[1] < prev:
            dup[row] = True  # out of order relative to rows already kept
            continue
        last_id[key[0]] = key[1]
    mark_drop(dup, lambda r: (
        f"duplicate or out-of-order invocation {int(table.invocation_id[r])}"
    ))

    mark_drop(
        table.insn_count <= 0,
        lambda r: f"non-positive insn_count {int(table.insn_count[r])}",
    )
    mark_drop(
        table.cta_size <= 0,
        lambda r: f"non-positive cta_size {int(table.cta_size[r])}",
    )
    mark_drop(
        table.num_ctas <= 0,
        lambda r: f"non-positive num_ctas {int(table.num_ctas[r])}",
    )

    if bool(drop.all()):
        raise ProfileError(
            f"table {table.workload!r}: every row is defective, "
            "nothing to repair"
        )

    keep = ~drop
    metrics = None if table.metrics is None else table.metrics[keep].copy()
    kept_rows = np.flatnonzero(keep)
    kernel_id = table.kernel_id[keep]

    if metrics is not None:
        bad = ~np.isfinite(metrics)
        if bad.any():
            for col in np.flatnonzero(bad.any(axis=0)):
                col_bad = bad[:, col]
                col_values = metrics[:, col]
                global_clean = col_values[~col_bad]
                global_mean = (
                    float(global_clean.mean()) if len(global_clean) else 0.0
                )
                for row in np.flatnonzero(col_bad):
                    same_kernel = (kernel_id == kernel_id[row]) & ~col_bad
                    kernel_clean = col_values[same_kernel]
                    value = (
                        float(kernel_clean.mean())
                        if len(kernel_clean)
                        else global_mean
                    )
                    metrics[row, col] = value
                    actions.append(RepairAction(
                        "impute-metric", int(kept_rows[row]),
                        table.kernel_name_of_row(int(kept_rows[row])),
                        f"metric {table.metric_names[col]!r} imputed with "
                        f"kernel mean {value:g}",
                    ))
        negative = metrics < 0
        for row, col in zip(*np.nonzero(negative)):
            actions.append(RepairAction(
                "clamp-metric", int(kept_rows[row]),
                table.kernel_name_of_row(int(kept_rows[row])),
                f"metric {table.metric_names[col]!r} clamped "
                f"{float(metrics[row, col]):g} -> 0",
            ))
        metrics[negative] = 0.0

    if not actions:
        return RepairResult(table=table, actions=actions)

    repaired = ProfileTable(
        workload=table.workload,
        kernel_names=table.kernel_names,
        kernel_id=kernel_id,
        invocation_id=table.invocation_id[keep],
        insn_count=table.insn_count[keep],
        cta_size=table.cta_size[keep],
        num_ctas=table.num_ctas[keep],
        metrics=metrics,
        metric_names=table.metric_names,
    )
    return RepairResult(table=repaired, actions=actions)
