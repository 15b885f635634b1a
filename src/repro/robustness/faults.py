"""Deterministic, seedable fault injection for profiles and measurements.

Real profiler output (nvprof/NVBit/Nsight, Section IV) fails in a small
number of characteristic ways: invocations get dropped, runs get truncated,
counters come back NaN or negative, rows get duplicated, and golden cycle
counts pick up noise or clock drift. This module reproduces each failure
mode in a controlled, composable, seed-deterministic way so the validator
and the pipelines' degraded paths can be tested against known corruption.

Three injection surfaces share one :class:`FaultPlan`:

* :func:`inject_table_faults` — corrupt an in-memory :class:`ProfileTable`;
* :func:`inject_csv_faults` — corrupt a profile CSV *file* byte-wise
  (including text-level garbling the table form cannot express);
* :func:`inject_measurement_faults` — corrupt a golden
  :class:`WorkloadMeasurement`.

Each surface applies only the fault modes in its domain and ignores the
rest, so one composite plan drives a whole experiment. At rate 0 every
injector is a strict identity (byte-identical for CSV files) — a property
the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.gpu.hardware import WorkloadMeasurement
from repro.profiling.table import ProfileTable
from repro.utils.errors import FaultInjectionError
from repro.utils.seeding import rng_for
from repro.utils.validation import require

#: mode name -> surfaces it applies to. The ``task`` surface corrupts the
#: *execution* of an evaluation task rather than its data: ``hang`` stalls
#: the worker past any deadline, ``crash`` kills the worker process
#: outright and ``task_error`` raises an ordinary exception. These are
#: applied only by the resilient engine's isolated workers
#: (:meth:`repro.evaluation.engine.EvaluationEngine.run_isolated`) — the
#: chaos half of the fuzzing harness.
FAULT_MODES: dict[str, frozenset[str]] = {
    "drop": frozenset({"table", "csv"}),
    "truncate": frozenset({"table", "csv"}),
    "duplicate": frozenset({"table", "csv"}),
    "nan": frozenset({"table", "csv"}),
    "negative": frozenset({"table", "csv"}),
    "garble": frozenset({"csv"}),
    "cycle_noise": frozenset({"measurement"}),
    "clock_drift": frozenset({"measurement"}),
    "zero_cycles": frozenset({"measurement"}),
    "hang": frozenset({"task"}),
    "crash": frozenset({"task"}),
    "task_error": frozenset({"task"}),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault mode at one rate (fraction of rows/invocations hit)."""

    mode: str
    rate: float

    def __post_init__(self) -> None:
        require(
            self.mode in FAULT_MODES,
            f"unknown fault mode {self.mode!r}; known: {sorted(FAULT_MODES)}",
            FaultInjectionError,
        )
        require(
            0.0 <= self.rate <= 1.0,
            f"fault rate must be in [0, 1], got {self.rate}",
            FaultInjectionError,
        )


@dataclass(frozen=True)
class FaultPlan:
    """A composable, hashable set of fault specs plus an injection seed."""

    specs: tuple[FaultSpec, ...]
    seed: int = 0

    def for_surface(self, surface: str) -> tuple[FaultSpec, ...]:
        """The subset of specs applicable to ``surface``."""
        return tuple(s for s in self.specs if surface in FAULT_MODES[s.mode])

    def describe(self) -> str:
        return ",".join(f"{s.mode}:{s.rate:g}" for s in self.specs) or "none"


@dataclass(frozen=True)
class FaultRecord:
    """One injected corruption: what was done, and where."""

    mode: str
    location: str  # e.g. "table row 17", "csv line 42", "kernel k3 inv 5"
    detail: str


def parse_fault_plan(text: str, seed: int = 0) -> FaultPlan:
    """Parse ``"MODE:RATE[,MODE:RATE...]"`` into a :class:`FaultPlan`.

    >>> parse_fault_plan("drop:0.1,nan:0.05").describe()
    'drop:0.1,nan:0.05'
    """
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        mode, sep, rate_text = part.partition(":")
        require(
            bool(sep),
            f"fault spec {part!r} must look like MODE:RATE",
            FaultInjectionError,
        )
        try:
            rate = float(rate_text)
        except ValueError:
            raise FaultInjectionError(
                f"fault rate {rate_text!r} in {part!r} is not a number"
            ) from None
        specs.append(FaultSpec(mode=mode.strip(), rate=rate))
    require(len(specs) > 0, "empty fault plan", FaultInjectionError)
    return FaultPlan(specs=tuple(specs), seed=seed)


def _hit_rows(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Deterministic Bernoulli row selection at ``rate``."""
    if rate <= 0.0 or n == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(rng.random(n) < rate)


# --------------------------------------------------------------------- #
# Task-surface sabotage (engine chaos testing)


def task_sabotage(plan: FaultPlan, label: str, attempt: int) -> str | None:
    """Which sabotage mode (if any) this task attempt should suffer.

    Deterministic in ``(plan.seed, label, attempt)`` and *independent of
    scheduling*: a task decides its own fate per attempt, so ``jobs=1``
    and ``jobs=N`` runs of the resilient engine see identical hang/crash
    sequences — the property the determinism tests pin. The first
    matching spec wins (plan order).
    """
    for spec in plan.for_surface("task"):
        rng = rng_for("faults", plan.seed, spec.mode, label, "task", attempt)
        if spec.rate > 0 and rng.random() < spec.rate:
            return spec.mode
    return None


# --------------------------------------------------------------------- #
# Profile-table faults


def inject_table_faults(
    table: ProfileTable, plan: FaultPlan
) -> tuple[ProfileTable, list[FaultRecord]]:
    """Apply the plan's table-domain faults to ``table``.

    Returns a corrupted copy plus one :class:`FaultRecord` per injected
    corruption. The input table is never mutated. Row-removing modes always
    leave at least one row.
    """
    records: list[FaultRecord] = []
    kernel_id = table.kernel_id.copy()
    invocation_id = table.invocation_id.copy()
    insn = table.insn_count.copy()
    cta_size = table.cta_size.copy()
    num_ctas = table.num_ctas.copy()
    metrics = None if table.metrics is None else table.metrics.copy()

    def n() -> int:
        return len(kernel_id)

    def take(keep: np.ndarray) -> None:
        nonlocal kernel_id, invocation_id, insn, cta_size, num_ctas, metrics
        kernel_id = kernel_id[keep]
        invocation_id = invocation_id[keep]
        insn = insn[keep]
        cta_size = cta_size[keep]
        num_ctas = num_ctas[keep]
        if metrics is not None:
            metrics = metrics[keep]

    for spec in plan.for_surface("table"):
        rng = rng_for("faults", plan.seed, spec.mode, table.workload, "table")
        if spec.mode == "drop":
            hits = _hit_rows(rng, n(), spec.rate)
            if len(hits) >= n():  # never drop everything
                hits = hits[: n() - 1]
            if len(hits):
                keep = np.setdiff1d(np.arange(n()), hits)
                for row in hits:
                    records.append(FaultRecord(
                        "drop", f"table row {int(row)}",
                        f"dropped invocation {int(invocation_id[row])} of "
                        f"kernel {table.kernel_names[int(kernel_id[row])]}",
                    ))
                take(keep)
        elif spec.mode == "truncate":
            cut = int(round(spec.rate * n()))
            cut = min(cut, n() - 1)
            if cut > 0:
                records.append(FaultRecord(
                    "truncate", f"table rows {n() - cut}..{n() - 1}",
                    f"truncated {cut} tail rows",
                ))
                take(np.arange(n() - cut))
        elif spec.mode == "duplicate":
            hits = _hit_rows(rng, n(), spec.rate)
            if len(hits):
                repeats = np.ones(n(), dtype=np.int64)
                repeats[hits] += 1
                for row in hits:
                    records.append(FaultRecord(
                        "duplicate", f"table row {int(row)}",
                        f"duplicated invocation {int(invocation_id[row])} of "
                        f"kernel {table.kernel_names[int(kernel_id[row])]}",
                    ))
                take(np.repeat(np.arange(n()), repeats))
        elif spec.mode == "nan":
            if metrics is None:
                continue  # Sieve tables carry no metric matrix to corrupt
            hits = _hit_rows(rng, n(), spec.rate)
            for row in hits:
                col = int(rng.integers(metrics.shape[1]))
                metrics[row, col] = np.nan
                records.append(FaultRecord(
                    "nan", f"table row {int(row)}",
                    f"metric {table.metric_names[col]!r} set to NaN",
                ))
        elif spec.mode == "negative":
            hits = _hit_rows(rng, n(), spec.rate)
            for row in hits:
                insn[row] = -abs(int(insn[row])) or -1
                records.append(FaultRecord(
                    "negative", f"table row {int(row)}",
                    "insn_count negated",
                ))

    corrupted = ProfileTable(
        workload=table.workload,
        kernel_names=table.kernel_names,
        kernel_id=kernel_id,
        invocation_id=invocation_id,
        insn_count=insn,
        cta_size=cta_size,
        num_ctas=num_ctas,
        metrics=metrics,
        metric_names=table.metric_names,
    )
    return corrupted, records


# --------------------------------------------------------------------- #
# CSV-file faults


def _edit_numeric_field(
    line: str, total_columns: int, column: int, value: str
) -> str:
    """Replace a numeric CSV field addressed from the row *end*.

    Kernel names may contain quoted commas, so fields are indexed from the
    end of the raw comma-split, where all fields are plain numerics.
    """
    parts = line.split(",")
    parts[column - total_columns] = value
    return ",".join(parts)


def _numeric_field(line: str, total_columns: int, column: int) -> str:
    parts = line.split(",")
    return parts[column - total_columns]


def inject_csv_faults(
    path, out_path, plan: FaultPlan
) -> list[FaultRecord]:
    """Corrupt the profile CSV at ``path``, writing to ``out_path``.

    Text-level analogue of :func:`inject_table_faults` plus the ``garble``
    mode (malformed rows, wrong column counts, unparseable fields). Line
    numbers in the returned records are 1-based file line numbers. At rate
    0 the output is byte-identical to the input.
    """
    from pathlib import Path

    raw = Path(path).read_bytes()
    text = raw.decode("utf-8")
    # Preserve the file's exact line-ending convention for byte identity
    # (csv.writer emits \r\n by default).
    terminator = "\r\n" if "\r\n" in text else "\n"
    trailing_newline = text.endswith(("\r\n", "\n"))
    lines = text.splitlines()
    require(
        len(lines) >= 2,
        "profile CSV needs a preamble and a header",
        FaultInjectionError,
    )
    preamble, header = lines[0], lines[1]
    data = lines[2:]
    total_columns = len(header.split(","))
    #: 0-based index of insn_count in the header (no quoted names there).
    insn_column = header.split(",").index("insn_count")
    records: list[FaultRecord] = []

    def line_no(data_index: int) -> int:
        return data_index + 3  # 1-based, after preamble + header

    for spec in plan.for_surface("csv"):
        rng = rng_for("faults", plan.seed, spec.mode, Path(path).name, "csv")
        n = len(data)
        if spec.mode == "drop":
            hits = _hit_rows(rng, n, spec.rate)
            if len(hits) >= n:
                hits = hits[: n - 1]
            for i in hits:
                records.append(FaultRecord(
                    "drop", f"csv line {line_no(int(i))}", "row removed"
                ))
            if len(hits):
                keep = np.setdiff1d(np.arange(n), hits)
                data = [data[i] for i in keep]
        elif spec.mode == "truncate":
            cut = min(int(round(spec.rate * n)), n - 1)
            if cut > 0:
                records.append(FaultRecord(
                    "truncate", f"csv lines {line_no(n - cut)}..{line_no(n - 1)}",
                    f"truncated {cut} tail rows",
                ))
                data = data[: n - cut]
        elif spec.mode == "duplicate":
            hits = set(_hit_rows(rng, n, spec.rate).tolist())
            if hits:
                duplicated = []
                for i, line in enumerate(data):
                    duplicated.append(line)
                    if i in hits:
                        duplicated.append(line)
                        records.append(FaultRecord(
                            "duplicate", f"csv line {line_no(i)}",
                            "row duplicated",
                        ))
                data = duplicated
        elif spec.mode == "nan":
            hits = _hit_rows(rng, n, spec.rate)
            for i in hits:
                column = (
                    int(rng.integers(5, total_columns))
                    if total_columns > 5
                    else insn_column
                )
                data[i] = _edit_numeric_field(
                    data[i], total_columns, column, "nan"
                )
                records.append(FaultRecord(
                    "nan", f"csv line {line_no(int(i))}",
                    f"column {column} set to nan",
                ))
        elif spec.mode == "negative":
            hits = _hit_rows(rng, n, spec.rate)
            for i in hits:
                old = _numeric_field(data[i], total_columns, insn_column)
                data[i] = _edit_numeric_field(
                    data[i], total_columns, insn_column,
                    "-" + old.lstrip("-"),
                )
                records.append(FaultRecord(
                    "negative", f"csv line {line_no(int(i))}",
                    "insn_count negated",
                ))
        elif spec.mode == "garble":
            hits = _hit_rows(rng, n, spec.rate)
            for i in hits:
                style = int(rng.integers(3))
                if style == 0:  # wrong column count: chop trailing fields
                    parts = data[i].split(",")
                    data[i] = ",".join(parts[: max(1, len(parts) - 2)])
                    detail = "trailing columns chopped"
                elif style == 1:  # unparseable integer
                    data[i] = _edit_numeric_field(
                        data[i], total_columns, insn_column, "###"
                    )
                    detail = "insn_count replaced with garbage"
                else:  # row overwritten with junk
                    data[i] = "corrupted"
                    detail = "row overwritten"
                records.append(FaultRecord(
                    "garble", f"csv line {line_no(int(i))}", detail
                ))

    if not records:
        # No edits: copy verbatim so rate-0 plans are byte-identity.
        Path(out_path).write_bytes(raw)
        return records
    out = terminator.join([preamble, header, *data])
    if trailing_newline:
        out += terminator
    Path(out_path).write_bytes(out.encode("utf-8"))
    return records


# --------------------------------------------------------------------- #
# Measurement faults


def inject_measurement_faults(
    measurement: WorkloadMeasurement, plan: FaultPlan
) -> tuple[WorkloadMeasurement, list[FaultRecord]]:
    """Apply the plan's measurement-domain faults to a golden reference.

    ``cycle_noise`` multiplies a fraction of invocations' cycle counts by
    log-normal noise; ``clock_drift`` scales each kernel's cycles by a
    linear drift reaching ``1 + rate`` at the last invocation; and
    ``zero_cycles`` zeroes a fraction of invocations (the classic
    dropped-counter failure the pipelines must impute around).
    """
    specs = plan.for_surface("measurement")
    if not specs:
        return measurement, []

    records: list[FaultRecord] = []
    column = measurement.cycles.astype(np.float64)
    ends = measurement.starts + measurement.counts
    for name, start, end in zip(
        measurement.kernel_names, measurement.starts.tolist(), ends.tolist()
    ):
        cycles = column[start:end]  # a view: each fault edits the column
        for spec in specs:
            rng = rng_for(
                "faults", plan.seed, spec.mode,
                measurement.workload_name, name, "measurement",
            )
            if spec.mode == "cycle_noise":
                hits = _hit_rows(rng, len(cycles), spec.rate)
                if len(hits):
                    noise = rng.lognormal(mean=0.0, sigma=0.5, size=len(hits))
                    cycles[hits] *= noise
                    records.append(FaultRecord(
                        "cycle_noise", f"kernel {name}",
                        f"noised {len(hits)} invocations",
                    ))
            elif spec.mode == "clock_drift":
                if spec.rate > 0 and len(cycles) > 0:
                    drift = 1.0 + spec.rate * (
                        np.arange(len(cycles)) / max(len(cycles) - 1, 1)
                    )
                    cycles *= drift
                    records.append(FaultRecord(
                        "clock_drift", f"kernel {name}",
                        f"applied linear drift up to {1.0 + spec.rate:g}x",
                    ))
            elif spec.mode == "zero_cycles":
                hits = _hit_rows(rng, len(cycles), spec.rate)
                if len(hits):
                    cycles[hits] = 0.0
                    for i in hits:
                        records.append(FaultRecord(
                            "zero_cycles", f"kernel {name} inv {int(i)}",
                            "cycle count zeroed",
                        ))
    return replace(measurement, cycles=np.rint(column).astype(np.int64)), records
