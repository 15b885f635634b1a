"""Plain-text table rendering for benches, the CLI and EXPERIMENTS.md."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    materialized = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    separator = "  ".join("-" * w for w in widths)
    body = [line(headers), separator]
    body += [line(row) for row in materialized]
    return "\n".join(body)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def percent(value: float) -> str:
    """Format a ratio as a percentage string."""
    return f"{value * 100:.2f}%"


def times(value: float) -> str:
    """Format a speedup as e.g. '1272x'."""
    return f"{value:,.0f}x"


class Column(NamedTuple):
    """A table column: its row key, cell format (by default the raw value,
    which ``format_table`` renders) and header, if not the key."""

    key: str
    cell: Callable[[Any], object] = lambda value: value
    header: str | None = None


@dataclass(frozen=True)
class TableSpec:
    """A figure table's layout, shared by its CLI command and its bench.
    ``rest`` formats every further key of the rows as a column headed by
    the key (Figure 2's tier fractions per theta)."""

    columns: tuple[Column, ...]
    rest: Callable[[Any], object] | None = None

    def render(self, rows: Sequence[Mapping[str, Any]]) -> str:
        columns = list(self.columns)
        if self.rest is not None and rows:
            named = {column.key for column in columns}
            columns += [Column(key, self.rest) for key in rows[0] if key not in named]
        return format_table(
            [column.header or column.key for column in columns],
            [[column.cell(row[column.key]) for column in columns] for row in rows],
        )


def _fixed(digits: int) -> Callable[[float], str]:
    return lambda value: f"{value:.{digits}f}"


_WORKLOAD = Column("workload")

#: The layout of each paper table and figure that prints as a table.
FIGURE_TABLES = {
    "table1": TableSpec(tuple(map(Column, ("suite", "workload", "kernels", "invocations")))),
    "table2": TableSpec((
        Column("characteristic", header="execution characteristic"),
        Column("pks", header="PKS"),
        Column("sieve", header="Sieve"),
    )),
    "fig2": TableSpec((_WORKLOAD,), rest=percent),
    "fig5": TableSpec((
        _WORKLOAD,
        *(Column(key, percent) for key in ("pks_first", "pks_random", "pks_centroid", "sieve")),
    )),
    "fig7": TableSpec((
        _WORKLOAD,
        Column("pks_days", _fixed(3)),
        Column("sieve_days", _fixed(4)),
        Column("speedup", times),
    )),
    "fig9": TableSpec((
        _WORKLOAD,
        *(Column(key, _fixed(3)) for key in ("hardware", "sieve", "pks")),
        Column("sieve_error", percent, "sieve_err"),
        Column("pks_error", percent, "pks_err"),
    )),
    "fig10": TableSpec((
        Column("theta"),
        *(Column(key, percent) for key in ("avg_error", "max_error")),
        Column("hmean_speedup", times),
    )),
}


def experiment_row_dict(row) -> dict:
    """Flatten an ExperimentRow into a JSON-able manifest/baseline row.

    One column group per method request key — ``<key>_error`` /
    ``<key>_cov`` / ``<key>_speedup`` / ``<key>_reps`` — so manifest
    diffing (which gates on ``*_error`` keys) covers every method an
    experiment ran. Duck-typed so this module stays dependency-free (it
    is imported by :mod:`repro.observability.report`, which must not pull
    in the experiment drivers).
    """
    out: dict = {"workload": row.workload}
    for key, result in row.results.items():
        out[f"{key}_error"] = float(result.error)
        out[f"{key}_cov"] = float(result.cycle_cov)
        out[f"{key}_speedup"] = float(result.speedup)
        out[f"{key}_reps"] = int(result.num_representatives)
    return out

