"""Plain-text table rendering for benches, the CLI and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Iterable, Sequence


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

