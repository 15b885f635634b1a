"""Table II: execution characteristics profiled by PKS versus Sieve."""

from repro.evaluation.experiments import table2_metrics
from repro.evaluation.reporting import FIGURE_TABLES

from _common import banner, emit


def test_table2_metrics(benchmark):
    rows = benchmark.pedantic(table2_metrics, rounds=1, iterations=1)
    banner("Table II: execution characteristics (PKS: 12, Sieve: 1)")
    emit(FIGURE_TABLES["table2"].render(rows))
    assert sum(1 for r in rows if r["pks"]) == 12
    assert sum(1 for r in rows if r["sieve"]) == 1
