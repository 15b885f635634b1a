"""Table I: workload inventory (suite, workload, #kernels, #invocations)."""

from repro.evaluation.experiments import table1_inventory
from repro.evaluation.reporting import FIGURE_TABLES

from _common import SCALE_CAP, banner, emit


def test_table1_inventory(benchmark):
    rows = benchmark.pedantic(
        table1_inventory, args=(SCALE_CAP,), rounds=1, iterations=1
    )
    banner("Table I: workloads, kernel counts and invocation counts")
    emit(FIGURE_TABLES["table1"].render(rows))
    mismatches = [
        r for r in rows
        if SCALE_CAP is None and (
            r["kernels"] != r["paper_kernels"]
            or r["invocations"] != r["paper_invocations"]
        )
    ]
    emit(f"\nworkloads: {len(rows)}  (paper: 40)  count mismatches: {len(mismatches)}")
    assert len(rows) == 40
    assert not mismatches
