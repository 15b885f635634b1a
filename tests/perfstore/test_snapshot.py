"""The committed store snapshot is a working baseline for every CI gate.

CI gates each figure below with ``report --against`` the snapshot's
latest version for that figure. For each one the stored runs must be a
real sample, and the gate at its default floors must have teeth on
them: it fails every wall doubled, passes walls rescaled by rerun
jitter, and fails a 1e-4 relative accuracy drift.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.perfstore.gate import gate_manifests, render_gate_report
from repro.perfstore.store import PerfStore

SNAPSHOT = Path(__file__).resolve().parents[2] / "benchmarks" / "perfstore"
FIGURES = ("fig3", "fig6", "scale", "streaming", "service")
RERUN_JITTER = (0.98, 1.01, 1.02)


def scaled(manifest, factor):
    """``manifest`` with every wall time multiplied by ``factor``."""
    return dataclasses.replace(
        manifest,
        total_wall_s=manifest.total_wall_s * factor,
        stages=tuple(
            dataclasses.replace(
                stage, wall_s=stage.wall_s * factor, self_s=stage.self_s * factor
            )
            for stage in manifest.stages
        ),
    )


def nudged(manifest, rel=1e-4):
    """One nonzero ``*_error`` (or, without any, one aggregate) moved by
    ``rel``."""
    for index, row in enumerate(manifest.workloads):
        for key, value in sorted(row.items()):
            if key.endswith("_error") and isinstance(value, (int, float)) and value:
                rows = list(manifest.workloads)
                rows[index] = {**row, key: value * (1 + rel)}
                return dataclasses.replace(manifest, workloads=tuple(rows))
    key = next(
        k
        for k, v in sorted(manifest.aggregates.items())
        if isinstance(v, (int, float)) and v
    )
    aggregates = {**manifest.aggregates, key: manifest.aggregates[key] * (1 + rel)}
    return dataclasses.replace(manifest, aggregates=aggregates)


@pytest.mark.parametrize("figure", FIGURES)
def test_snapshot_baseline_has_teeth(figure):
    store = PerfStore(SNAPSHOT)
    version = store.latest_version(figure)
    assert version is not None, f"no stored {figure} baseline"
    assert len(store.fingerprints(version, figure)) == 1
    runs = [run.manifest for run in store.runs(version, figure)]
    assert len(runs) >= 3

    slow = gate_manifests(runs, [scaled(m, 2.0) for m in runs], figure=figure)
    assert slow.regressed
    assert {row.kind for row in slow.failures} <= {"total-wall", "stage-wall"}
    assert ("total-wall", "total") in {(r.kind, r.name) for r in slow.failures}

    rerun = gate_manifests(
        runs, [scaled(m, f) for m, f in zip(runs, RERUN_JITTER)], figure=figure
    )
    assert not rerun.regressed, render_gate_report(rerun)

    drift = gate_manifests(runs, [nudged(m) for m in runs], figure=figure)
    assert drift.regressed
    assert [row.verdict for row in drift.failures] == ["drifted"]
