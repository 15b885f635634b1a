"""Smoke tests for the manifest renderers."""

import dataclasses

from repro.observability.manifest import RunManifest, StageStat
from repro.observability.report import (
    _diff_attribution,
    render_attribution,
    render_manifest,
)


def _manifest(total, stage_wall, error=0.012):
    return RunManifest(
        command="sieve-repro compare",
        created="2026-01-01T00:00:00+00:00",
        package_version="1.0.0",
        source_fingerprint="abcdef0123456789",
        total_wall_s=total,
        total_cpu_s=total,
        stages=(
            StageStat(
                name="sieve.stratify", count=2, wall_s=stage_wall,
                self_s=stage_wall, cpu_s=stage_wall,
            ),
        ),
        workloads=({"workload": "cactus/gru", "sieve_error": error},),
        aggregates={"sieve_avg": error},
        cache={"jobs": 1, "enabled": True, "hits": 3, "misses": 1,
               "writes": 1, "invalid": 0},
        events=({"kind": "engine.pool_failure", "exception": "OSError('x')"},),
    )


def test_render_manifest_includes_key_sections():
    text = render_manifest(_manifest(1.0, 0.6))
    assert "sieve-repro compare" in text
    assert "sieve.stratify" in text
    assert "60.00%" in text  # stage share of total
    assert "cactus/gru" in text
    assert "1.20%" in text  # *_error rendered as a percentage
    assert "sieve_avg" in text
    assert "3 hits / 1 misses" in text
    assert "engine.pool_failure" in text
    render_manifest(_manifest(0.0, 0.0))  # zero total wall: no division by 0


# --------------------------------------------------------------------- #
# Attribution rendering


def _attribution_entry(signed=-0.02, kernel_contribution=-0.015):
    return {
        "workload": "cactus/gru",
        "method": "sieve",
        "predicted_cycles": 9.8e8,
        "measured_cycles": 1.0e9,
        "signed_error": signed,
        "per_kernel": [
            {
                "kernel_name": "gru_k000",
                "predicted_cycles": 4.0e8,
                "measured_cycles": 4.15e8,
                "contribution": kernel_contribution,
                "num_representatives": 2,
            },
            {
                "kernel_name": "gru_k001",
                "predicted_cycles": 5.8e8,
                "measured_cycles": 5.85e8,
                "contribution": signed - kernel_contribution,
                "num_representatives": 1,
            },
        ],
        "per_group": [
            {
                "group": "gru_k000/s0",
                "kernel_name": "gru_k000",
                "size": 51,
                "weight": 0.1,
                "predicted_cycles": 4.0e8,
                "measured_cycles": 4.15e8,
                "contribution": kernel_contribution,
            },
        ],
        "groups_partition": True,
        "health": [
            {
                "group": "gru_k000/s0",
                "kernel_name": "gru_k000",
                "tier": "IRREGULAR",
                "size": 51,
                "occupancy": 0.12,
                "insn_cov": 0.55,
                "cov_drift": 0.15,
                "rep_distance": 0.08,
                "split_balance": 0.9,
            },
        ],
    }


def test_render_attribution_tables():
    text = render_attribution([_attribution_entry()])
    assert "cactus/gru · sieve" in text
    assert "-2.000%" in text  # signed error, signed formatting
    assert "gru_k000" in text
    assert "strata above the CoV target:" in text
    assert "+0.150" in text  # cov drift rendered signed


def test_render_attribution_marks_non_partitioning_groups():
    entry = _attribution_entry()
    entry["groups_partition"] = False
    text = render_attribution([entry])
    assert "per-group (non-partitioning):" in text


def test_render_attribution_top_bounds_rows():
    entry = _attribution_entry()
    text = render_attribution([entry], top=1)
    # Only the largest |contribution| kernel survives the cut.
    assert "gru_k000" in text
    assert text.count("gru_k001") == 0


def test_diff_attribution_reports_drift_and_largest_mover():
    baseline = dataclasses.replace(
        _manifest(1.0, 0.6), attribution=(_attribution_entry(),)
    )
    current = dataclasses.replace(
        _manifest(1.0, 0.6),
        attribution=(_attribution_entry(signed=-0.05, kernel_contribution=-0.045),),
    )
    text = _diff_attribution(baseline, current)
    assert "attribution drift:" in text
    assert "cactus/gru · sieve" in text
    assert "-3.000%" in text  # delta between the signed errors
    assert "gru_k000" in text  # the kernel that moved most


def test_diff_attribution_empty_when_absent():
    baseline = _manifest(1.0, 0.6)
    assert _diff_attribution(baseline, baseline) == ""
