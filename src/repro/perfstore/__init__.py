"""Perun-style performance version store.

Profiles (run manifests) attach to VCS versions; multiple runs per
version are first-class, so degradation checks between versions are
*statistical* (rank tests + bootstrap confidence intervals over repeated
runs) instead of single-sample ratio thresholds.

Layers:

* :mod:`repro.perfstore.store` — content-addressed object store keyed by
  ``(version, figure, config_fingerprint)`` with an append-only run log
  per key and a compact index;
* :mod:`repro.perfstore.stats` — distribution summaries (median, MAD,
  bootstrap CIs) and the noise-aware degradation test;
* :mod:`repro.perfstore.gate` — statistical diff of two run *sets*
  (per-stage walls, per-workload accuracy, aggregates) with explicit
  new/removed-stage reporting;
* :mod:`repro.perfstore.lineage` — "when did stratify get slower":
  version-ordered logs and bisect hints;
* :mod:`repro.perfstore.promote` — one-command promotion of fuzz
  findings into the committed adversarial suite.
"""

from __future__ import annotations

from repro.perfstore.gate import GateReport, GateRow, gate_manifests, render_gate_report
from repro.perfstore.lineage import (
    bisect_hint,
    extract_metric,
    parse_selector,
    perf_log,
    render_bisect_hint,
    render_perf_log,
    version_order,
)
from repro.perfstore.promote import promote_findings, render_promotion
from repro.perfstore.stats import (
    DistributionSummary,
    GateVerdict,
    bootstrap_ci,
    degradation_test,
    mann_whitney_p,
    summarize,
)
from repro.perfstore.store import (
    IngestReceipt,
    PerfStore,
    StoredRun,
    current_version,
    default_store_dir,
    figure_from_command,
    maybe_record,
    store_from_env,
)

__all__ = [
    "DistributionSummary",
    "GateReport",
    "GateRow",
    "GateVerdict",
    "IngestReceipt",
    "PerfStore",
    "StoredRun",
    "bisect_hint",
    "bootstrap_ci",
    "current_version",
    "default_store_dir",
    "degradation_test",
    "extract_metric",
    "figure_from_command",
    "gate_manifests",
    "mann_whitney_p",
    "maybe_record",
    "parse_selector",
    "perf_log",
    "promote_findings",
    "render_bisect_hint",
    "render_gate_report",
    "render_perf_log",
    "render_promotion",
    "store_from_env",
    "summarize",
    "version_order",
]
