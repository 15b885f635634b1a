"""The committed adversarial suite: fuzz findings promoted to regressions.

Each entry is a shrunk reproducer from a ``repro.fuzz`` campaign — a
workload (sometimes plus a fault plan) on which at least one sampling
method's prediction error is large or whose stratification-health
gauges flag structural stress. The suite is a standing regression
fence: ``verify_suite`` re-evaluates every entry and checks the pinned
expected errors, and both the tier-1 tests and the CI fuzz smoke job
run it.

Entries are addressable through the catalog (``spec_for``,
``specs_for_suites(("adversarial",))``) but deliberately excluded from
``all_specs()`` — the paper's figures are defined over exactly the 40
Table I workloads.

Regenerate/extend with::

    sieve-repro fuzz --seed <seed> --budget <n> --out <dir>

then promote findings from ``<dir>/findings.json`` (see DESIGN.md §12).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.robustness.faults import FaultPlan, FaultSpec
from repro.utils.atomic import atomic_write
from repro.utils.errors import PromotionError
from repro.workloads.spec import KernelBehavior, WorkloadSpec

#: Pinned errors are exact reproductions of a deterministic pipeline;
#: the tolerance only absorbs float reassociation across platforms.
ERROR_TOLERANCE = 1e-9

#: Schema of the promoted-entries sidecar catalog (see
#: :func:`promoted_catalog_path`).
PROMOTED_SCHEMA = 1

#: Env override for where promoted entries live — tests and ephemeral
#: campaigns point this at a scratch file instead of the committed one.
PROMOTED_ENV = "SIEVE_ADVERSARIAL_PROMOTED"


@dataclass(frozen=True)
class AdversarialEntry:
    """One promoted finding: spec + plan + pinned per-method errors."""

    spec: WorkloadSpec
    #: Invocation cap the pinned errors were measured at.
    max_invocations: int
    #: method name -> absolute relative prediction error at discovery.
    expected_errors: Mapping[str, float]
    fault_plan: FaultPlan | None = None
    #: Provenance: campaign seed and candidate index that found it.
    campaign: str = ""
    source_index: int = -1
    #: What makes it adversarial (shown by ``fuzz --verify-suite``).
    note: str = ""

    @property
    def label(self) -> str:
        return self.spec.label

    def to_dict(self) -> dict:
        """JSON-ready form (the promoted-catalog sidecar format)."""
        fault_plan = None
        if self.fault_plan is not None:
            fault_plan = {
                "seed": self.fault_plan.seed,
                "specs": [
                    {"mode": s.mode, "rate": s.rate} for s in self.fault_plan.specs
                ],
            }
        return {
            "spec": self.spec.to_dict(),
            "max_invocations": self.max_invocations,
            "expected_errors": {
                k: float(v) for k, v in sorted(self.expected_errors.items())
            },
            "fault_plan": fault_plan,
            "campaign": self.campaign,
            "source_index": self.source_index,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AdversarialEntry":
        plan_payload = payload.get("fault_plan")
        fault_plan = None
        if plan_payload is not None:
            fault_plan = FaultPlan(
                specs=tuple(
                    FaultSpec(mode=s["mode"], rate=float(s["rate"]))
                    for s in plan_payload["specs"]
                ),
                seed=int(plan_payload["seed"]),
            )
        return cls(
            spec=WorkloadSpec.from_dict(payload["spec"]),
            max_invocations=int(payload["max_invocations"]),
            expected_errors={
                k: float(v) for k, v in payload["expected_errors"].items()
            },
            fault_plan=fault_plan,
            campaign=str(payload.get("campaign", "")),
            source_index=int(payload.get("source_index", -1)),
            note=str(payload.get("note", "")),
        )


#: Hand-curated findings from campaign ``ispass-2023-adversarial`` (budget
#: 24, threshold 0.10, max_invocations 1200). Pinned errors were
#: measured at each entry's ``max_invocations`` with default method
#: configs; see ``tests/fuzz/test_adversarial_suite.py``.
_STATIC_ENTRIES: tuple[AdversarialEntry, ...] = (
    AdversarialEntry(
        spec=WorkloadSpec(
            name="srad-negative-insn",
            suite="adversarial",
            num_kernels=6,
            num_invocations=502,
            tier_fractions=(0.7, 0.3, 0.0),
            insn_scale=200000000.0,
            invocation_skew=0.5,
            alias_groups=6,
            metric_direction_sigma=0.2,
            heterogeneity=0.25,
            behavior=KernelBehavior(tier2_cov=0.15),
        ),
        max_invocations=1200,
        expected_errors={
            "pks": 0.00041724557486300367,
            "sieve": 0.27621742855539155,
        },
        fault_plan=FaultPlan(
            specs=(FaultSpec(mode="negative", rate=0.12695748673334212),),
            seed=7,
        ),
        campaign="ispass-2023-adversarial",
        source_index=7,
        note=(
            "The shrinker reduced this finding to the base rodinia/srad "
            "spec: negated insn counts alone push Sieve to ~28% error "
            "(corrupt sizes scramble the CoV tiering) while PKS, keyed "
            "on the 12-metric vector, barely moves."
        ),
    ),
    AdversarialEntry(
        spec=WorkloadSpec(
            name="lgt-skewed",
            suite="adversarial",
            num_kernels=74,
            num_invocations=266353,
            tier_fractions=(0.42, 0.38, 0.2),
            insn_scale=600000000.0,
            invocation_skew=0.9120987102193221,
            alias_groups=6,
            metric_direction_sigma=0.9,
            heterogeneity=0.3,
            drift_fraction=0.28,
            drift_factor=0.22,
            chrono_size_correlation=0.95,
            turing_biased_fraction=0.4,
            turing_factor=1.25,
            behavior=KernelBehavior(
                tier2_cov=0.8,
                tier3_modes=8,
                tier3_spread=60.0,
                tier3_mode_cov=0.3,
            ),
        ),
        max_invocations=1200,
        expected_errors={
            "pks": 0.12968473086944285,
            "sieve": 0.0050322310536225195,
        },
        campaign="ispass-2023-adversarial",
        source_index=1,
        note=(
            "cactus/lgt with a nudged invocation skew at half scale: "
            "PKS's first-chronological representatives land ~13% off on "
            "the drifting, strongly size-correlated kernels."
        ),
    ),
    AdversarialEntry(
        spec=WorkloadSpec(
            name="ssd-mobilenet-hetero-b",
            suite="adversarial",
            num_kernels=17,
            num_invocations=32069,
            tier_fractions=(0.5, 0.35, 0.15),
            insn_scale=600000000.0,
            alias_groups=5,
            metric_direction_sigma=0.6,
            heterogeneity=1.247987847547302,
            drift_fraction=0.15,
            drift_factor=0.3,
            chrono_size_correlation=0.85,
            profiling_complexity=2.4,
            behavior=KernelBehavior(
                tier2_cov=0.3,
                tier3_modes=5,
                tier3_spread=25.0,
                tier3_mode_cov=0.18,
            ),
        ),
        max_invocations=1200,
        expected_errors={
            "pks": 0.08006700348505193,
            "sieve": 0.0028458704915003278,
        },
        campaign="ispass-2023-adversarial",
        source_index=8,
        note=(
            "mlperf/ssd-mobilenet with 5x the hidden per-kernel "
            "heterogeneity and fewer kernels: aliased kernels stop "
            "sharing microarchitectural behaviour, so PKS clusters mix "
            "unlike kernels (~8% error)."
        ),
    ),
    AdversarialEntry(
        spec=WorkloadSpec(
            name="ssd-mobilenet-trimodal-b",
            suite="adversarial",
            num_kernels=33,
            num_invocations=32069,
            tier_fractions=(0.5, 0.35, 0.15),
            insn_scale=600000000.0,
            alias_groups=5,
            metric_direction_sigma=0.6,
            heterogeneity=0.25,
            drift_fraction=0.15,
            drift_factor=0.3,
            chrono_size_correlation=0.85,
            profiling_complexity=2.4,
            behavior=KernelBehavior(
                tier2_cov=0.3,
                tier3_modes=3,
                tier3_spread=25.0,
                tier3_mode_cov=0.18,
            ),
        ),
        max_invocations=1200,
        expected_errors={
            "pks": 0.17450473886894252,
            "sieve": 0.004442071986791278,
        },
        campaign="ispass-2023-adversarial",
        source_index=11,
        note=(
            "mlperf/ssd-mobilenet with Tier-3 kernels collapsed to 3 "
            "wide modes: per-cluster dispersion explodes and PKS's "
            "single representative per cluster misses by ~17%."
        ),
    ),
)

_COMMITTED_PROMOTED = Path(__file__).with_name("adversarial_promoted.json")


def promoted_catalog_path() -> Path:
    """Where ``sieve-repro fuzz promote`` lands entries.

    ``$SIEVE_ADVERSARIAL_PROMOTED`` wins; the default is a JSON sidecar
    next to this module so the promoted suite is committed alongside the
    hand-curated one.
    """
    configured = os.environ.get(PROMOTED_ENV)
    if configured:
        return Path(configured)
    return _COMMITTED_PROMOTED


def load_promoted_entries(
    path: Path | str | None = None,
) -> tuple[AdversarialEntry, ...]:
    """Entries from the promoted-catalog sidecar (empty when absent)."""
    path = Path(path) if path is not None else promoted_catalog_path()
    if not path.exists():
        return ()
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise PromotionError(
            f"unreadable promoted catalog {path}: {exc}", path=str(path)
        ) from exc
    if payload.get("schema") != PROMOTED_SCHEMA:
        raise PromotionError(
            "promoted catalog schema mismatch",
            path=str(path),
            found=payload.get("schema"),
            expected=PROMOTED_SCHEMA,
        )
    return tuple(
        AdversarialEntry.from_dict(entry) for entry in payload.get("entries", [])
    )


def save_promoted_entries(
    entries: "Iterable[AdversarialEntry]", path: Path | str | None = None
) -> Path:
    """Write the promoted catalog atomically (sorted by label)."""
    path = Path(path) if path is not None else promoted_catalog_path()
    ordered = sorted(entries, key=lambda e: e.label)
    payload = {
        "schema": PROMOTED_SCHEMA,
        "entries": [entry.to_dict() for entry in ordered],
    }
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    global _memo
    _memo = None
    return path


#: ``(signature, entries)`` of the last :func:`_all_entries` answer.
_memo: tuple[tuple, tuple[AdversarialEntry, ...]] | None = None


def _all_entries() -> tuple[AdversarialEntry, ...]:
    """Static entries plus whatever the promoted catalog holds *now*.

    Memoized on the promoted file's path and stat signature (inode,
    size, ``mtime_ns``; an absent file is one more state), so an
    unchanged file is parsed once, while a promotion written by this
    process or another is visible at the next call without reimports.
    """
    global _memo
    path = promoted_catalog_path()
    try:
        stat = os.stat(path)
        signature: tuple = (path, stat.st_ino, stat.st_size, stat.st_mtime_ns)
    except FileNotFoundError:
        signature = (path, None)
    if _memo is None or _memo[0] != signature:
        _memo = (signature, _STATIC_ENTRIES + load_promoted_entries(path))
    return _memo[1]


def __getattr__(name: str):
    # PEP 562: ADVERSARIAL_ENTRIES/ADVERSARIAL_SPECS stay importable but
    # are computed per access so promoted entries join the suite live.
    if name == "ADVERSARIAL_ENTRIES":
        return _all_entries()
    if name == "ADVERSARIAL_SPECS":
        return tuple(entry.spec for entry in _all_entries())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def verify_suite(engine=None) -> list[dict]:
    """Re-evaluate every entry against its pinned errors.

    Returns one row per (entry, method):
    ``{"label", "method", "expected", "actual", "ok"}``. Rows are in
    suite order then method order, so output is deterministic. An empty
    suite verifies vacuously.
    """
    from repro.evaluation.engine import (
        EngineConfig,
        EvaluationEngine,
        EvaluationTask,
    )

    if engine is None:
        engine = EvaluationEngine(EngineConfig(jobs=1, use_cache=False))
    entries = _all_entries()
    outcomes = engine.run(
        [
            EvaluationTask(
                label=entry.label,
                max_invocations=entry.max_invocations,
                fault_plan=entry.fault_plan,
                methods=tuple(sorted(entry.expected_errors)),
            )
            for entry in entries
        ]
    )
    rows: list[dict] = []
    for entry, results in zip(entries, outcomes):
        for method in sorted(entry.expected_errors):
            expected = float(entry.expected_errors[method])
            actual = abs(results[method].error)
            scale = max(abs(expected), 1.0)
            rows.append(
                {
                    "label": entry.label,
                    "method": method,
                    "expected": expected,
                    "actual": actual,
                    "ok": abs(actual - expected) <= ERROR_TOLERANCE * scale,
                }
            )
    return rows
