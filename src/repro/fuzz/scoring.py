"""Candidate scoring: prediction error + stratification-health violations.

The fuzzer hunts workloads that make samplers *wrong*, not merely slow,
so the score leads with the worst method's absolute prediction error.
Sieve's stratification-health gauges (:class:`~repro.observability.
attribution.StratumHealth`) then add a structural term: a candidate
whose strata violate the CoV target, park their representative far from
the stratum mean, or split lopsidedly is adversarial even at moderate
error — it sits where the method's assumptions bend, which is exactly
where small implementation changes regress first.

Everything here is pure float arithmetic on values the evaluation
already computed; identical results score identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.evaluation.runner import MethodResult
from repro.observability.attribution import ErrorAttribution


@dataclass(frozen=True)
class GaugeViolations:
    """Aggregated stratification-health violations for one evaluation.

    ``cov_drift`` sums the positive part of each stratum's CoV drift
    (how far above θ its dispersion sits); ``rep_distance`` is the worst
    representative's relative distance from its stratum mean;
    ``split_imbalance`` is ``1 - min(split_balance)`` (0 when every KDE
    split is balanced); ``strata`` counts strata violating any gauge.
    """

    cov_drift: float = 0.0
    rep_distance: float = 0.0
    split_imbalance: float = 0.0
    strata: int = 0

    def to_dict(self) -> dict:
        return {
            "cov_drift": self.cov_drift,
            "rep_distance": self.rep_distance,
            "split_imbalance": self.split_imbalance,
            "strata": self.strata,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GaugeViolations":
        return cls(
            cov_drift=float(payload["cov_drift"]),
            rep_distance=float(payload["rep_distance"]),
            split_imbalance=float(payload["split_imbalance"]),
            strata=int(payload["strata"]),
        )


@dataclass(frozen=True)
class ScoreWeights:
    """How strongly each gauge violation inflates the score."""

    cov_drift: float = 0.5
    rep_distance: float = 0.25
    split_imbalance: float = 0.25


def gauge_violations(attribution: ErrorAttribution | None) -> GaugeViolations:
    """Collapse an attribution's per-stratum health into violation totals.

    Each gauge column is read once, as Python floats, and reduced in
    stratum order.
    """
    if attribution is None or not attribution.health:
        return GaugeViolations()
    health = attribution.health
    cov_drift = health.column("cov_drift").tolist()
    rep_distance = health.column("rep_distance").tolist()
    split_balance = health.column("split_balance").tolist()
    strata = sum(
        1
        for drift, distance, balance in zip(cov_drift, rep_distance, split_balance)
        if drift > 0.0 or distance > 0.5 or balance < 0.1
    )
    return GaugeViolations(
        cov_drift=float(sum(max(0.0, drift) for drift in cov_drift)),
        rep_distance=float(max(rep_distance)),
        split_imbalance=float(max(0.0, 1.0 - min(split_balance))),
        strata=strata,
    )


@dataclass(frozen=True)
class CandidateScore:
    """One candidate's adversarial score and its components."""

    score: float
    max_error: float
    worst_method: str
    errors: tuple[tuple[str, float], ...]  # (method, abs error), sorted
    violations: GaugeViolations

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "max_error": self.max_error,
            "worst_method": self.worst_method,
            "errors": {method: error for method, error in self.errors},
            "violations": self.violations.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidateScore":
        return cls(
            score=float(payload["score"]),
            max_error=float(payload["max_error"]),
            worst_method=str(payload["worst_method"]),
            errors=tuple(sorted(
                (str(m), float(e)) for m, e in payload["errors"].items()
            )),
            violations=GaugeViolations.from_dict(payload["violations"]),
        )


def score_results(
    results: Mapping[str, MethodResult],
    weights: ScoreWeights = ScoreWeights(),
) -> CandidateScore:
    """Score one candidate's method results (higher = more adversarial)."""
    errors = tuple(sorted((method, abs(r.error)) for method, r in results.items()))
    # Worst method: highest error, ties broken lexicographically (stable
    # across dict orderings).
    worst_method, max_error = max(errors, key=lambda item: (item[1], item[0]))
    sieve = results.get("sieve")
    violations = gauge_violations(sieve.attribution if sieve else None)
    score = (
        max_error
        + weights.cov_drift * violations.cov_drift
        + weights.rep_distance * violations.rep_distance
        + weights.split_imbalance * violations.split_imbalance
    )
    return CandidateScore(
        score=float(score),
        max_error=float(max_error),
        worst_method=worst_method,
        errors=errors,
        violations=violations,
    )
