"""Distribution summaries and the noise-aware degradation test.

The store keeps *every* run of a version, so a comparison is between two
samples, not two numbers. Three pieces:

* :func:`summarize` — median/MAD plus a deterministic bootstrap
  confidence interval over the median (seeded through
  :mod:`repro.utils.seeding`, so summaries are reproducible);
* :func:`mann_whitney_p` — one-sided Mann-Whitney rank test, *exact*
  over all label assignments for small samples (ties handled by the
  usual 0.5 credit), normal approximation with tie correction beyond;
* :func:`degradation_test` — the gate: "regressed" only when the rank
  test is significant **and** the median moved past a practical floor
  (relative and absolute), so scheduler noise on one run can neither
  fire the gate nor hide a real slowdown. With a single sample on
  either side it falls back to the legacy ratio heuristic and says so.

The exact test's granularity sets the floor on detectable significance:
with 3 runs per side the smallest one-sided p is 1/20 = 0.05, which is
why the default ``alpha`` is inclusive at 0.05 — three cleanly slower
runs are enough to fail a build, two are not.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from repro.utils.seeding import rng_for
from repro.utils.validation import require

#: Exact-test cutoff: enumerate all C(n, n_a) assignments while the pooled
#: sample stays at most this large (C(16, 8) = 12870 — trivially cheap).
EXACT_POOL_LIMIT = 16

#: Bootstrap defaults: resamples of the median at 95% confidence.
DEFAULT_RESAMPLES = 400
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class DistributionSummary:
    """What the store knows about one metric across a version's runs."""

    n: int
    mean: float
    median: float
    #: Median absolute deviation (robust spread; 0.0 for n <= 1).
    mad: float
    min: float
    max: float
    #: Bootstrap CI over the median; degenerate (== median) for n == 1.
    ci_low: float
    ci_high: float
    confidence: float = DEFAULT_CONFIDENCE

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DistributionSummary":
        return cls(**{k: payload[k] for k in cls.__dataclass_fields__ if k in payload})


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: str = "perfstore-bootstrap",
) -> tuple[float, float]:
    """Percentile bootstrap CI over the median, deterministically seeded.

    The RNG is derived from the *values themselves* (plus ``seed``), so
    the same sample always yields the same interval — summaries are
    stable artifacts, not run-to-run noise.
    """
    data = np.asarray(list(values), dtype=np.float64)
    require(data.size >= 1, "bootstrap_ci needs at least one value")
    if data.size == 1:
        return float(data[0]), float(data[0])
    rng = rng_for(seed, data.size, *(repr(float(v)) for v in data))
    draws = rng.integers(0, data.size, size=(resamples, data.size))
    medians = np.median(data[draws], axis=1)
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(medians, [tail, 1.0 - tail])
    return float(low), float(high)


def summarize(
    values: Sequence[float],
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: str = "perfstore-bootstrap",
) -> DistributionSummary:
    """A :class:`DistributionSummary` of ``values`` (order-invariant)."""
    data = sorted(float(v) for v in values)
    require(len(data) >= 1, "summarize needs at least one value")
    arr = np.asarray(data)
    median = float(np.median(arr))
    ci_low, ci_high = bootstrap_ci(
        data, confidence=confidence, resamples=resamples, seed=seed
    )
    return DistributionSummary(
        n=len(data),
        mean=float(arr.mean()),
        median=median,
        mad=float(np.median(np.abs(arr - median))) if len(data) > 1 else 0.0,
        min=data[0],
        max=data[-1],
        ci_low=ci_low,
        ci_high=ci_high,
        confidence=confidence,
    )


def _u_statistic(current: np.ndarray, baseline: np.ndarray) -> float:
    """Mann-Whitney U counting current-beats-baseline pairs (0.5 ties)."""
    greater = (current[:, None] > baseline[None, :]).sum()
    ties = (current[:, None] == baseline[None, :]).sum()
    return float(greater) + 0.5 * float(ties)


def mann_whitney_p(
    current: Sequence[float], baseline: Sequence[float]
) -> float:
    """One-sided p-value for H1: ``current`` is stochastically *greater*.

    Exact over every assignment of pooled values to the two labels when
    the pooled sample is small (ties included — the permutation
    distribution is computed on the observed pooled values, not a
    continuity assumption); normal approximation with tie correction
    otherwise. Symmetric use: pass the arguments swapped to test
    "current is smaller".
    """
    cur = np.asarray(list(current), dtype=np.float64)
    base = np.asarray(list(baseline), dtype=np.float64)
    require(cur.size >= 1 and base.size >= 1, "mann_whitney_p needs both samples")
    u_observed = _u_statistic(cur, base)
    pooled = np.concatenate([cur, base])
    n_cur, n_total = cur.size, pooled.size
    if n_total <= EXACT_POOL_LIMIT:
        at_least = 0
        total = 0
        for picks in combinations(range(n_total), n_cur):
            mask = np.zeros(n_total, dtype=bool)
            mask[list(picks)] = True
            u = _u_statistic(pooled[mask], pooled[~mask])
            total += 1
            # Tolerance: U is a multiple of 0.5; avoid float-compare drama.
            if u >= u_observed - 1e-9:
                at_least += 1
        return at_least / total
    # Normal approximation with tie correction (large samples only).
    n_base = base.size
    mean_u = n_cur * n_base / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts)).sum()) / (
        n_total * (n_total - 1)
    )
    var_u = n_cur * n_base / 12.0 * ((n_total + 1) - tie_term)
    if var_u <= 0.0:
        return 1.0 if u_observed <= mean_u else 0.0
    z = (u_observed - mean_u - 0.5) / math.sqrt(var_u)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class GateVerdict:
    """The degradation test's answer for one metric."""

    #: ``regressed`` | ``improved`` | ``indistinguishable``
    verdict: str
    baseline: DistributionSummary
    current: DistributionSummary
    #: One-sided p-values (None on the single-sample fallback path).
    p_slower: float | None
    p_faster: float | None
    #: Which decision procedure ran: ``rank`` or ``single-sample``.
    mode: str
    detail: str

    @property
    def regressed(self) -> bool:
        return self.verdict == "regressed"

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["baseline"] = self.baseline.to_dict()
        payload["current"] = self.current.to_dict()
        return payload


def degradation_test(
    baseline: Sequence[float],
    current: Sequence[float],
    *,
    alpha: float = 0.05,
    min_ratio: float = 1.10,
    min_abs: float = 0.02,
    fallback_slowdown: float = 1.25,
    seed: str = "perfstore-bootstrap",
) -> GateVerdict:
    """Noise-aware replacement for the single-sample slowdown threshold.

    With >= 2 runs on both sides, ``regressed`` requires *both*
    statistical significance (one-sided Mann-Whitney ``p <= alpha``) and
    practical significance (median moved by ``min_ratio``x and
    ``min_abs`` in absolute terms); ``improved`` is the mirror image.
    Everything else is ``indistinguishable`` — including a genuinely
    significant shift too small to matter. With a single run on either
    side the rank test has no power, so the verdict falls back to the
    legacy ratio heuristic (``fallback_slowdown`` + ``min_abs``) and
    labels itself ``single-sample``.
    """
    base_summary = summarize(baseline, seed=seed)
    cur_summary = summarize(current, seed=seed)
    base_med, cur_med = base_summary.median, cur_summary.median
    delta = cur_med - base_med

    def practical(direction: int) -> bool:
        moved = delta if direction > 0 else -delta
        slower_med = cur_med if direction > 0 else base_med
        faster_med = base_med if direction > 0 else cur_med
        return moved >= min_abs and slower_med >= faster_med * min_ratio

    if base_summary.n >= 2 and cur_summary.n >= 2:
        p_slower = mann_whitney_p(current, baseline)
        p_faster = mann_whitney_p(baseline, current)
        if p_slower <= alpha and practical(+1):
            verdict = "regressed"
            detail = (
                f"median {base_med:.4f} -> {cur_med:.4f} "
                f"({cur_med / base_med:.2f}x, p={p_slower:.3g} <= {alpha:g})"
                if base_med > 0
                else f"median {base_med:.4f} -> {cur_med:.4f} (p={p_slower:.3g})"
            )
        elif p_faster <= alpha and practical(-1):
            verdict = "improved"
            detail = (
                f"median {base_med:.4f} -> {cur_med:.4f} (p={p_faster:.3g})"
            )
        else:
            verdict = "indistinguishable"
            detail = (
                f"median {base_med:.4f} -> {cur_med:.4f} "
                f"(p_slower={p_slower:.3g}, p_faster={p_faster:.3g}; "
                f"practical floor {min_ratio:.2f}x / {min_abs:g})"
            )
        return GateVerdict(
            verdict=verdict,
            baseline=base_summary,
            current=cur_summary,
            p_slower=p_slower,
            p_faster=p_faster,
            mode="rank",
            detail=detail,
        )

    # Single-sample fallback: the old --max-slowdown heuristic, labeled.
    if base_med > 0 and cur_med > base_med * fallback_slowdown and delta > min_abs:
        verdict = "regressed"
    elif cur_med > 0 and base_med > cur_med * fallback_slowdown and -delta > min_abs:
        verdict = "improved"
    else:
        verdict = "indistinguishable"
    ratio = f"{cur_med / base_med:.2f}x" if base_med > 0 else "n/a"
    return GateVerdict(
        verdict=verdict,
        baseline=base_summary,
        current=cur_summary,
        p_slower=None,
        p_faster=None,
        mode="single-sample",
        detail=(
            f"median {base_med:.4f} -> {cur_med:.4f} ({ratio}; "
            f"single-sample heuristic, limit {fallback_slowdown:.2f}x)"
        ),
    )
