"""Confidence intervals and streaming accumulators for Monte-Carlo estimates.

A reproduction is only as credible as the uncertainty on its reproduced
numbers, so this module is the single home of every interval computation in
the stack:

* :func:`wilson_interval` / :func:`clopper_pearson_interval` — binomial
  proportion intervals (symbol error rates, delivery ratios).  Wilson is the
  default (good coverage even at extreme proportions, cheap); Clopper-Pearson
  is the exact/conservative alternative, computed from the inverse regularised
  incomplete beta function implemented here in pure stdlib ``math``;
* :func:`normal_interval` — the large-sample interval on a mean, for metrics
  that are not proportions (lifetimes, cycle counts);
* :class:`OnlineMean` / :class:`BinomialAccumulator` — O(1)-memory
  accumulators (Welford's algorithm for the former) that the streaming
  aggregation layer feeds record by record, so a 10^7-trial sweep computes
  means and intervals without ever materialising its records;
* :func:`group_stats` — the streaming grouped aggregator built on them:
  one pass over an iterable of tidy records, skipping records that lack the
  group or metric key (heterogeneous records are documented-normal in the
  store layer).

The adaptive sweep engine (:mod:`repro.experiments.adaptive`) stops sampling
a parameter point once its interval's half-width drops below the requested
precision; the warehouse comparison layer uses the same intervals to separate
signal from Monte-Carlo noise in run-to-run diffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Iterable, Mapping

__all__ = [
    "ConfidenceInterval",
    "wilson_interval",
    "clopper_pearson_interval",
    "binomial_interval",
    "normal_interval",
    "BINOMIAL_METHODS",
    "OnlineMean",
    "BinomialAccumulator",
    "GroupStats",
    "group_stats",
]

#: Interval methods :func:`binomial_interval` understands.
BINOMIAL_METHODS = ("wilson", "clopper-pearson")


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval around a point estimate at one confidence level."""

    estimate: float
    low: float
    high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the interval width — the precision the adaptive engine gates on."""
        return (self.high - self.low) / 2.0

    def to_dict(self) -> dict[str, float]:
        """The interval as plain JSON-ready floats (manifest / API payloads)."""
        return {
            "estimate": self.estimate,
            "low": self.low,
            "high": self.high,
            "half_width": self.half_width,
            "confidence": self.confidence,
        }


def _z_score(confidence: float) -> float:
    """The two-sided standard-normal quantile for ``confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(
    successes: float, trials: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """The Wilson score interval on a binomial proportion.

    Unlike the naive Wald interval it never collapses to zero width at 0 or
    ``trials`` successes, which is exactly the regime deep SER sweeps live in
    (error rates near 1e-5).  ``successes``/``trials`` may be fractional —
    aggregated per-trial rates are accepted as well as raw counts.
    """
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    z = _z_score(confidence)
    n = float(trials)
    p = successes / n
    z2 = z * z
    denominator = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denominator
    margin = (z / denominator) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return ConfidenceInterval(
        estimate=p,
        low=max(0.0, centre - margin),
        high=min(1.0, centre + margin),
        confidence=confidence,
    )


# --------------------------------------------------------------------------- #
# regularised incomplete beta (pure stdlib; Numerical-Recipes-style Lentz
# continued fraction) and its inverse, for the exact Clopper-Pearson bounds
# --------------------------------------------------------------------------- #
def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta function."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def _regularised_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, accurate over the whole domain via the symmetry relation."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # the continued fraction converges fast only below the distribution bulk
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_ppf(quantile: float, a: float, b: float) -> float:
    """Inverse of the regularised incomplete beta, by bisection (monotone)."""
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    low, high = 0.0, 1.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if _regularised_incomplete_beta(a, b, mid) < quantile:
            low = mid
        else:
            high = mid
        if high - low < 1e-12:
            break
    return (low + high) / 2.0


def clopper_pearson_interval(
    successes: float, trials: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """The exact (conservative) Clopper-Pearson binomial interval.

    Guaranteed coverage at every proportion, at the price of being wider than
    Wilson — the right choice when an interval is a hard acceptance gate.
    Fractional counts are rounded to the nearest integer (the interval is only
    defined on counts).
    """
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    n = int(round(trials))
    k = min(n, int(round(successes)))
    alpha = 1.0 - confidence
    low = 0.0 if k == 0 else _beta_ppf(alpha / 2.0, k, n - k + 1)
    high = 1.0 if k == n else _beta_ppf(1.0 - alpha / 2.0, k + 1, n - k)
    return ConfidenceInterval(
        estimate=k / n if n else 0.0, low=low, high=high, confidence=confidence
    )


def binomial_interval(
    successes: float, trials: float, confidence: float = 0.95, method: str = "wilson"
) -> ConfidenceInterval:
    """Dispatch to :func:`wilson_interval` or :func:`clopper_pearson_interval`."""
    if method == "wilson":
        return wilson_interval(successes, trials, confidence)
    if method == "clopper-pearson":
        return clopper_pearson_interval(successes, trials, confidence)
    raise ValueError(
        f"unknown binomial interval method {method!r}; "
        f"expected one of {', '.join(BINOMIAL_METHODS)}"
    )


def normal_interval(
    mean: float, std: float, count: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """The large-sample normal interval on a mean (non-proportion metrics)."""
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    margin = _z_score(confidence) * std / math.sqrt(count)
    return ConfidenceInterval(
        estimate=mean, low=mean - margin, high=mean + margin, confidence=confidence
    )


# --------------------------------------------------------------------------- #
# O(1)-memory accumulators
# --------------------------------------------------------------------------- #
class OnlineMean:
    """Streaming mean/variance via Welford's algorithm (numerically stable)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count: int = 0
        self.mean: float = 0.0
        self._m2: float = 0.0

    def add(self, value: float) -> None:
        """Fold one observation in (O(1) time and memory)."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """The sample variance (0.0 below two observations)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        """The sample standard deviation."""
        return math.sqrt(self.variance)

    def interval(self, confidence: float = 0.95) -> ConfidenceInterval | None:
        """The normal interval on the mean (``None`` below two observations)."""
        if self.count < 2:
            return None
        return normal_interval(self.mean, self.std, self.count, confidence)


class BinomialAccumulator:
    """Streaming success/trial totals for a binomial proportion."""

    __slots__ = ("successes", "trials")

    def __init__(self) -> None:
        self.successes: float = 0.0
        self.trials: float = 0.0

    def add(self, successes: float, trials: float = 1.0) -> None:
        """Fold one observation in — a raw count pair or a per-trial rate."""
        if trials <= 0:
            raise ValueError(f"trials must be > 0, got {trials}")
        if not 0 <= successes <= trials:
            raise ValueError(f"successes must be in [0, {trials}], got {successes}")
        self.successes += successes
        self.trials += trials

    @property
    def proportion(self) -> float:
        """The pooled success proportion (0.0 before any observation)."""
        return self.successes / self.trials if self.trials else 0.0

    def interval(
        self, confidence: float = 0.95, method: str = "wilson"
    ) -> ConfidenceInterval | None:
        """The proportion interval (``None`` before any observation)."""
        if self.trials <= 0:
            return None
        return binomial_interval(self.successes, self.trials, confidence, method)


# --------------------------------------------------------------------------- #
# streaming grouped aggregation over tidy records
# --------------------------------------------------------------------------- #
@dataclass
class GroupStats:
    """One group's streamed summary: count, mean and interval on the metric."""

    group: Any
    count: int
    mean: float
    interval: ConfidenceInterval | None

    def to_dict(self) -> dict[str, Any]:
        """The summary as a JSON-ready dict."""
        return {
            "group": self.group,
            "count": self.count,
            "mean": self.mean,
            "interval": self.interval.to_dict() if self.interval is not None else None,
        }


def group_stats(
    records: Iterable[Mapping[str, Any]],
    by: str,
    metric: str,
    confidence: float = 0.95,
) -> dict[Any, GroupStats]:
    """One streaming pass: mean + interval of ``metric`` grouped by ``by``.

    Records missing either key are skipped (heterogeneous records — scenarios
    whose metric sets differ per parameter — are documented-normal), so the
    aggregator is safe over any merged result stream.  Memory is O(groups),
    never O(records).
    """
    accumulators: dict[Any, OnlineMean] = {}
    for record in records:
        if by not in record or metric not in record:
            continue
        value = record[metric]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        accumulators.setdefault(record[by], OnlineMean()).add(float(value))
    return {
        group: GroupStats(
            group=group,
            count=acc.count,
            mean=acc.mean,
            interval=acc.interval(confidence),
        )
        for group, acc in accumulators.items()
    }
