"""Cross-SKU summary statistics: central trimming, boxplot and histogram.

Per-SKU mean residuals are trimmed to their central mass before shares and
boxplot statistics are computed, to keep data-quality outliers out of the
study-level numbers; the uplift-coefficient histogram instead counts values
falling outside the display range separately.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .two_step import SkuUpliftReport, StudyReports


class AggregateError(ValueError):
    pass


class EmptyInput(AggregateError):
    pass


class NoSuccessfulReports(AggregateError):
    pass


def quantile_linear(sorted_values: np.ndarray, q: float) -> float:
    """Quantile by linear interpolation between order statistics (type 7)."""
    n = sorted_values.shape[0]
    if n == 1:
        return float(sorted_values[0])
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return float(sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo]))


def trim_central(values: Sequence[float] | np.ndarray, mass: float) -> np.ndarray:
    """Keep the values inside the central ``mass`` quantile interval.

    Bounds are inclusive and computed with linear-interpolation quantiles;
    the surviving values keep their original order. ``mass = 1.0`` is the
    identity.

    The result is the projection of ``values`` onto the interval between
    their own tail quantiles, so projecting it onto that interval again
    changes nothing. Trimming the result anew is a contraction, not a no-op:
    its quantiles are recomputed, and whenever its two lowest (or highest)
    values differ they lie strictly inside its range.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.shape[0] == 0:
        raise EmptyInput("cannot trim an empty collection")
    if not 0.0 < mass <= 1.0:
        raise AggregateError(f"mass must be in (0, 1], got {mass}")
    if mass == 1.0:
        return arr.copy()
    tail = (1.0 - mass) / 2.0
    ordered = np.sort(arr)
    lo = quantile_linear(ordered, tail)
    hi = quantile_linear(ordered, 1.0 - tail)
    return arr[(arr >= lo) & (arr <= hi)]


@dataclass(frozen=True)
class Boxplot:
    """Five-number summary plus Tukey whiskers (1.5 IQR convention)."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float


def boxplot_stats(values: np.ndarray) -> Boxplot:
    ordered = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if ordered.shape[0] == 0:
        raise EmptyInput("boxplot of an empty collection")
    q1 = quantile_linear(ordered, 0.25)
    q3 = quantile_linear(ordered, 0.75)
    iqr = q3 - q1
    inside = ordered[(ordered >= q1 - 1.5 * iqr) & (ordered <= q3 + 1.5 * iqr)]
    # Whiskers reach the most extreme data inside 1.5 IQR but never retract
    # past the box itself.
    return Boxplot(minimum=float(ordered[0]), q1=q1,
                   median=quantile_linear(ordered, 0.5), q3=q3,
                   maximum=float(ordered[-1]),
                   whisker_low=min(float(inside[0]), q1),
                   whisker_high=max(float(inside[-1]), q3))


@dataclass(frozen=True)
class Histogram:
    """Equal-width bins over a fixed display range; the last bin's upper
    edge is inclusive. Values outside the range are not binned."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class StudyAggregate:
    """Study-level summary of the per-SKU reports.

    Residual statistics (shares, mean, boxplot) are computed on the trimmed
    per-SKU mean residuals; the untrimmed positive share is reported
    alongside. Histogram counts cover the successfully estimated SKUs whose
    uplift coefficient lies in the display range; ``histogram_excluded``
    counts the rest.
    """

    n_ok: int
    n_failed: int
    trimmed_n: int
    share_positive_mean_residual: float
    share_positive_mean_residual_untrimmed: float
    mean_of_mean_residuals: float
    n_gamma_positive: int
    n_gamma_significant: int
    boxplot: Boxplot
    histogram: Histogram
    histogram_excluded: int


def summarize(reports: StudyReports | Iterable[SkuUpliftReport],
              trim_mass: float = 0.95,
              hist_range: tuple[float, float] = (0.0, 1.5),
              hist_bins: int = 30) -> StudyAggregate:
    """Aggregate per-SKU reports, the columns of a study or its rows, into
    the study-level statistics."""
    lo, hi = float(hist_range[0]), float(hist_range[1])
    if hist_bins < 1:
        raise AggregateError(f"hist_bins must be >= 1, got {hist_bins}")
    if not (lo < hi and math.isfinite(hi - lo)):
        raise AggregateError(f"histogram range must be non-empty and of "
                             f"finite width: ({lo}, {hi})")

    if isinstance(reports, StudyReports):
        n_reports, ok = len(reports), reports.ok
        deltas, gammas = reports.mean_residual[ok], reports.gamma10[ok]
        significant = reports.significant[ok]
    else:
        rows = list(reports)
        n_reports, ok = len(rows), [r for r in rows if r.ok]
        deltas = np.array([r.mean_residual for r in ok], dtype=np.float64)
        gammas = np.array([r.gamma10 for r in ok], dtype=np.float64)
        significant = np.array([bool(r.significant_positive) for r in ok],
                               dtype=bool)
    n_ok = len(deltas)
    if not n_ok:
        raise NoSuccessfulReports("no successfully estimated SKUs")

    trimmed = np.sort(trim_central(deltas, trim_mass))
    if trimmed.shape[0] == 0:
        raise AggregateError(
            f"central trimming at mass {trim_mass} left no values "
            f"(only {n_ok} estimated SKUs); raise the trim mass toward "
            f"1.0 or supply more SKUs")

    # Edges via lo + span*k/bins keep round display ranges exact; binning
    # bisects the same edges so counts always match the reported bins.
    edges = tuple(lo + (hi - lo) * k / hist_bins for k in range(hist_bins)) \
        + (hi,)
    counts = [0] * hist_bins
    excluded = 0
    for g in gammas.tolist():
        if lo <= g <= hi:
            counts[min(bisect_right(edges, g) - 1, hist_bins - 1)] += 1
        else:
            excluded += 1

    return StudyAggregate(
        n_ok=n_ok, n_failed=n_reports - n_ok, trimmed_n=int(trimmed.shape[0]),
        share_positive_mean_residual=int((trimmed > 0.0).sum()) / trimmed.shape[0],
        share_positive_mean_residual_untrimmed=int((deltas > 0.0).sum()) / n_ok,
        mean_of_mean_residuals=float(np.mean(trimmed)),
        n_gamma_positive=int(np.sum(gammas > 0.0)),
        n_gamma_significant=int(np.count_nonzero(significant)),
        boxplot=boxplot_stats(trimmed),
        histogram=Histogram(edges=edges, counts=tuple(counts)),
        histogram_excluded=excluded)
