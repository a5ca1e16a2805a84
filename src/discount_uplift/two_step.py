"""Two-step per-SKU estimation of the promotional uplift of discounted sales.

Step 1 fits baseline sales on discount-free days (weekday dummies, forecast,
stock). Step 2 takes the baseline's prediction residuals on discount days and
regresses them on the same covariates plus the discounted-sales count; the
coefficient on that count is the per-unit uplift.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .aggregate import trim_central
from .domain import EligibilityRule, SkuPanel, filter_eligible
from .ols import (BASELINE_LABELS, UPLIFT_LABELS, DesignMatrix, FitResult,
                  FitStatus, OlsError, fit_ols, predict, t_pvalue)

# Stage 2 estimates 10 parameters; one extra day gives a nonzero dof.
MIN_DISCOUNT_DAYS_FOR_INFERENCE = 11


class TwoStepError(ValueError):
    pass


class EmptyTrainingSet(TwoStepError):
    pass


class TooFewDiscountDays(TwoStepError):
    pass


class Sidedness(str, Enum):
    """t-test reading for the uplift coefficient.

    ``TWO_SIDED`` reports the plain two-sided p-value. ``ONE_SIDED_POSITIVE``
    reports the p-value of the one-sided test against a positive effect.
    """

    TWO_SIDED = "two"
    ONE_SIDED_POSITIVE = "one-positive"


class ReportStatus(str, Enum):
    OK = "ok"
    ESTIMATION_FAILED = "estimation_failed"


@dataclass(frozen=True, eq=False)
class SkuUpliftReport:
    """Per-SKU outcome of the two-step estimation.

    ``mean_residual`` is the average baseline residual over discount days
    (items/day); ``gamma10`` the estimated uplift per discounted sale. On
    ``ESTIMATION_FAILED`` all estimate fields are None and
    ``failure_reason`` says why (naming missing weekday columns when a stage
    was rank deficient).
    """

    sku_id: int
    store_id: int | None
    status: ReportStatus
    n_plain: int
    n_disc: int
    mean_residual: float | None = None
    gamma10: float | None = None
    gamma10_se: float | None = None
    gamma10_t: float | None = None
    gamma10_p: float | None = None
    significant_positive: bool | None = None
    stage1: FitResult | None = None
    stage2: FitResult | None = None
    failure_reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is ReportStatus.OK


_WEEKDAY_ONE_HOT = np.eye(7)


def _design(panel: SkuPanel, indices: np.ndarray,
            include_ds: bool) -> DesignMatrix:
    """Weekday dummies, forecast, stock (and the discounted-sales count) of
    the panel rows at ``indices``. The panel guarantees weekdays in 1..7."""
    labels = UPLIFT_LABELS if include_ds else BASELINE_LABELS
    table = panel.table
    rows = np.empty((len(indices), len(labels)))
    rows[:, :7] = _WEEKDAY_ONE_HOT[table.weekday[indices] - 1]
    rows[:, 7] = table.forecast[indices]
    rows[:, 8] = table.stock[indices]
    if include_ds:
        rows[:, 9] = table.discounted_sales[indices]
    return DesignMatrix(rows, labels)


def _sales(panel: SkuPanel, indices: np.ndarray) -> np.ndarray:
    return panel.table.sales[indices].astype(np.float64)


def fit_baseline(panel: SkuPanel) -> FitResult:
    """OLS of sales on weekday dummies, forecast and stock over the
    discount-free days only.

    The fit comes back rank deficient when some weekday never occurs among
    the discount-free days (its dummy column is all zeros), in which case
    the SKU cannot be estimated.
    """
    if panel.n_plain == 0:
        raise EmptyTrainingSet(f"sku {panel.sku_id}: no discount-free days")
    X = _design(panel, panel.plain_index, include_ds=False)
    return fit_ols(X, _sales(panel, panel.plain_index))


def residual_lift(panel: SkuPanel, baseline: FitResult) -> np.ndarray:
    """Actual minus predicted sales on each discount day (in disc_index order)."""
    if panel.n_disc == 0:
        raise TooFewDiscountDays(f"sku {panel.sku_id}: no discount days")
    X = _design(panel, panel.disc_index, include_ds=False)
    return _sales(panel, panel.disc_index) - predict(baseline, X)


def _one_sided_positive_p(t: float, two_sided_p: float) -> float:
    return 0.5 * two_sided_p if t > 0 else 1.0 - 0.5 * two_sided_p


def fit_uplift(panel: SkuPanel, residuals: np.ndarray,
               alpha: float = 0.05,
               sidedness: Sidedness = Sidedness.TWO_SIDED,
               stage1: FitResult | None = None,
               delta_trim: float | None = None) -> SkuUpliftReport:
    """Regress baseline residuals on covariates plus the discounted-sales
    count and report the uplift coefficient with its significance verdict.

    ``delta_trim`` optionally trims the per-day residuals to their central
    mass before averaging into ``mean_residual`` (the regression itself
    always uses all residuals). Stage-2 rank deficiency yields an
    ``ESTIMATION_FAILED`` report rather than an exception.
    """
    residuals = np.asarray(residuals, dtype=np.float64).ravel()
    if residuals.shape[0] != panel.n_disc:
        raise TwoStepError(
            f"sku {panel.sku_id}: {residuals.shape[0]} residuals for "
            f"{panel.n_disc} discount days")
    if panel.n_disc < MIN_DISCOUNT_DAYS_FOR_INFERENCE:
        raise TooFewDiscountDays(
            f"sku {panel.sku_id}: {panel.n_disc} discount days, need at least "
            f"{MIN_DISCOUNT_DAYS_FOR_INFERENCE} for stage-2 inference")
    if not 0.0 < alpha < 1.0:
        raise TwoStepError(f"alpha must be in (0, 1), got {alpha}")

    X = _design(panel, panel.disc_index, include_ds=True)
    stage2 = fit_ols(X, residuals)
    if stage2.status is FitStatus.RANK_DEFICIENT:
        return SkuUpliftReport(
            sku_id=panel.sku_id, store_id=panel.store_id,
            status=ReportStatus.ESTIMATION_FAILED,
            n_plain=panel.n_plain, n_disc=panel.n_disc,
            stage1=stage1, stage2=stage2,
            failure_reason=("stage 2 rank deficient; dependent columns: "
                            + ", ".join(stage2.missing_columns)))

    ds_col = len(UPLIFT_LABELS) - 1
    gamma10 = float(stage2.coefficients[ds_col])
    gamma10_se = float(stage2.std_errors[ds_col])
    gamma10_t = float(stage2.t_stats[ds_col])
    two_sided_p = float(stage2.p_values[ds_col])
    if sidedness is Sidedness.ONE_SIDED_POSITIVE:
        gamma10_p = _one_sided_positive_p(gamma10_t, two_sided_p)
    else:
        gamma10_p = two_sided_p

    if delta_trim is not None:
        mean_residual = float(np.mean(trim_central(residuals, delta_trim)))
    else:
        mean_residual = float(np.mean(residuals))

    return SkuUpliftReport(
        sku_id=panel.sku_id, store_id=panel.store_id, status=ReportStatus.OK,
        n_plain=panel.n_plain, n_disc=panel.n_disc,
        mean_residual=mean_residual, gamma10=gamma10, gamma10_se=gamma10_se,
        gamma10_t=gamma10_t, gamma10_p=gamma10_p,
        significant_positive=bool(gamma10 > 0.0 and gamma10_p < alpha),
        stage1=stage1, stage2=stage2)


def _failed(panel: SkuPanel, reason: str,
            stage1: FitResult | None = None) -> SkuUpliftReport:
    return SkuUpliftReport(sku_id=panel.sku_id, store_id=panel.store_id,
                           status=ReportStatus.ESTIMATION_FAILED,
                           n_plain=panel.n_plain, n_disc=panel.n_disc,
                           stage1=stage1, failure_reason=reason)


def estimate_sku(panel: SkuPanel, alpha: float = 0.05,
                 sidedness: Sidedness = Sidedness.TWO_SIDED,
                 delta_trim: float | None = None) -> SkuUpliftReport:
    """Run both stages for one panel, turning failures into a failed report."""
    try:
        stage1 = fit_baseline(panel)
    except EmptyTrainingSet as exc:
        return _failed(panel, str(exc))
    if stage1.status is FitStatus.RANK_DEFICIENT:
        return _failed(panel, "stage 1 rank deficient; dependent columns: "
                       + ", ".join(stage1.missing_columns), stage1=stage1)
    try:
        residuals = residual_lift(panel, stage1)
        return fit_uplift(panel, residuals, alpha=alpha, sidedness=sidedness,
                          stage1=stage1, delta_trim=delta_trim)
    except (TwoStepError, OlsError) as exc:
        return _failed(panel, str(exc), stage1=stage1)


def run_study(panels: Iterable[SkuPanel],
              rule: EligibilityRule = EligibilityRule(),
              alpha: float = 0.05,
              sidedness: Sidedness = Sidedness.TWO_SIDED,
              delta_trim: float | None = None,
              threads: int | None = None) -> tuple[SkuUpliftReport, ...]:
    """Estimate every eligible panel; per-SKU failures never abort the study.

    Reports are returned in ascending (sku, store) order regardless of the
    execution schedule; estimation is pure per SKU, so any thread count
    produces identical results.
    """
    eligible, _ = filter_eligible(panels, rule)
    ordered = sorted(eligible, key=lambda p: p.key)

    def one(panel: SkuPanel) -> SkuUpliftReport:
        try:
            return estimate_sku(panel, alpha=alpha, sidedness=sidedness,
                                delta_trim=delta_trim)
        except Exception as exc:  # records, never aborts the study
            return _failed(panel, f"internal error: {exc}")

    if threads is not None and threads > 1 and len(ordered) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(one, ordered))
    else:
        reports = [one(panel) for panel in ordered]
    return tuple(reports)
