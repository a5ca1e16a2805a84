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
from typing import Iterable, Sequence

import numpy as np

from .domain import EligibilityRule, SkuPanel, filter_eligible
from .ols import (BASELINE_LABELS, UPLIFT_LABELS, DimensionMismatch,
                  FitResult, FitStatus, PredictOnFailedFit, fit_ols_batch,
                  linear_combination)
# Unused here; perfbench/tracer.py wraps two_step.fit_ols and two_step.predict.
from .ols import fit_ols, predict  # noqa: F401

# Stage 2 estimates 10 parameters; one extra day gives a nonzero dof.
MIN_DISCOUNT_DAYS_FOR_INFERENCE = 11

# run_study sorts the SKUs by length (the rows of their longer stage) and cuts
# them into runs of at most BATCH_FITS SKUs and BATCH_ROWS padded rows. The
# kernel keeps the fits on its innermost axis, so each of its numpy loops
# runs over (columns left) x fits contiguous elements, and numpy's per-call
# overhead is spread over the fits of a batch. Serial run_study medians on
# one machine (2 vCPUs): 2,000 180-day panels took 0.231 s with 32 fits,
# 0.222 s with 40 and 0.219 s with 64; 500 two-year panels (up to 594 rows)
# took 0.144, 0.143 and 0.136 s. Wider batches cost memory, mostly on long
# panels: the peak RSS of `uplift fit` on those 500 panels was 103.2 MB with
# 32 fits, 103.3-104.6 with 40 and 44, 106.2 with 48 and up to 108.5 with 64.
# Sorting by length keeps a long panel from padding short ones to its
# length, and the row cap keeps a batch's working matrix near 3 MB (2**15
# rows x 11 columns) however long the panels: 3,650-day panels go 11 to a
# batch.
BATCH_FITS = 40
BATCH_ROWS = 1 << 15


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


def _fill_design(out: np.ndarray, panel: SkuPanel,
                 indices: np.ndarray) -> None:
    """Write weekday dummies, forecast, stock (and, when ``out`` has a tenth
    column, the discounted-sales count) of the panel rows at ``indices``
    into the leading rows of ``out``. The panel guarantees weekdays in 1..7."""
    table = panel.table
    m = len(indices)
    out[:m, :7] = _WEEKDAY_ONE_HOT[table.weekday[indices] - 1]
    out[:m, 7] = table.forecast[indices]
    out[:m, 8] = table.stock[indices]
    if out.shape[1] == len(UPLIFT_LABELS):
        out[:m, 9] = table.discounted_sales[indices]


def _stack(panels: Sequence[SkuPanel], indices: Sequence[np.ndarray],
           labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Designs and sales of many panels, zero-padded to a common row count:
    (panels, rows, columns) and (panels, rows)."""
    rows = max(len(i) for i in indices)
    X = np.zeros((len(panels), rows, len(labels)))
    y = np.zeros((len(panels), rows))
    for b, (panel, index) in enumerate(zip(panels, indices)):
        _fill_design(X[b], panel, index)
        y[b, :len(index)] = panel.table.sales[index]
    return X, y


def _stage1(panels: Sequence[SkuPanel]) -> list[FitResult]:
    """Stage 1 of each panel, in one kernel call: sales on weekday dummies,
    forecast and stock over its discount-free days."""
    X, y = _stack(panels, [p.plain_index for p in panels], BASELINE_LABELS)
    return fit_ols_batch(X, y, [p.n_plain for p in panels], BASELINE_LABELS)


def _lift(panels: Sequence[SkuPanel], stage1: Sequence[FitResult]
          ) -> tuple[np.ndarray, np.ndarray]:
    """The stage-2 designs of the panels' discount days, (panels, rows,
    columns), and each day's sales minus its stage-1 prediction, (panels,
    rows); padded rows come out +0.0 in both."""
    X, sales = _stack(panels, [p.disc_index for p in panels], UPLIFT_LABELS)
    coefficients = np.stack([fit.coefficients for fit in stage1])
    return X, sales - linear_combination(X[:, :, :len(BASELINE_LABELS)],
                                         coefficients[:, None, :])


def _check_training_days(panel: SkuPanel) -> None:
    if panel.n_plain == 0:
        raise EmptyTrainingSet(f"sku {panel.sku_id}: no discount-free days")


def _check_discount_days(panel: SkuPanel) -> None:
    if panel.n_disc == 0:
        raise TooFewDiscountDays(f"sku {panel.sku_id}: no discount days")


def _check_inference(panel: SkuPanel) -> None:
    if panel.n_disc < MIN_DISCOUNT_DAYS_FOR_INFERENCE:
        raise TooFewDiscountDays(
            f"sku {panel.sku_id}: {panel.n_disc} discount days, need at least "
            f"{MIN_DISCOUNT_DAYS_FOR_INFERENCE} for stage-2 inference")


def _checked_t_test(alpha: float, sidedness: Sidedness | str) -> Sidedness:
    """The member for ``sidedness``, once it and ``alpha`` are known valid.

    A plain string such as ``"one-positive"`` becomes its member: it would
    compare equal to it but fail the identity test that picks the p-value.
    """
    if not 0.0 < alpha < 1.0:
        raise TwoStepError(f"alpha must be in (0, 1), got {alpha}")
    try:
        return Sidedness(sidedness)
    except ValueError:
        raise TwoStepError(
            f"sidedness must be one of "
            f"{', '.join(repr(s.value) for s in Sidedness)}, got "
            f"{sidedness!r}") from None


def fit_baseline(panel: SkuPanel) -> FitResult:
    """OLS of sales on weekday dummies, forecast and stock over the
    discount-free days only.

    The fit comes back rank deficient when some weekday never occurs among
    the discount-free days (its dummy column is all zeros), in which case
    the SKU cannot be estimated.
    """
    _check_training_days(panel)
    return _stage1([panel])[0]


def residual_lift(panel: SkuPanel, baseline: FitResult) -> np.ndarray:
    """Actual minus predicted sales on each discount day (in disc_index order)."""
    _check_discount_days(panel)
    if not baseline.ok or baseline.coefficients is None:
        raise PredictOnFailedFit("cannot predict from a rank-deficient fit")
    if baseline.column_labels != BASELINE_LABELS:
        raise DimensionMismatch(f"columns {BASELINE_LABELS} do not match fit "
                                f"columns {baseline.column_labels}")
    return _lift([panel], [baseline])[1][0]


def _one_sided_positive_p(t: float, two_sided_p: float) -> float:
    return 0.5 * two_sided_p if t > 0 else 1.0 - 0.5 * two_sided_p


def fit_uplift(panel: SkuPanel, residuals: np.ndarray,
               alpha: float = 0.05,
               sidedness: Sidedness = Sidedness.TWO_SIDED,
               stage1: FitResult | None = None) -> SkuUpliftReport:
    """Regress baseline residuals on covariates plus the discounted-sales
    count and report the uplift coefficient with its significance verdict.

    Stage-2 rank deficiency yields an ``ESTIMATION_FAILED`` report rather
    than an exception.
    """
    sidedness = _checked_t_test(alpha, sidedness)
    residuals = np.asarray(residuals, dtype=np.float64).ravel()
    if residuals.shape[0] != panel.n_disc:
        raise TwoStepError(
            f"sku {panel.sku_id}: {residuals.shape[0]} residuals for "
            f"{panel.n_disc} discount days")
    _check_inference(panel)
    if not np.isfinite(residuals).all():
        raise TwoStepError(f"sku {panel.sku_id}: non-finite residual")
    X, _ = _stack([panel], [panel.disc_index], UPLIFT_LABELS)
    stage2 = fit_ols_batch(X, residuals[None], [panel.n_disc], UPLIFT_LABELS)
    return _uplift_report(panel, residuals, stage1, stage2[0], alpha,
                          sidedness)


def _uplift_report(panel: SkuPanel, residuals: np.ndarray,
                   stage1: FitResult | None, stage2: FitResult, alpha: float,
                   sidedness: Sidedness) -> SkuUpliftReport:
    """The report of a SKU whose stage 2 has been fitted to ``residuals``."""
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
    two_sided_p = stage2.p_value(ds_col)
    if sidedness is Sidedness.ONE_SIDED_POSITIVE:
        gamma10_p = _one_sided_positive_p(gamma10_t, two_sided_p)
    else:
        gamma10_p = two_sided_p

    # np.mean of the SKU's own residuals, as a single-SKU fit takes it: a
    # sum over the padded batch in row order would round differently.
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


def _estimate_batch(panels: Sequence[SkuPanel], alpha: float,
                    sidedness: Sidedness) -> list[SkuUpliftReport]:
    """Both stages for a batch of panels, with one kernel call per stage.

    Stage 1 runs for every panel with discount-free days, then stage 2 for
    every panel whose stage 1 succeeded and whose discount days allow
    inference; each other panel gets the failed report a lone estimate
    would give it. Reports come back in the order of ``panels``.
    """
    reports: list[SkuUpliftReport | None] = [None] * len(panels)
    first = []
    for i, panel in enumerate(panels):
        try:
            _check_training_days(panel)
        except EmptyTrainingSet as exc:
            reports[i] = _failed(panel, str(exc))
        else:
            first.append(i)
    if not first:
        return reports

    stage1 = dict(zip(first, _stage1([panels[i] for i in first])))
    second = []
    for i in first:
        panel, fit = panels[i], stage1[i]
        if fit.status is FitStatus.RANK_DEFICIENT:
            reports[i] = _failed(panel, "stage 1 rank deficient; dependent "
                                 "columns: " + ", ".join(fit.missing_columns),
                                 stage1=fit)
            continue
        try:
            _check_discount_days(panel)
            _check_inference(panel)
        except TwoStepError as exc:
            reports[i] = _failed(panel, str(exc), stage1=fit)
        else:
            second.append(i)
    if not second:
        return reports

    X, lift = _lift([panels[i] for i in second], [stage1[i] for i in second])
    n_disc = [panels[i].n_disc for i in second]
    stage2 = fit_ols_batch(X, lift, n_disc, UPLIFT_LABELS)
    for row, i in enumerate(second):
        reports[i] = _uplift_report(panels[i], lift[row, :n_disc[row]],
                                    stage1[i], stage2[row], alpha, sidedness)
    return reports


def estimate_sku(panel: SkuPanel, alpha: float = 0.05,
                 sidedness: Sidedness = Sidedness.TWO_SIDED) -> SkuUpliftReport:
    """Run both stages for one panel, turning failures into a failed report.

    An ``alpha`` outside (0, 1) or an unknown ``sidedness`` raises
    ``TwoStepError``.
    """
    sidedness = _checked_t_test(alpha, sidedness)
    return _estimate_batch([panel], alpha, sidedness)[0]


def _batches(panels: Sequence[SkuPanel]) -> list[list[int]]:
    """Indices into ``panels`` in batches of similar length.

    The indices go in ascending order of the panels' longer stage, equal
    lengths keeping their order, and a batch closes at BATCH_FITS panels or
    before it would pass BATCH_ROWS padded rows; a panel longer than that
    forms a batch of one.
    """
    rows = [max(p.n_plain, p.n_disc) for p in panels]
    batches: list[list[int]] = []
    for i in sorted(range(len(panels)), key=rows.__getitem__):
        # Ascending order makes panel i the widest of its batch.
        if (not batches or len(batches[-1]) == BATCH_FITS
                or (len(batches[-1]) + 1) * rows[i] > BATCH_ROWS):
            batches.append([])
        batches[-1].append(i)
    return batches


def run_study(panels: Iterable[SkuPanel],
              rule: EligibilityRule = EligibilityRule(),
              alpha: float = 0.05,
              sidedness: Sidedness = Sidedness.TWO_SIDED,
              threads: int | None = None) -> tuple[SkuUpliftReport, ...]:
    """Estimate every eligible panel; per-SKU failures never abort the study.

    The eligible panels are cut into batches of similar length (see
    ``_batches``), and ``threads`` workers estimate whole batches. A fit's
    bytes do not depend on its batch, so any thread count gives identical
    reports, returned in ascending (sku, store) order. An unexpected
    exception while estimating a batch marks each SKU of that batch, and
    only of that batch, ``internal error: ...``. An ``alpha`` outside
    (0, 1) or an unknown ``sidedness`` raises ``TwoStepError`` before any
    fit.
    """
    sidedness = _checked_t_test(alpha, sidedness)
    eligible, _ = filter_eligible(panels, rule)
    ordered = sorted(eligible, key=lambda p: p.key)

    def one(batch: list[int]) -> list[SkuUpliftReport]:
        members = [ordered[i] for i in batch]
        try:
            return _estimate_batch(members, alpha, sidedness)
        except Exception as exc:  # records, never aborts the study
            return [_failed(panel, f"internal error: {exc}")
                    for panel in members]

    batches = _batches(ordered)
    if threads is not None and threads > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(one, batches))
    else:
        done = [one(batch) for batch in batches]
    reports: list[SkuUpliftReport | None] = [None] * len(ordered)
    for batch, batch_reports in zip(batches, done):
        for i, report in zip(batch, batch_reports):
            reports[i] = report
    return tuple(reports)
