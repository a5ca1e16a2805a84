"""Two-step per-SKU estimation of the promotional uplift of discounted sales.

Step 1 fits baseline sales on discount-free days (weekday dummies, forecast,
stock). Step 2 takes the baseline's prediction residuals on discount days and
regresses them on the same covariates plus the discounted-sales count; the
coefficient on that count is the per-unit uplift.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .domain import EligibilityRule, SkuPanel, filter_eligible
from .ols import (BASELINE_LABELS, UPLIFT_LABELS, BatchFit, DimensionMismatch,
                  FitResult, PredictOnFailedFit, fit_ols_batch,
                  linear_combination, p_value)
# Unused here; perfbench/tracer.py wraps two_step.fit_ols and two_step.predict.
from .ols import fit_ols, predict  # noqa: F401

# Stage 2 estimates 10 parameters; one extra day gives a nonzero dof.
MIN_DISCOUNT_DAYS_FOR_INFERENCE = 11

# run_study sorts the SKUs by length (the rows of their longer stage) and cuts
# them into runs of at most BATCH_FITS SKUs and BATCH_ROWS padded rows. The
# kernel keeps the fits on its innermost axis, so each of its numpy loops
# runs over (columns left) x fits contiguous elements, and numpy's per-call
# overhead is spread over the fits of a batch; from 32 to 64 fits a study of
# 2,000 180-day panels runs within 10 % of the same time. Wider batches cost
# memory, mostly on long panels, where a batch holds about four arrays of its
# padded size at once (the stacked design, the kernel's working matrix, a
# block temporary and the rank-1 update): run_study on 500 two-year panels
# (up to 594 rows) peaks at 4.9 MiB of traced allocations with 32 fits, 6.0
# with 40 and 8.5 with 64. `uplift fit` estimates one bucket of about 28
# such SKUs at a time per worker process, one batch each.
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
    was rank deficient). ``stage2`` is set only by ``fit_uplift``; a row of
    a study carries no stage fit.
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
    stage2: FitResult | None = None
    failure_reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is ReportStatus.OK


# The estimates of a report, NaN in a StudyReports row that failed.
_ESTIMATES = ("mean_residual", "gamma10", "gamma10_se", "gamma10_t",
              "gamma10_p")
_COLUMNS = ("sku", "store", "has_store", "ok", "n_plain", "n_disc",
            *_ESTIMATES, "significant")


@dataclass(frozen=True, eq=False)
class StudyReports:
    """The per-SKU outcomes of a study as columns, one row per SKU.

    One array per field of ``reports.csv``: ``sku``; ``store``, which
    holds a store id where ``has_store`` is true and, as in
    ``SkuPanel.key``, -1 elsewhere; ``ok``, the status
    (``ReportStatus.OK`` where true); ``n_plain`` and ``n_disc``; the
    float64 estimates ``mean_residual``, ``gamma10``, ``gamma10_se``,
    ``gamma10_t`` and ``gamma10_p``, NaN where the estimation failed; and
    ``significant``, false there. ``failure_reason`` is a list holding
    each failed row's reason and None elsewhere. Indexing or iterating
    gives rows as :class:`SkuUpliftReport` with no stage fits.
    """

    sku: np.ndarray
    store: np.ndarray
    has_store: np.ndarray
    ok: np.ndarray
    n_plain: np.ndarray
    n_disc: np.ndarray
    mean_residual: np.ndarray
    gamma10: np.ndarray
    gamma10_se: np.ndarray
    gamma10_t: np.ndarray
    gamma10_p: np.ndarray
    significant: np.ndarray
    failure_reason: list[str | None]

    @classmethod
    def failed(cls, panels: Sequence[SkuPanel],
               reason: str | None = None) -> StudyReports:
        """Rows for ``panels``, in their order, with no estimates and the
        failure ``reason``."""
        n = len(panels)
        stores = [p.store_id for p in panels]
        return cls(
            sku=np.array([p.sku_id for p in panels], dtype=np.int64),
            store=np.array([-1 if s is None else s for s in stores],
                           dtype=np.int64),
            has_store=np.array([s is not None for s in stores], dtype=bool),
            ok=np.zeros(n, dtype=bool),
            n_plain=np.array([p.n_plain for p in panels], dtype=np.int64),
            n_disc=np.array([p.n_disc for p in panels], dtype=np.int64),
            **{name: np.full(n, math.nan) for name in _ESTIMATES},
            significant=np.zeros(n, dtype=bool),
            failure_reason=[reason] * n)

    @classmethod
    def concatenate(cls, parts: Sequence[StudyReports]) -> StudyReports:
        """The rows of ``parts``, one after another."""
        if not parts:
            return cls.failed(())
        return cls(**{name: np.concatenate([getattr(p, name) for p in parts])
                      for name in _COLUMNS},
                   failure_reason=[r for p in parts for r in p.failure_reason])

    def take(self, index: np.ndarray) -> StudyReports:
        """The rows at the positions ``index``, in its order."""
        return StudyReports(**{name: getattr(self, name)[index]
                               for name in _COLUMNS},
                            failure_reason=[self.failure_reason[i]
                                            for i in index.tolist()])

    def __len__(self) -> int:
        return len(self.sku)

    def __getitem__(self, i: int) -> SkuUpliftReport:
        return _report_row(*(getattr(self, name)[i].item()
                             for name in _COLUMNS), self.failure_reason[i])

    def __iter__(self) -> Iterator[SkuUpliftReport]:
        columns = [getattr(self, name).tolist() for name in _COLUMNS]
        for values in zip(*columns, self.failure_reason):
            yield _report_row(*values)


def _report_row(sku, store, has_store, ok, n_plain, n_disc, mean_residual,
                gamma10, gamma10_se, gamma10_t, gamma10_p, significant,
                failure_reason) -> SkuUpliftReport:
    """One row of a StudyReports, from the Python values of its columns."""
    store_id = store if has_store else None
    if not ok:
        return SkuUpliftReport(sku_id=sku, store_id=store_id,
                               status=ReportStatus.ESTIMATION_FAILED,
                               n_plain=n_plain, n_disc=n_disc,
                               failure_reason=failure_reason)
    return SkuUpliftReport(
        sku_id=sku, store_id=store_id, status=ReportStatus.OK,
        n_plain=n_plain, n_disc=n_disc, mean_residual=mean_residual,
        gamma10=gamma10, gamma10_se=gamma10_se, gamma10_t=gamma10_t,
        gamma10_p=gamma10_p, significant_positive=significant)


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


def _stage1(panels: Sequence[SkuPanel]) -> BatchFit:
    """Stage 1 of each panel, in one kernel call: sales on weekday dummies,
    forecast and stock over its discount-free days."""
    X, y = _stack(panels, [p.plain_index for p in panels], BASELINE_LABELS)
    return fit_ols_batch(X, y, [p.n_plain for p in panels], BASELINE_LABELS)


def _lift(panels: Sequence[SkuPanel], coefficients: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """The stage-2 designs of the panels' discount days, (panels, rows,
    columns), and each day's sales minus its prediction by the panel's row
    of stage-1 ``coefficients``, (panels, rows); padded rows come out +0.0
    in both."""
    X, sales = _stack(panels, [p.disc_index for p in panels], UPLIFT_LABELS)
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
    return _stage1([panel]).row(0)


def residual_lift(panel: SkuPanel, baseline: FitResult) -> np.ndarray:
    """Actual minus predicted sales on each discount day (in disc_index order)."""
    _check_discount_days(panel)
    if not baseline.ok or baseline.coefficients is None:
        raise PredictOnFailedFit("cannot predict from a rank-deficient fit")
    if baseline.column_labels != BASELINE_LABELS:
        raise DimensionMismatch(f"columns {BASELINE_LABELS} do not match fit "
                                f"columns {baseline.column_labels}")
    return _lift([panel], baseline.coefficients[None])[1][0]


def _one_sided_positive_p(t: float, two_sided_p: float) -> float:
    return 0.5 * two_sided_p if t > 0 else 1.0 - 0.5 * two_sided_p


def fit_uplift(panel: SkuPanel, residuals: np.ndarray,
               alpha: float = 0.05,
               sidedness: Sidedness = Sidedness.TWO_SIDED) -> SkuUpliftReport:
    """Regress baseline residuals on covariates plus the discounted-sales
    count and report the uplift coefficient with its significance verdict.

    The report carries this stage-2 fit, residuals included.
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
    reports = StudyReports.failed([panel])
    _set_uplift(reports, [0], stage2, residuals[None], alpha, sidedness)
    return dataclasses.replace(reports[0], stage2=stage2.row(0))


def _set_uplift(reports: StudyReports, rows: Sequence[int], stage2: BatchFit,
                lift: np.ndarray, alpha: float, sidedness: Sidedness) -> None:
    """Fill the ``rows`` of ``reports`` from their stage 2, fitted in that
    order to the padded residuals ``lift``, reading each array of the batch
    once."""
    for b in np.flatnonzero(~stage2.ok).tolist():
        reports.failure_reason[rows[b]] = (
            "stage 2 rank deficient; dependent columns: "
            + ", ".join(stage2.missing_columns[b]))
    fitted = np.flatnonzero(stage2.ok)
    ds_col = len(UPLIFT_LABELS) - 1
    gamma10 = stage2.coefficients[fitted, ds_col]
    gamma10_t = stage2.t_stats[fitted, ds_col]
    gamma10_p = []
    mean_residual = []
    for b, t, dof, n in zip(fitted.tolist(), gamma10_t.tolist(),
                            stage2.dof[fitted].tolist(),
                            stage2.n_obs[fitted].tolist()):
        two_sided_p = p_value(t, dof)
        gamma10_p.append(_one_sided_positive_p(t, two_sided_p)
                         if sidedness is Sidedness.ONE_SIDED_POSITIVE
                         else two_sided_p)
        # np.mean of the SKU's own residuals, as a single-SKU fit takes it:
        # a sum over the padded batch in row order would round differently.
        mean_residual.append(np.mean(lift[b, :n]))
    at = np.asarray(rows, dtype=np.intp)[fitted]
    reports.ok[at] = True
    reports.mean_residual[at] = mean_residual
    reports.gamma10[at] = gamma10
    reports.gamma10_se[at] = stage2.std_errors[fitted, ds_col]
    reports.gamma10_t[at] = gamma10_t
    reports.gamma10_p[at] = gamma10_p
    reports.significant[at] = (gamma10 > 0.0) & (np.array(gamma10_p) < alpha)


def _estimate_batch(panels: Sequence[SkuPanel], alpha: float,
                    sidedness: Sidedness) -> StudyReports:
    """Both stages for a batch of panels, with one kernel call per stage.

    Stage 1 runs for every panel with discount-free days, then stage 2 for
    every panel whose stage 1 succeeded and whose discount days allow
    inference; each other panel gets the failed report a lone estimate
    would give it. Reports come back in the order of ``panels``.
    """
    reports = StudyReports.failed(panels)
    reasons = reports.failure_reason
    first = []
    for i, panel in enumerate(panels):
        try:
            _check_training_days(panel)
        except EmptyTrainingSet as exc:
            reasons[i] = str(exc)
        else:
            first.append(i)
    if not first:
        return reports

    stage1 = _stage1([panels[i] for i in first])
    second, baseline = [], []
    for row, (i, ok) in enumerate(zip(first, stage1.ok.tolist())):
        panel = panels[i]
        if not ok:
            reasons[i] = ("stage 1 rank deficient; dependent columns: "
                          + ", ".join(stage1.missing_columns[row]))
            continue
        try:
            _check_discount_days(panel)
            _check_inference(panel)
        except TwoStepError as exc:
            reasons[i] = str(exc)
        else:
            second.append(i)
            baseline.append(row)
    if not second:
        return reports

    X, lift = _lift([panels[i] for i in second],
                    stage1.coefficients[baseline])
    stage2 = fit_ols_batch(X, lift, [panels[i].n_disc for i in second],
                           UPLIFT_LABELS)
    _set_uplift(reports, second, stage2, lift, alpha, sidedness)
    return reports


def estimate_sku(panel: SkuPanel, alpha: float = 0.05,
                 sidedness: Sidedness = Sidedness.TWO_SIDED) -> SkuUpliftReport:
    """Run both stages for one panel, turning failures into a failed report:
    row 0 of a one-panel study, so with no stage fits.

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
              sidedness: Sidedness = Sidedness.TWO_SIDED) -> StudyReports:
    """Estimate every eligible panel; per-SKU failures never abort the study.

    The eligible panels are cut into batches of similar length (see
    ``_batches``), estimated one batch at a time. A fit's bytes do not
    depend on its batch, so the reports, returned as columns in ascending
    (sku, store) order, do not depend on the order of ``panels``. Neither
    stage's fit is kept. An unexpected exception while estimating a batch
    marks each SKU of that batch, and only of that batch, ``internal error:
    ...``. An ``alpha`` outside (0, 1) or an unknown ``sidedness`` raises
    ``TwoStepError`` before any fit.
    """
    sidedness = _checked_t_test(alpha, sidedness)
    eligible, _ = filter_eligible(panels, rule)
    ordered = sorted(eligible, key=lambda p: p.key)

    def one(batch: list[int]) -> StudyReports:
        members = [ordered[i] for i in batch]
        try:
            return _estimate_batch(members, alpha, sidedness)
        except Exception as exc:  # records, never aborts the study
            return StudyReports.failed(members, f"internal error: {exc}")

    batches = _batches(ordered)
    done = [one(batch) for batch in batches]
    # Row k of the batches' rows is the panel at position order[k].
    order = np.array([i for batch in batches for i in batch], dtype=np.intp)
    return StudyReports.concatenate(done).take(np.argsort(order))
