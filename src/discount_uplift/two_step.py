"""Two-step per-SKU estimation of the promotional uplift of discounted sales.

Step 1 fits baseline sales on discount-free days (weekday dummies, forecast,
stock). Step 2 takes the baseline's prediction residuals on discount days and
regresses them on the same covariates plus the discounted-sales count; the
coefficient on that count is the per-unit uplift.

The code computes an equal form of both steps. Step 2's covariates include
step 1's, so regressing the residuals gives the coefficients of regressing
raw discount-day sales, less step 1's, with the same residuals: stage 2 is
fitted to raw sales, and its estimates do not depend on stage 1, which
enters only ``mean_residual`` and the order of failures. In each stage the
weekday dummies are absorbed (Frisch-Waugh-Lovell): the covariates'
coefficients and standard errors are those of the covariates and sales
demeaned within each weekday, so the kernel fits 2 and 3 columns instead of
9 and 10, and stage 2's dof stays ``n - 10``. ``mean_residual`` is the
discount-day mean of ``y - a_d - b.x``, where ``a_d`` is ``mean(y) -
b.mean(x)`` over the discount-free days of weekday ``d``. Every sum over
rows is a ``bincount`` per (SKU, weekday). No weekday coefficient is formed.

Rank rule. A stage is rank deficient, and names its dependent columns in
the order Mon..Sun, Forecast, Stock, DS, when:

- a weekday has no row in that stage;
- a covariate's demeaned norm is at most ``RANK_RTOL`` times its raw norm,
  so that it is, to that tolerance, a combination of the weekday dummies;
- the kernel finds a demeaned covariate dependent on the others.

A SKU fails on the first of: a non-finite forecast, no discount-free days,
stage 1 rank deficient, no or too few discount days, stage 2 rank
deficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import ols
from .domain import EligibilityRule, SkuPanel, filter_eligible
from .ols import (BASELINE_LABELS, RANK_RTOL, UPLIFT_LABELS, BatchSolve,
                  OlsError, fit_ols_batch, solve_ols_batch)
# Unused here; perfbench/tracer.py wraps two_step.fit_ols and two_step.predict.
from .ols import fit_ols, predict  # noqa: F401

# Stage 2 estimates 10 parameters (7 of them absorbed); one extra day gives
# a nonzero dof.
MIN_DISCOUNT_DAYS_FOR_INFERENCE = 11

# run_study sorts the SKUs by length (the rows of their longer stage) and cuts
# them into runs of at most BATCH_FITS SKUs and BATCH_ROWS padded rows. The
# kernel keeps the fits on its innermost axis, so each of its numpy loops
# runs over (columns left) x fits contiguous elements, and numpy's per-call
# overhead is spread over the fits of a batch: run_study and summarize of
# 2,000 180-day panels take 0.102 s with 40 fits, 0.094 with 64, 0.091 with
# 100 and 0.092 with 160 (best of 3, 2 shared vCPUs), at traced peaks of
# 1.27, 1.80, 2.61 and 3.86 MiB. Wider batches cost memory, mostly on long
# panels, where a batch holds its joined columns and about four arrays of
# its padded size at once (the demeaned design, the kernel's working
# matrix, a block temporary and the rank-1 update): run_study on 500
# two-year panels (up to 594 rows) peaks at 4.0 MiB of traced allocations
# with 40 fits and at 5.7 with 64 or more, where the row cap holds a batch
# to 55 of them. `uplift fit` estimates one bucket of 24 to 34 such SKUs at
# a time per worker process, one batch each.
# Sorting by length keeps a long panel from padding short ones to its
# length, and the row cap keeps a batch's working matrix near 1 MB (2**15
# rows x 4 columns) however long the panels: 3,650-day panels go 11 to a
# batch.
BATCH_FITS = 100
BATCH_ROWS = 1 << 15


class TwoStepError(ValueError):
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
    ``failure_reason`` says why (naming the dependent columns when a stage
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
    gives rows as :class:`SkuUpliftReport`.
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
    def failed(cls, panels: Sequence[SkuPanel]) -> StudyReports:
        """Rows for ``panels``, in their order, with no estimates and no
        failure reason yet."""
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
            failure_reason=[None] * n)

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


def _absorb(fit: np.ndarray, count: int, weekday: np.ndarray,
            columns: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One stage's design for ``count`` fits with the weekday dummies
    absorbed, from the stage's rows: each row's ``fit`` (ascending),
    ``weekday`` and ``columns`` (the covariates, then sales).

    Returns each fit's row count, (fits,); the columns demeaned within each
    of the fit's weekdays and zero-padded to a common row count, (columns,
    fits, rows); each (fit, weekday)'s row count, (fits, 7), and the
    columns' means, (columns, fits, 7), 0 where a weekday has no row; and
    the (fits, covariates) mask of covariates whose demeaned norm is at
    most RANK_RTOL times their raw norm. Every sum over rows is a
    ``bincount``, which adds a bin's rows in index order.
    """
    lengths = np.bincount(fit, minlength=count)
    code = 7 * fit + weekday - 1
    counts = np.bincount(code, minlength=7 * count)
    # Row r of fit f goes to f * rows + r in each column's padded block.
    at = np.arange(len(fit)) + (lengths.max() * np.arange(count)
                                - np.cumsum(lengths) + lengths)[fit]
    padded = np.zeros((len(columns), count, lengths.max()))
    means = np.zeros((len(columns), 7 * count))
    squares = np.empty((len(columns) - 1, count))
    for j, column in enumerate(columns):
        np.divide(np.bincount(code, weights=column, minlength=7 * count),
                  counts, out=means[j], where=counts > 0)
        demeaned = column - means[j, code]
        padded[j].reshape(-1)[at] = demeaned
        if j < len(squares):
            squares[j] = np.bincount(fit, weights=demeaned * demeaned,
                                     minlength=count)
    means = means.reshape(len(columns), count, 7)
    # A column's squared norm is its demeaned one plus, per weekday, the
    # row count times the squared mean.
    raw = squares + ols.linear_combination(means[:-1] ** 2,
                                           counts.reshape(count, 7))
    return (lengths, padded, counts.reshape(count, 7), means,
            (np.sqrt(squares) <= RANK_RTOL * np.sqrt(raw)).T)


def _dependent(counts: np.ndarray, fits: BatchSolve,
               flat: np.ndarray) -> np.ndarray:
    """The (fits, 7 + covariates) mask of each fit's dependent columns, in
    label order: its weekdays with no row, then the covariates that are
    ``flat`` or that the kernel left unpivoted."""
    unpivoted = np.zeros_like(flat)
    np.put_along_axis(unpivoted, fits.pivots,
                      np.arange(flat.shape[1]) >= fits.rank[:, None], axis=1)
    return np.concatenate([counts == 0, flat | unpivoted], axis=1)


def _rank_deficient(stage: int, labels: tuple[str, ...],
                    dependent: np.ndarray) -> str:
    names = [label for label, dead in zip(labels, dependent.tolist()) if dead]
    return f"stage {stage} rank deficient; dependent columns: " \
        + ", ".join(names)


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


def _fail(reports: StudyReports, at: np.ndarray, reason: str) -> None:
    """Make the rows ``at`` of ``reports`` failed rows with ``reason``,
    whatever was written to them before."""
    reports.ok[at] = False
    for name in _ESTIMATES:
        getattr(reports, name)[at] = math.nan
    reports.significant[at] = False
    for i in at.tolist():
        reports.failure_reason[i] = reason


def _estimate_batch(panels: Sequence[SkuPanel], reports: StudyReports,
                    at: np.ndarray) -> None:
    """Both stages for a batch of panels, with one kernel call per stage,
    written to the rows ``at`` of ``reports``, which hold those panels'
    ids and day counts, no estimates and no failure reason.

    Stage 1, sales on weekday dummies, forecast and stock, is solved with
    no inference for every panel with discount-free days, over those days.
    Stage 2, raw sales on weekday dummies, forecast, stock and the
    discounted-sales count over the discount days, runs for every panel
    whose stage 1 has full rank and whose discount days allow inference;
    each other panel gets the failure reason a lone estimate would give
    it, and a panel with a non-finite forecast fails before either stage.
    Both stages absorb the weekday dummies (see the module docstring). The
    rows of the full-rank stage-2 fits are made ``ok`` with every estimate
    but the p-value, which ``_set_p_values`` adds; a NaN t statistic among
    them raises ``OlsError`` before any is.
    """
    reasons = reports.failure_reason
    sku = reports.sku[at].tolist()
    n_plain, n_disc = reports.n_plain[at], reports.n_disc[at]

    def explain(failed: np.ndarray, reason) -> None:
        """Word ``reason(i)`` for each panel ``i`` where ``failed``."""
        for i in np.flatnonzero(failed).tolist():
            reasons[at[i]] = reason(i)

    tables = [p.table for p in panels]
    owner = np.repeat(np.arange(len(panels)), [len(t) for t in tables])
    weekday, forecast, stock, ds, sales = (
        np.concatenate([getattr(t, name) for t in tables])
        for name in ("weekday", "forecast", "stock", "discounted_sales",
                     "sales"))
    # The parser rejects a non-finite forecast; a hand-built panel may not.
    finite = np.ones(len(panels), dtype=bool)
    finite[owner[~np.isfinite(forecast)]] = False
    explain(~finite, lambda i: f"sku {sku[i]}: non-finite forecast")
    explain(finite & (n_plain == 0),
            lambda i: f"sku {sku[i]}: no discount-free days")
    first = np.flatnonzero(finite & (n_plain > 0))
    if not first.size:
        return

    def absorbed(members: np.ndarray, rows: np.ndarray, *columns):
        """_absorb of the ``rows`` (a mask) of the panels at ``members``."""
        fit = np.full(len(panels), -1)
        fit[members] = np.arange(len(members))
        taken = np.flatnonzero(rows & (fit[owner] >= 0))
        return _absorb(fit[owner[taken]], len(members), weekday[taken],
                       [c[taken] for c in columns])

    plain, design, counts, plain_means, flat = absorbed(
        first, ds == 0, forecast, stock, sales)
    stage1 = solve_ols_batch(design[:-1].transpose(1, 2, 0), design[-1],
                             plain, BASELINE_LABELS[7:])
    dependent = _dependent(counts, stage1, flat)
    deficient = dependent.any(axis=1)
    for row in np.flatnonzero(deficient).tolist():
        reasons[at[first[row]]] = _rank_deficient(1, BASELINE_LABELS,
                                                  dependent[row])
    reached = np.zeros(len(panels), dtype=bool)
    reached[first[~deficient]] = True
    explain(reached & (n_disc == 0),
            lambda i: f"sku {sku[i]}: no discount days")
    explain(reached & (n_disc > 0)
            & (n_disc < MIN_DISCOUNT_DAYS_FOR_INFERENCE),
            lambda i: f"sku {sku[i]}: {n_disc[i]} discount days, need at "
                      f"least {MIN_DISCOUNT_DAYS_FOR_INFERENCE} for stage-2 "
                      "inference")
    second = np.flatnonzero(reached
                            & (n_disc >= MIN_DISCOUNT_DAYS_FOR_INFERENCE))
    if not second.size:
        return

    disc, design, counts, disc_means, flat = absorbed(
        second, ds >= 1, forecast, stock, ds, sales)
    stage2 = fit_ols_batch(design[:-1].transpose(1, 2, 0), design[-1],
                           disc, UPLIFT_LABELS[7:], absorbed=7)
    # Each discount day's residual is y - a_d - b.x, with a_d = mean(y) -
    # b.mean(x) over the discount-free days of its weekday d; summed per
    # weekday, that is its count times the gap between the weekday's means.
    baseline = np.searchsorted(first, second)
    b = stage1.coefficients[baseline].T[:, :, None]
    gap = disc_means[[0, 1, 3]] - plain_means[:, baseline]
    sums = counts * (gap[2] - b[0] * gap[0] - b[1] * gap[1])
    mean_residual = np.bincount(np.repeat(np.arange(len(second)), 7),
                                weights=sums.ravel()) / disc
    dependent = _dependent(counts, stage2, flat)
    deficient = dependent.any(axis=1)
    for row in np.flatnonzero(deficient).tolist():
        reasons[at[second[row]]] = _rank_deficient(2, UPLIFT_LABELS,
                                                   dependent[row])
    fitted = np.flatnonzero(~deficient)
    gamma10_t = stage2.t_stats[fitted, -1]
    if np.isnan(gamma10_t).any():
        raise OlsError("t statistic is NaN")
    rows = at[second[fitted]]
    reports.ok[rows] = True
    reports.mean_residual[rows] = mean_residual[fitted]
    reports.gamma10[rows] = stage2.coefficients[fitted, -1]
    reports.gamma10_se[rows] = stage2.std_errors[fitted, -1]
    reports.gamma10_t[rows] = gamma10_t


def _one_sided_positive_p(t: np.ndarray,
                          two_sided_p: np.ndarray) -> np.ndarray:
    return np.where(t > 0, 0.5 * two_sided_p, 1.0 - 0.5 * two_sided_p)


def _set_p_values(reports: StudyReports, alpha: float,
                  sidedness: Sidedness) -> None:
    """Fill ``gamma10_p`` and ``significant`` of every ``ok`` row in one
    pass of ``ols.t_pvalues``, at stage 2's dof, ``n_disc - 10``."""
    ok = np.flatnonzero(reports.ok)
    t = reports.gamma10_t[ok]
    p = ols.t_pvalues(t, reports.n_disc[ok] - len(UPLIFT_LABELS))
    if sidedness is Sidedness.ONE_SIDED_POSITIVE:
        p = _one_sided_positive_p(t, p)
    reports.gamma10_p[ok] = p
    reports.significant[ok] = (reports.gamma10[ok] > 0.0) & (p < alpha)


def estimate_sku(panel: SkuPanel, alpha: float = 0.05,
                 sidedness: Sidedness = Sidedness.TWO_SIDED) -> SkuUpliftReport:
    """Run both stages for one panel, turning failures into a failed report:
    row 0 of a one-panel study.

    An ``alpha`` outside (0, 1) or an unknown ``sidedness`` raises
    ``TwoStepError``.
    """
    sidedness = _checked_t_test(alpha, sidedness)
    reports = StudyReports.failed([panel])
    _estimate_batch([panel], reports, np.zeros(1, dtype=np.intp))
    _set_p_values(reports, alpha, sidedness)
    return reports[0]


def _batches(rows: np.ndarray) -> list[np.ndarray]:
    """Positions into ``rows``, each SKU's row count in its longer stage,
    in batches of similar length.

    The positions go in ascending order of ``rows``, equal counts keeping
    their order, and a batch closes at BATCH_FITS SKUs or before it would
    pass BATCH_ROWS padded rows; a SKU longer than that forms a batch of
    one.
    """
    order = np.argsort(rows, kind="stable")
    cuts, start = [], 0
    for k, length in enumerate(rows[order].tolist()):
        # Ascending order makes SKU k the widest of its batch.
        if k > start and (k - start == BATCH_FITS
                          or (k - start + 1) * length > BATCH_ROWS):
            cuts.append(k)
            start = k
    return np.split(order, cuts) if order.size else []


def run_study(panels: Iterable[SkuPanel],
              rule: EligibilityRule = EligibilityRule(),
              alpha: float = 0.05,
              sidedness: Sidedness = Sidedness.TWO_SIDED) -> StudyReports:
    """Estimate every eligible panel; per-SKU failures never abort the study.

    The reports, one row per eligible panel in ascending (sku, store)
    order, are made once, and the panels are estimated in batches of
    similar length (see ``_batches``), each writing its own rows; the
    p-values of all the rows that are ``ok`` then come in one pass. A
    fit's bytes do not depend on its batch, so the reports do not depend
    on the order of ``panels``. Neither stage's fit is kept. An unexpected
    exception while estimating a batch marks each SKU of that batch, and
    only of that batch, ``internal error: ...``. An ``alpha`` outside
    (0, 1) or an unknown ``sidedness`` raises ``TwoStepError`` before any
    fit.
    """
    sidedness = _checked_t_test(alpha, sidedness)
    eligible, _ = filter_eligible(panels, rule)
    ordered = sorted(eligible, key=lambda p: p.key)
    reports = StudyReports.failed(ordered)
    for batch in _batches(np.maximum(reports.n_plain, reports.n_disc)):
        try:
            _estimate_batch([ordered[i] for i in batch.tolist()], reports,
                            batch)
        except Exception as exc:  # records, never aborts the study
            _fail(reports, batch, f"internal error: {exc}")
    _set_p_values(reports, alpha, sidedness)
    return reports
