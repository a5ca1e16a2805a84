"""Self-contained ordinary-least-squares engine with Student-t inference.

The solver uses Householder QR with column pivoting and its own
incomplete-beta evaluation for p-values, so results do not depend on any
linear-algebra or stats library. numpy is used only as the array container:
every product is elementwise and every sum a numpy reduction in a fixed
order, never a BLAS call, so the bytes of a result do not depend on which
BLAS kernel the machine would pick. They do depend on numpy's order for
summing a short contiguous row (fitted values, squared row norms of R^-1):
eight interleaved lanes added pairwise, which
``tests/oracles.py::_short_row_sum`` models.

There is one kernel: ``fit_ols_batch`` fits many designs at once on
zero-padded (fits, rows, columns) arrays, and ``fit_ols`` is a batch of one.
The kernel works on a (rows, columns, fits) copy: the fits lie on the
innermost, contiguous axis, so each sum over rows is one reduce over the
outer axis that adds the rows in order while its inner loop runs along every
fit at once. Padding changes no bit of a fit, so a fit's bytes do not depend
on the batch it was part of. The p-value's continued fraction runs on Python
floats, which give the bits of numpy's float64 scalars at native speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

# Pivots at or below RANK_RTOL times the largest pivot mark dependent columns.
RANK_RTOL = 1e-10

BASELINE_LABELS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun",
                   "Forecast", "Stock")
UPLIFT_LABELS = BASELINE_LABELS + ("DS",)


class OlsError(ValueError):
    """Invalid input to the regression engine."""


class DimensionMismatch(OlsError):
    pass


class InvalidDof(OlsError):
    pass


class PredictOnFailedFit(OlsError):
    pass


class FitStatus(Enum):
    OK = "ok"
    RANK_DEFICIENT = "rank_deficient"


@dataclass(frozen=True, eq=False)
class FitResult:
    """Coefficients and Student-t inference for one least-squares stage.

    When the design is rank deficient no coefficients are reported and
    ``missing_columns`` names a set of columns that are linear combinations
    of the pivoted ones. A saturated fit (``dof == 0``) reports coefficients
    with NaN standard errors, t statistics and p-values. The p-values are
    computed on first access: a study reads only ``gamma10``'s.
    """

    status: FitStatus
    column_labels: tuple[str, ...]
    n_obs: int
    rank: int
    dof: int
    coefficients: np.ndarray | None = None
    std_errors: np.ndarray | None = None
    t_stats: np.ndarray | None = None
    sigma2: float = math.nan
    residuals: np.ndarray | None = None
    missing_columns: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status is FitStatus.OK

    def p_value(self, j: int) -> float:
        """Two-sided p-value of coefficient ``j`` (NaN when ``dof == 0``);
        a rank-deficient fit has none and raises ``OlsError``."""
        if self.t_stats is None:
            raise OlsError("a rank-deficient fit has no p-values; dependent "
                           "columns: " + ", ".join(self.missing_columns))
        if self.dof == 0:
            return math.nan
        return t_pvalue(self.t_stats[j], self.dof)

    @cached_property
    def p_values(self) -> np.ndarray | None:
        """Every coefficient's ``p_value``; None for a rank-deficient fit."""
        return None if self.t_stats is None else np.array(
            [self.p_value(j) for j in range(len(self.t_stats))])


def _householder_qr(A: np.ndarray, y: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pivoted QR of a batch of designs ``A`` (fits, rows, columns) applied
    to ``y`` (fits, rows); returns per fit (R, Q'y, pivots, rank).

    The working matrix ``M`` is (rows, columns + 1, fits), with ``y`` as
    its last column and the fits on the innermost, contiguous axis; the copy
    that builds it also transposes the batch. Every sum over rows is then a
    reduce over axis 0 of a trailing block ``M[k:, k:]``, whose inner loop
    runs along all its columns of all the fits at once, and numpy adds the
    rows one after another. That fixes the rounding independently of the
    BLAS kernel and leaves it unchanged by trailing all-zero rows. Two rules
    keep it so, because numpy sums an innermost reduced axis pairwise. The
    column norms are reduced with ``y`` included and sliced off afterwards:
    a lone fit at its last step would otherwise reduce a single column. And
    every reduce runs on a fresh C-contiguous temporary with the rows
    outermost, never on an ``out=`` view into a scratch buffer, whose
    strides could put the rows innermost.
    Each fit picks its own pivots and sets its tolerance from its own first
    pivot. A fit whose pivot falls to the tolerance stops there and leaves
    the batch: the later steps neither read nor write it, and its R and Q'y
    are the partial factorisation at the step where it stopped.
    """
    count, n, p = A.shape
    M = np.empty((n, p + 1, count))
    M[:, :p] = A.transpose(1, 2, 0)
    M[:, p] = y.T
    R = np.empty((count, min(n, p), p))
    qty = np.empty((count, n))
    piv = np.tile(np.arange(p), (count, 1))
    rank = np.zeros(count, dtype=np.intp)
    live = np.arange(count)  # the fits still in M, in batch positions
    tol = None
    for k in range(min(n, p)):
        norms = np.sqrt(np.add.reduce(M[k:, k:] ** 2, axis=0)[:p - k])
        j_rel = np.argmax(norms, axis=0)
        pivot_norm = norms[j_rel, np.arange(live.size)]
        if tol is None:
            tol = RANK_RTOL * pivot_norm
        go = pivot_norm > tol[live]
        if not go.all():
            stop = ~go
            R[live[stop]] = M[:p, :p, stop].transpose(2, 0, 1)
            qty[live[stop]] = M[:, p, stop].T
            M, live = M[:, :, go], live[go]
            j_rel, pivot_norm = j_rel[go], pivot_norm[go]
            if live.size == 0:
                break
        swap = np.flatnonzero(j_rel)
        if swap.size:
            j = k + j_rel[swap]
            column = M[:, k, swap]
            M[:, k, swap] = M[:, j, swap]
            M[:, j, swap] = column
            fits = live[swap]
            piv[fits, k], piv[fits, j] = piv[fits, j], piv[fits, k]
        x0 = M[k, k]
        alpha = np.where(x0 != 0.0, -np.copysign(pivot_norm, x0), -pivot_norm)
        v = M[k:, k].copy()
        v[0] -= alpha
        # w = v'[x, A, y]; v'v = v'x - alpha * v[0] since v = x - alpha e1.
        w = np.add.reduce(v[:, None] * M[k:, k:], axis=0)
        vtv = w[0] - alpha * v[0]
        update = vtv > 0.0
        if update.all():
            M[k:, k + 1:] -= (2.0 / vtv * v)[:, None] * w[1:]
        else:
            u = np.flatnonzero(update)
            M[k:, k + 1:, u] -= (2.0 / vtv[u] * v[:, u])[:, None] * w[1:, u]
        M[k, k] = alpha
        M[k + 1:, k] = 0.0
        rank[live] += 1
    R[live] = M[:p, :p].transpose(2, 0, 1)
    qty[live] = M[:, p].T
    return R, qty, piv, rank


def linear_combination(X: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``X b`` with each row's products summed by numpy, not by BLAS, in
    numpy's lane order for a short contiguous row; on a batch ``X`` (fits,
    rows, columns) pass ``coefficients`` as (fits, 1, columns)."""
    return np.add.reduce(X * coefficients, axis=-1)


def _back_substitute(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``R X = B`` for a batch of upper-triangular ``R``, one row of
    ``X`` at a time with elementwise updates only."""
    X = B.copy()
    for i in range(R.shape[1] - 1, -1, -1):
        X[:, i] /= R[:, i, i, None]
        X[:, :i] -= R[:, :i, i, None] * X[:, i, None]
    return X


def fit_ols_batch(X: np.ndarray, y: np.ndarray, n_obs: Sequence[int],
                  labels: Sequence[str]) -> list[FitResult]:
    """Least-squares fits of a batch of designs in one pass of the kernel.

    ``X`` is (fits, rows, columns) and ``y`` (fits, rows); fit ``b`` uses
    its first ``n_obs[b]`` rows, and its remaining rows must be zero in both.
    Every sum over rows adds them in order and every other reduction runs
    within one fit, so each result is bit-identical to ``fit_ols`` on that
    fit's rows alone, whatever else shares the batch. The inference of all
    full-rank fits (``sigma2``, standard errors, t statistics) is computed
    as (fits, columns) arrays with elementwise operations; each result holds
    its own rows of them.
    """
    names = tuple(labels)
    count, n, p = X.shape
    if y.shape != (count, n) or len(n_obs) != count:
        raise DimensionMismatch("batch shapes of X, y and n_obs disagree")
    if p != len(names) or p == 0:
        raise DimensionMismatch("design columns do not match the labels")

    R, qty, piv, rank = _householder_qr(X, y)
    results: list[FitResult | None] = [None] * count
    for b in np.flatnonzero(rank < p).tolist():
        # The unpivoted columns are linear combinations of the pivoted ones.
        missing = tuple(names[j] for j in sorted(piv[b, rank[b]:]))
        results[b] = FitResult(status=FitStatus.RANK_DEFICIENT,
                               column_labels=names, n_obs=n_obs[b],
                               rank=int(rank[b]), dof=n_obs[b] - p,
                               missing_columns=missing)
    full = np.flatnonzero(rank == p)
    if full.size == 0:
        return results
    if full.size < count:
        X, y = X[full], y[full]
    # One solve gives the pivoted coefficients (column 0) and R^-1.
    rhs = np.empty((full.size, p, p + 1))
    rhs[:, :, 0] = qty[full, :p]
    rhs[:, :, 1:] = np.eye(p)
    solved = _back_substitute(R[full], rhs)
    beta = np.empty((full.size, p))
    np.put_along_axis(beta, piv[full], solved[:, :, 0], axis=1)
    residuals = y - linear_combination(X, beta[:, None, :])
    # A running total adds the residuals in row order; a 1-D reduce would
    # sum them pairwise, whose rounding changes with trailing zero rows.
    rss = np.add.accumulate(residuals * residuals, axis=1)[:, -1]
    # A saturated fit (dof 0) has a NaN sigma2, so NaN errors and t's.
    n_full = [n_obs[b] for b in full]
    dof = np.array(n_full) - p
    sigma2 = np.divide(rss, dof, out=np.full(full.size, math.nan),
                       where=dof != 0)
    # diag((X'X)^-1) in pivoted order: squared row norms of R^-1.
    r_inv = solved[:, :, 1:]
    variances = np.empty((full.size, p))
    np.put_along_axis(variances, piv[full],
                      sigma2[:, None] * np.add.reduce(r_inv * r_inv, axis=2),
                      axis=1)
    std_errors = np.sqrt(np.maximum(variances, 0.0))
    # beta / se where se > 0 or is NaN; else +0.0 for a zero coefficient and,
    # in an exact fit (zero residual variance), an infinity of its sign.
    t_stats = np.where(beta == 0.0, 0.0, np.copysign(math.inf, beta))
    np.divide(beta, std_errors, out=t_stats, where=~(std_errors <= 0.0))
    for b, m, coefficients, se, t, s2, r in zip(
            full.tolist(), n_full, beta, std_errors, t_stats, sigma2.tolist(),
            residuals):
        # Rows of the (fits, columns) arrays; the residuals are copied, so
        # that no result keeps the padded (fits, rows) array alive.
        results[b] = FitResult(status=FitStatus.OK, column_labels=names,
                               n_obs=m, rank=p, dof=m - p,
                               coefficients=coefficients, std_errors=se,
                               t_stats=t, sigma2=s2,
                               residuals=r[:m].copy())
    return results


def fit_ols(X: np.ndarray, y: Sequence[float] | np.ndarray,
            labels: Sequence[str] | None = None) -> FitResult:
    """Least-squares fit of ``y`` on the columns of ``X``: a batch of one.

    Uses column-pivoted Householder QR. If the numerical rank is below the
    column count the fit is reported as rank deficient (no coefficients; the
    unpivoted columns are listed) rather than re-parameterised. With full
    rank, ``sigma2 = ||r||^2 / (n - p)``, standard errors come from the
    diagonal of ``sigma2 * (X'X)^-1`` and p-values are two-sided Student-t
    with ``n - p`` degrees of freedom. A NaN or infinity in ``X`` or ``y``
    raises ``OlsError``.
    """
    values = np.asarray(X, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64).ravel()
    if values.ndim != 2:
        raise DimensionMismatch("design matrix must be two-dimensional")
    n, p = values.shape
    if yv.shape[0] != n:
        raise DimensionMismatch(f"X has {n} rows but y has {yv.shape[0]}")
    if p == 0:
        raise DimensionMismatch("design matrix has no columns")
    names = tuple(f"x{j}" for j in range(p)) if labels is None else labels
    if not (np.isfinite(values).all() and np.isfinite(yv).all()):
        raise OlsError("X and y must be finite")
    return fit_ols_batch(values[None], yv[None], (n,), names)[0]


def predict(fit: FitResult, X_new: np.ndarray) -> np.ndarray:
    """Evaluate the fitted linear model on new rows."""
    if not fit.ok or fit.coefficients is None:
        raise PredictOnFailedFit("cannot predict from a rank-deficient fit")
    values = np.asarray(X_new, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(fit.column_labels):
        raise DimensionMismatch("prediction rows do not match fit dimension")
    return linear_combination(values, fit.coefficients)


# --- Student-t distribution ------------------------------------------------
#
# Two-sided p-value for t with nu dof:  p = I_x(nu/2, 1/2), x = nu/(nu+t^2),
# where I is the regularized incomplete beta function, evaluated with the
# modified Lentz continued fraction (absolute error well below 1e-10).

_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 500


def _ln_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    # Python floats: the continued fraction's scalar arithmetic then runs
    # natively rather than as numpy-scalar operations, with the same bits.
    a, b, x = float(a), float(b), float(x)
    if a <= 0.0 or b <= 0.0:
        raise OlsError("incomplete beta requires positive parameters")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def t_pvalue(t: float, dof: int) -> float:
    """Two-sided p-value of a Student-t statistic."""
    if dof < 1:
        raise InvalidDof(f"dof must be >= 1, got {dof}")
    if math.isinf(t):
        return 0.0
    if math.isnan(t):
        raise OlsError("t statistic is NaN")
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


def t_critical(alpha: float, dof: int) -> float:
    """Positive t with two-sided p-value ``alpha`` (bisection on the CDF)."""
    if dof < 1:
        raise InvalidDof(f"dof must be >= 1, got {dof}")
    if not 0.0 < alpha < 1.0:
        raise OlsError(f"alpha must be in (0, 1), got {alpha}")
    lo, hi = 0.0, 1.0
    while t_pvalue(hi, dof) > alpha:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_pvalue(mid, dof) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
