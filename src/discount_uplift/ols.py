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

There is one kernel: ``solve_ols_batch`` solves many designs at once on
zero-padded (fits, rows, columns) arrays, with no inference;
``fit_ols_batch`` is that solve followed by the inference, and ``fit_ols``
is a batch of one. The kernel works on a (rows, columns, fits) copy: the
fits lie on the innermost, contiguous axis, so each sum over rows is one
reduce over the outer axis that adds the rows in order while its inner loop
runs along every fit at once. Padding changes no bit of a fit, so a fit's
bytes do not depend on the batch it was part of. Every fit stays in the
batch from the first step to the last: one whose design loses rank is
frozen, changes no further bit, and comes out with NaN coefficients and
inference. The p-value's continued fraction runs on Python floats, which
give the bits of numpy's float64 scalars at native speed.
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
    """Coefficients and Student-t inference for one least-squares fit.

    ``fit_ols`` returns one, as a row of a :class:`BatchFit`; a study keeps
    none. When the design is rank deficient no coefficients are reported
    and ``missing_columns`` names a set of columns that are linear
    combinations of the pivoted ones. A saturated fit (``dof == 0``)
    reports coefficients with NaN standard errors, t statistics and
    p-values. The p-values are computed on first access.
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
        return p_value(self.t_stats[j], self.dof)

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
    that builds it also transposes the batch, and zero-pads it to at least
    ``columns`` rows, so ``R`` is always square. Every sum over rows is then
    a reduce over axis 0 of a trailing block ``M[k:, k:]``, whose inner loop
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
    pivot. A fit whose pivot falls to the tolerance stops there but stays
    in the batch, frozen: it swaps no column, its Householder vector is
    +0.0, so its update subtracts +0.0 and changes no bit, and its diagonal
    and subdiagonal are not written. Its pivots and rank stop changing, and
    its R and Q'y stay the partial factorisation at the step where it
    stopped, which the solve never reads.
    """
    count, n, p = A.shape
    M = np.zeros((max(n, p), p + 1, count))
    M[:n, :p] = A.transpose(1, 2, 0)
    M[:n, p] = y.T
    piv = np.tile(np.arange(p), (count, 1))
    rank = np.zeros(count, dtype=np.intp)
    live = np.ones(count, dtype=bool)
    fits = np.arange(count)
    tol = None
    for k in range(p):
        norms = np.sqrt(np.add.reduce(M[k:, k:] ** 2, axis=0)[:p - k])
        j_rel = np.argmax(norms, axis=0)
        pivot_norm = norms[j_rel, fits]
        if tol is None:
            tol = RANK_RTOL * pivot_norm
        live &= pivot_norm > tol
        j_rel[~live] = 0
        swap = np.flatnonzero(j_rel)
        if swap.size:
            j = k + j_rel[swap]
            column = M[:, k, swap]
            M[:, k, swap] = M[:, j, swap]
            M[:, j, swap] = column
            piv[swap, k], piv[swap, j] = piv[swap, j], piv[swap, k]
        x0 = M[k, k]
        alpha = np.where(x0 != 0.0, -np.copysign(pivot_norm, x0), -pivot_norm)
        v = M[k:, k].copy()
        v[0] -= alpha
        v[:, ~live] = 0.0
        # w = v'[x, A, y]; v'v = v'x - alpha * v[0] since v = x - alpha e1.
        w = np.add.reduce(v[:, None] * M[k:, k:], axis=0)
        w[:, ~live] = 0.0
        vtv = w[0] - alpha * v[0]
        # v'v is +0.0 for a frozen fit, and for a live one only if its
        # squares underflow; either way its update is +0.0.
        scale = np.divide(2.0, vtv, out=np.zeros(count), where=vtv > 0.0)
        M[k:, k + 1:] -= (scale * v)[:, None] * w[1:]
        M[k, k, live] = alpha[live]
        M[k + 1:, k, live] = 0.0
        rank += live
    return (M[:p, :p].transpose(2, 0, 1).copy(), M[:, p].T.copy(), piv,
            rank)


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


@dataclass(frozen=True, eq=False)
class BatchSolve:
    """The coefficients of the fits of one ``solve_ols_batch`` call, one row
    per fit, with no inference.

    ``coefficients`` is (fits, columns), NaN in the rows of the
    rank-deficient fits, and ``missing_columns`` names each such fit's
    dependent columns (empty at full rank). ``r`` and ``pivots`` are each
    fit's triangular factor, the identity where it is rank deficient, and
    its column order, from which ``fit_ols_batch`` forms the inference.
    """

    column_labels: tuple[str, ...]
    n_obs: np.ndarray
    rank: np.ndarray
    coefficients: np.ndarray
    missing_columns: tuple[tuple[str, ...], ...]
    r: np.ndarray
    pivots: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        """Mask of the full-rank fits."""
        return self.rank == len(self.column_labels)


@dataclass(frozen=True, eq=False)
class BatchFit(BatchSolve):
    """The fits of one ``fit_ols_batch`` call as arrays, one row per fit:
    a :class:`BatchSolve` with its inference.

    ``std_errors`` and ``t_stats`` are (fits, columns) and ``sigma2``
    (fits,); their rows are NaN where a fit is rank deficient.
    ``residuals`` is (fits, rows), each fit's in its first ``n_obs``
    entries. ``row`` gives one fit as a :class:`FitResult`.
    """

    dof: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    sigma2: np.ndarray
    residuals: np.ndarray

    def row(self, b: int) -> FitResult:
        """Fit ``b`` as a :class:`FitResult` whose arrays are views of the
        batch's rows."""
        n_obs, dof = int(self.n_obs[b]), int(self.dof[b])
        if not self.ok[b]:
            return FitResult(status=FitStatus.RANK_DEFICIENT,
                             column_labels=self.column_labels, n_obs=n_obs,
                             rank=int(self.rank[b]), dof=dof,
                             missing_columns=self.missing_columns[b])
        return FitResult(status=FitStatus.OK, column_labels=self.column_labels,
                         n_obs=n_obs, rank=int(self.rank[b]), dof=dof,
                         coefficients=self.coefficients[b],
                         std_errors=self.std_errors[b],
                         t_stats=self.t_stats[b],
                         sigma2=float(self.sigma2[b]),
                         residuals=self.residuals[b, :n_obs])


def solve_ols_batch(X: np.ndarray, y: np.ndarray, n_obs: Sequence[int],
                    labels: Sequence[str]) -> BatchSolve:
    """Least-squares coefficients of a batch of designs in one pass of the
    kernel, with no inference.

    ``X`` is (fits, rows, columns) and ``y`` (fits, rows); fit ``b`` uses
    its first ``n_obs[b]`` rows, and its remaining rows must be zero in both.
    Every ``n_obs`` must lie in 1..rows, else ``DimensionMismatch``.
    Every sum over rows adds them in order and every other reduction runs
    within one fit, so each fit is bit-identical to ``fit_ols`` on that
    fit's rows alone, whatever else shares the batch.
    """
    names = tuple(labels)
    count, n, p = X.shape
    if y.shape != (count, n) or len(n_obs) != count:
        raise DimensionMismatch("batch shapes of X, y and n_obs disagree")
    n_obs = np.array(n_obs, dtype=np.int64)
    bad = n_obs[(n_obs < 1) | (n_obs > n)].tolist()
    if bad:
        raise DimensionMismatch(f"n_obs must be in 1..{n}, the batch's rows; "
                                f"got {bad}")
    if p != len(names) or p == 0:
        raise DimensionMismatch("design columns do not match the labels")

    R, qty, piv, rank = _householder_qr(X, y)
    deficient = rank < p
    missing: list[tuple[str, ...]] = [()] * count
    for b in np.flatnonzero(deficient).tolist():
        # The unpivoted columns are linear combinations of the pivoted ones.
        missing[b] = tuple(names[j] for j in sorted(piv[b, rank[b]:]))
    # A deficient fit solves the identity instead of its partial R and gets
    # NaN coefficients, so every row derived from them is NaN.
    R[deficient] = np.eye(p)
    pivoted = _back_substitute(R, qty[:, :p, None])[:, :, 0]
    beta = np.empty((count, p))
    np.put_along_axis(beta, piv, pivoted, axis=1)
    beta[deficient] = math.nan
    return BatchSolve(column_labels=names, n_obs=n_obs, rank=rank,
                      coefficients=beta, missing_columns=tuple(missing), r=R,
                      pivots=piv)


def fit_ols_batch(X: np.ndarray, y: np.ndarray, n_obs: Sequence[int],
                  labels: Sequence[str]) -> BatchFit:
    """``solve_ols_batch`` followed by the inference of every fit
    (``sigma2``, standard errors, t statistics), computed as (fits,
    columns) arrays with elementwise operations and returned as such, with
    the residuals; a rank-deficient fit's rows are NaN.

    ``R^-1`` comes from a back-substitution of its own. Each right-hand
    column is updated only from itself and ``R``, so the coefficients are
    the bits they would be if solved together with it.
    """
    solved = solve_ols_batch(X, y, n_obs, labels)
    beta, piv = solved.coefficients, solved.pivots
    count, p = beta.shape
    dof = solved.n_obs - p
    fitted = y - linear_combination(X, beta[:, None, :])
    # A running total adds the residuals in row order; a 1-D reduce would
    # sum them pairwise, whose rounding changes with trailing zero rows.
    rss = np.add.accumulate(fitted * fitted, axis=1)[:, -1]
    # A saturated fit (dof 0) has a NaN sigma2, so NaN errors and t's.
    sigma2 = np.divide(rss, dof, out=np.full(count, math.nan),
                       where=dof != 0)
    # diag((X'X)^-1) in pivoted order: squared row norms of R^-1.
    r_inv = _back_substitute(solved.r, np.broadcast_to(np.eye(p),
                                                        (count, p, p)))
    variances = np.empty((count, p))
    np.put_along_axis(variances, piv,
                      sigma2[:, None] * np.add.reduce(r_inv * r_inv, axis=2),
                      axis=1)
    std_errors = np.sqrt(np.maximum(variances, 0.0))
    # beta / se where se > 0 or is NaN; else +0.0 for a zero coefficient and,
    # in an exact fit (zero residual variance), an infinity of its sign.
    t_stats = np.where(beta == 0.0, 0.0, np.copysign(math.inf, beta))
    np.divide(beta, std_errors, out=t_stats, where=~(std_errors <= 0.0))
    return BatchFit(**vars(solved), dof=dof, std_errors=std_errors,
                    t_stats=t_stats, sigma2=sigma2, residuals=fitted)


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
    return fit_ols_batch(values[None], yv[None], (n,), names).row(0)


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


def p_value(t: float, dof: int) -> float:
    """``t_pvalue(t, dof)``, or NaN for a saturated fit (``dof == 0``)."""
    return math.nan if dof == 0 else t_pvalue(t, dof)


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
