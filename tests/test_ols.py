from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discount_uplift.ols import (DimensionMismatch, FitResult, FitStatus,
                                 InvalidDof, OlsError, PredictOnFailedFit,
                                 _householder_qr, fit_ols, fit_ols_batch,
                                 predict, regularized_incomplete_beta,
                                 solve_ols_batch, t_critical, t_pvalue,
                                 t_pvalues)
from discount_uplift.two_step import _one_sided_positive_p
from oracles import (householder_fit, matrix_with_condition,
                     normal_equations_fit, t_pvalue_quadrature)


def test_mean_fit():
    fit = fit_ols(np.ones((3, 1)), [2.0, 4.0, 6.0])
    assert fit.ok and fit.coefficients[0] == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(fit.residuals, [-2.0, 0.0, 2.0])


def test_saturated_fit_reports_nan_inference():
    fit = fit_ols(np.eye(2), [3.0, 5.0])
    assert fit.ok and fit.dof == 0
    assert np.allclose(fit.coefficients, [3.0, 5.0])
    assert np.allclose(fit.residuals, 0.0)
    assert math.isnan(fit.sigma2)
    assert np.isnan(fit.std_errors).all()
    assert np.isnan(fit.p_values).all()


def test_exact_fit_inference_branches():
    # y = 2x exactly: the residual variance and both standard errors are 0.
    # A zero coefficient gets t = +0.0, even as -0.0, and p = 1; a nonzero
    # one gets an infinite t of its sign and p = 0.
    fit = fit_ols(np.column_stack([np.ones(6), np.arange(6)]), 2 * np.arange(6))
    assert fit.ok and fit.dof == 4 and fit.sigma2 == 0.0
    assert fit.coefficients.tolist() == [0.0, 2.0]
    assert math.copysign(1.0, fit.coefficients[0]) == -1.0
    assert fit.std_errors.tolist() == [0.0, 0.0]
    assert fit.t_stats.tolist() == [0.0, math.inf]
    assert math.copysign(1.0, fit.t_stats[0]) == 1.0
    assert fit.p_values.tolist() == [1.0, 0.0]


def test_p_value_of_rank_deficient_fit_raises():
    fit = fit_ols(np.column_stack([np.ones(5), np.ones(5)]), np.arange(5.0))
    assert fit.status is FitStatus.RANK_DEFICIENT and fit.p_values is None
    with pytest.raises(OlsError, match="rank-deficient.*x1"):
        fit.p_value(0)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(50, 9))
    y = rng.normal(size=50)
    fit = fit_ols(X, y)
    oracle = normal_equations_fit(X, y)
    assert np.abs(fit.coefficients - oracle).max() <= 1e-8


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fit_ols(np.ones((3, 1)), [1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="two-dimensional"):
        fit_ols(np.ones(3), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch, match="no columns"):
        fit_ols(np.ones((3, 0)), [1.0, 2.0, 3.0])
    X, y = np.ones((2, 3, 1)), np.ones((2, 3))
    with pytest.raises(DimensionMismatch, match="batch shapes"):
        fit_ols_batch(X, y[:, :2], [3, 3], ("a",))
    with pytest.raises(DimensionMismatch, match="labels"):
        fit_ols_batch(X, y, [3, 3], ("a", "b"))


def test_rank_deficiency_lists_dependent_columns():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    X[:, 3] = X[:, 0] + X[:, 1]
    fit = fit_ols(X, rng.normal(size=30), labels=("a", "b", "c", "d"))
    assert fit.status is FitStatus.RANK_DEFICIENT
    assert fit.rank == 3
    assert fit.coefficients is None
    assert len(fit.missing_columns) == 1
    assert set(fit.missing_columns) <= {"a", "b", "d"}


def test_all_zero_column_named():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    X[:, 1] = 0.0
    fit = fit_ols(X, rng.normal(size=20), labels=("x0", "zero", "x2"))
    assert fit.status is FitStatus.RANK_DEFICIENT
    assert fit.missing_columns == ("zero",)


def test_predict_reproduces_training_row_and_linearity():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    fit = fit_ols(X, y)
    row = X[5:6]
    assert predict(fit, row)[0] == pytest.approx(y[5] - fit.residuals[5])
    bumped = row.copy()
    bumped[0, 2] += 2.5
    delta = predict(fit, bumped)[0] - predict(fit, row)[0]
    assert delta == pytest.approx(2.5 * fit.coefficients[2], abs=1e-10)


def test_predict_hand_computed_dot_product():
    # Wednesday row with forecast 0.736 and stock 5 under known coefficients.
    beta = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 2.0, 0.05])
    labels = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun",
              "Forecast", "Stock")
    fit = FitResult(status=FitStatus.OK, column_labels=labels, n_obs=99,
                    rank=9, dof=90, coefficients=beta)
    row = np.array([[0, 0, 1, 0, 0, 0, 0, 0.736, 5.0]])
    assert predict(fit, row)[0] == pytest.approx(0.3 + 2.0 * 0.736 + 0.05 * 5.0)


def test_predict_refuses_failed_or_mismatched():
    fit = fit_ols(np.column_stack([np.ones(5), np.ones(5)]), np.arange(5.0))
    with pytest.raises(PredictOnFailedFit):
        predict(fit, np.ones((1, 2)))
    good = fit_ols(np.ones((5, 1)), np.arange(5.0))
    with pytest.raises(DimensionMismatch):
        predict(good, np.ones((1, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_ols_rejects_non_finite_input(bad):
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(12, 3)), rng.normal(size=12)
    y[5] = bad
    with pytest.raises(OlsError, match="finite"):
        fit_ols(X, y)
    y[5] = 0.0
    X[7, 1] = bad
    with pytest.raises(OlsError, match="finite"):
        fit_ols(X, y)


# --- Student-t ---------------------------------------------------------------

def test_t_pvalue_symmetry_point():
    assert t_pvalue(0.0, 1) == 1.0
    assert t_pvalue(0.0, 500) == 1.0


def test_t_pvalue_frozen_quadrature_value():
    # 2 * integral of the t density over [2, inf) at 10 dof.
    assert t_pvalue(2.0, 10) == pytest.approx(0.07338803477074043, abs=1e-8)


def test_t_pvalue_matches_quadrature_grid():
    for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
        for dof in (1, 5, 10, 50, 500):
            assert t_pvalue(t, dof) == pytest.approx(
                t_pvalue_quadrature(t, dof), abs=1e-8), (t, dof)


def test_t_pvalue_deep_tail_not_clamped():
    p = t_pvalue(100.0, 50)
    assert 0.0 < p < 1e-12


def test_t_pvalue_negative_symmetric():
    assert t_pvalue(-3.3, 7) == pytest.approx(t_pvalue(3.3, 7), abs=1e-15)


def test_t_pvalue_invalid_dof():
    with pytest.raises(InvalidDof):
        t_pvalue(1.0, 0)
    with pytest.raises(InvalidDof):
        t_critical(0.05, 0)


def test_student_t_rejects_invalid_arguments():
    with pytest.raises(OlsError, match="NaN"):
        t_pvalue(math.nan, 5)
    with pytest.raises(OlsError, match="alpha"):
        t_critical(1.5, 5)
    with pytest.raises(OlsError, match="positive"):
        regularized_incomplete_beta(0.0, 1.0, 0.5)


def test_t_critical_inverts_pvalue():
    for alpha in (0.5, 0.05, 0.001):
        for dof in (1, 3, 30, 400):
            t = t_critical(alpha, dof)
            assert t_pvalue(t, dof) == pytest.approx(alpha, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.floats(-40, 40, allow_nan=False), st.integers(1, 400))
def test_numpy_scalars_give_python_float_bits(t, dof):
    # The continued fraction runs on Python floats whatever the caller
    # passes; numpy scalars are the same IEEE doubles, so no bit changes.
    expected = t_pvalue(float(t), dof)
    for got in (t_pvalue(np.float64(t), dof),
                t_pvalue(np.float64(t), np.int64(dof))):
        assert type(got) is float and got.hex() == expected.hex()
    a, x = dof / 2.0, dof / (dof + t * t)
    expected = regularized_incomplete_beta(a, 0.5, x)
    got = regularized_incomplete_beta(np.float64(a), np.float64(0.5),
                                      np.float64(x))
    assert type(got) is float and got.hex() == expected.hex()


def _mirrored(t: float, dof: int) -> bool:
    """Whether I_x(dof/2, 1/2) is evaluated as 1 - I_(1-x)(1/2, dof/2)."""
    a, x = dof / 2.0, dof / (dof + t * t)
    return x >= (a + 1.0) / (a + 0.5 + 2.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.floats(-3.0, 3.0), st.floats(-1e4, 1e4),
              st.sampled_from([0.0, -0.0, math.inf, -math.inf])),
    st.one_of(st.integers(1, 400), st.integers(1, 10**5))),
    min_size=1, max_size=30))
# Both branches of the continued fraction, in one call and alone.
@example([(0.3, 40), (12.0, 5), (math.inf, 3), (-0.0, 10**5)])
@example([(0.01, 1)])
@example([(-1e4, 1)])
def test_array_pvalues_equal_scalar_bits(cases):
    t = np.array([c[0] for c in cases])
    dof = np.array([c[1] for c in cases])
    got = t_pvalues(t, dof)
    expected = np.array([t_pvalue(a, d) for a, d in cases])
    assert got.tobytes() == expected.tobytes()
    one_sided = np.array([0.5 * p if a > 0 else 1.0 - 0.5 * p
                          for (a, _), p in zip(cases, expected.tolist())])
    assert _one_sided_positive_p(t, got).tobytes() == one_sided.tobytes()


def test_array_pvalue_examples_take_both_branches():
    assert not _mirrored(12.0, 5) and _mirrored(0.3, 40)
    assert not _mirrored(-1e4, 1) and _mirrored(0.01, 1)


def test_array_pvalues_follow_p_value_on_dof_and_nan():
    # dof 0 is a saturated fit's NaN, whatever its t; NaN t raises elsewhere.
    got = t_pvalues(np.array([2.0, math.nan, 2.0]), np.array([0, 0, 7]))
    assert np.isnan(got[:2]).all() and got[2] == t_pvalue(2.0, 7)
    assert t_pvalues(np.array([]), np.array([], dtype=np.int64)).size == 0
    with pytest.raises(OlsError, match="NaN"):
        t_pvalues(np.array([1.0, math.nan]), np.array([5, 5]))
    with pytest.raises(InvalidDof, match=r"dof must be >= 0, got -1"):
        t_pvalues(np.array([1.0]), np.array([-1]))


def test_incomplete_beta_cauchy_closed_form():
    # I_x(1/2, 1/2) = (2/pi) asin(sqrt(x))
    for x in (0.1, 0.25, 0.5, 0.9):
        assert regularized_incomplete_beta(0.5, 0.5, x) == pytest.approx(
            2.0 / math.pi * math.asin(math.sqrt(x)), abs=1e-12)


# --- properties --------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_orthogonality_of_residuals(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 120))
    p = int(rng.integers(1, 10))
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    fit = fit_ols(X, y)
    assert fit.ok
    ynorm = float(np.linalg.norm(y))
    assert np.abs(X.T @ fit.residuals).max() <= 1e-8 * max(ynorm, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_trailing_zero_rows_leave_fit_bit_identical(seed, pad):
    # Sums run over the rows in order, so all-zero rows appended to X and y
    # add exact zeros and change no bit of the solution.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 120))
    p = int(rng.integers(1, 11))
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    base = fit_ols(X, y)
    padded = fit_ols(np.vstack([X, np.zeros((pad, p))]),
                     np.concatenate([y, np.zeros(pad)]))
    assert padded.coefficients.tobytes() == base.coefficients.tobytes()
    assert padded.residuals[:n].tobytes() == base.residuals.tobytes()
    assert not padded.residuals[n:].any()


def _fit_bytes(fit: FitResult) -> tuple:
    """Every field of a fit, arrays and floats as bytes."""
    arrays = tuple(None if a is None else a.tobytes() for a in (
        fit.coefficients, fit.std_errors, fit.t_stats, fit.p_values,
        fit.residuals))
    return (fit.status, fit.column_labels, fit.n_obs, fit.rank, fit.dof,
            fit.missing_columns, np.float64(fit.sigma2).tobytes()) + arrays


def _batch_rows(X, y, lengths, labels) -> list[FitResult]:
    """The fits of one fit_ols_batch call as FitResult rows."""
    batch = fit_ols_batch(X, y, lengths, labels)
    return [batch.row(b) for b in range(len(lengths))]


def _padded_batch(designs, extra_rows):
    """Designs and responses zero-padded to a common row count plus
    ``extra_rows``: (fits, rows, columns) and (fits, rows)."""
    rows = max(len(yb) for _, yb in designs) + extra_rows
    p = designs[0][0].shape[1]
    X = np.zeros((len(designs), rows, p))
    y = np.zeros((len(designs), rows))
    for b, (Xb, yb) in enumerate(designs):
        X[b, :len(yb)] = Xb
        y[b, :len(yb)] = yb
    return X, y


@pytest.mark.parametrize("seed", range(8))
def test_batch_rows_equal_lone_fits(seed):
    # One kernel call on zero-padded designs of different lengths gives each
    # fit the bytes of fit_ols on its own rows; a rank-deficient fit in the
    # batch stops early without touching its neighbours. Scales 1e12 apart
    # need each fit's own rank tolerance.
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 11))
    lengths = [int(rng.integers(p, 60)) for _ in range(6)]
    deficient = int(rng.integers(2, len(lengths)))
    exponents = rng.integers(-3, 4, size=len(lengths))
    exponents[:2] = (-6, 6)
    designs = []
    for b, n in enumerate(lengths):
        X = rng.normal(size=(n, p)) * 10.0 ** exponents[b]
        if b == deficient:
            X[:, -1] = 2.0 * X[:, 0]
        designs.append((X, rng.normal(size=n)))
    X, y = _padded_batch(designs, 3)
    labels = tuple(f"x{j}" for j in range(p))
    batch = _batch_rows(X, y, lengths, labels)
    assert batch[deficient].status is FitStatus.RANK_DEFICIENT
    assert sum(fit.ok for fit in batch) == len(designs) - 1
    for fit, (Xb, yb) in zip(batch, designs):
        assert _fit_bytes(fit) == _fit_bytes(fit_ols(Xb, yb, labels))
    keep = [b for b in range(len(designs)) if b != deficient]
    without = _batch_rows(X[keep], y[keep], [lengths[b] for b in keep],
                          labels)
    assert [_fit_bytes(f) for f in without] == \
           [_fit_bytes(batch[b]) for b in keep]


def test_batch_inference_branches_equal_lone_fits():
    # The inference of a batch is computed for all its full-rank fits at
    # once; each branch must still give a fit the bytes of fit_ols on its
    # own rows: an ordinary fit, a rank-deficient one, a saturated one
    # (n == p: NaN sigma2, errors and t's) and exact fits (zero residuals:
    # t of +0.0 for the -0.0 intercept and an infinity of the slope's sign).
    # The solve alone gives the batch's coefficients, NaN rows included,
    # and dependent columns.
    rng = np.random.default_rng(7)
    x = rng.normal(size=12)
    line = np.column_stack([np.ones(6), np.arange(6.0)])
    designs = [(rng.normal(size=(20, 2)), rng.normal(size=20)),
               (np.column_stack([x, 2.0 * x]), rng.normal(size=12)),
               (rng.normal(size=(2, 2)), rng.normal(size=2)),
               (line, 2.0 * np.arange(6.0)),
               (line, -3.0 * np.arange(6.0))]
    X, y = _padded_batch(designs, 4)
    labels = ("a", "b")
    fits = _batch_rows(X, y, [len(yb) for _, yb in designs], labels)
    ordinary, deficient, saturated, rising, falling = fits
    assert ordinary.ok and np.isfinite(ordinary.t_stats).all()
    assert deficient.status is FitStatus.RANK_DEFICIENT
    assert saturated.ok and saturated.dof == 0 and math.isnan(saturated.sigma2)
    assert np.isnan(saturated.std_errors).all()
    assert np.isnan(saturated.t_stats).all()
    for fit, slope_t in ((rising, math.inf), (falling, -math.inf)):
        assert fit.sigma2 == 0.0 and fit.std_errors.tolist() == [0.0, 0.0]
        assert fit.t_stats.tolist() == [0.0, slope_t]
        assert math.copysign(1.0, fit.coefficients[0]) == -1.0
        assert math.copysign(1.0, fit.t_stats[0]) == 1.0
    for fit, (Xb, yb) in zip(fits, designs):
        assert _fit_bytes(fit) == _fit_bytes(fit_ols(Xb, yb, labels))
    lengths = [len(yb) for _, yb in designs]
    batch = fit_ols_batch(X, y, lengths, labels)
    solved = solve_ols_batch(X, y, lengths, labels)
    assert np.isnan(solved.coefficients[1]).all()
    assert solved.coefficients.tobytes() == batch.coefficients.tobytes()
    assert solved.rank.tolist() == batch.rank.tolist()
    assert solved.pivots.tobytes() == batch.pivots.tobytes()
    assert [batch.row(b).missing_columns for b in range(len(designs))] == \
        [(), ("a",), (), (), ()]


def test_kernel_bits_as_fits_leave_down_to_one():
    # Fit r has rank r, so one fit is frozen at each step, staying in the
    # batch without changing, and the full-rank fit is the only live one at
    # the last step; a batch of one-column designs reduces two columns (x
    # and y) at its only step. Each fit's partial factorisation, pivots,
    # rank and result are the bits of the same fit alone, and every
    # full-rank fit is the Python-float reference's: a reduce whose rows end
    # up innermost (a single column, or a strided view into a scratch
    # buffer) is summed pairwise and rounds differently.
    rng = np.random.default_rng(20261018)
    p = 6
    designs = []
    for r in range(p + 1):
        n = 24 + 7 * r
        X = np.empty((n, p))
        X[:, :r] = rng.normal(size=(n, r)) * 10.0 ** rng.integers(-3, 4, r)
        for j in range(r, p):
            X[:, j] = X[:, j % r] if r else 0.0
        designs.append((X, rng.normal(size=n)))
    designs.reverse()  # the full-rank fit first, the all-zero design last
    columns = [(X[:, :1] * 3.0 ** b, y) for b, (X, y) in enumerate(designs)
               if b < p]
    for batch, ranks in ((designs, range(p, -1, -1)), (columns, [1] * p)):
        X, y = _padded_batch(batch, 5)
        labels = tuple(f"x{j}" for j in range(X.shape[2]))
        lengths = [len(yb) for _, yb in batch]
        R, qty, piv, rank = _householder_qr(X, y)
        assert rank.tolist() == list(ranks)
        fits = _batch_rows(X, y, lengths, labels)
        for b, (Xb, yb) in enumerate(batch):
            R1, qty1, piv1, rank1 = _householder_qr(Xb[None], yb[None])
            assert rank[b] == rank1[0]
            assert piv[b].tobytes() == piv1[0].tobytes()
            assert R[b].tobytes() == R1[0].tobytes(), b
            assert qty[b, :len(yb)].tobytes() == qty1[0].tobytes(), b
            assert _fit_bytes(fits[b]) == _fit_bytes(fit_ols(Xb, yb, labels))
            if rank1[0] == X.shape[2]:
                oracle = householder_fit(Xb.tolist(), yb.tolist())
                assert _oracle_bytes(fits[b].rank, fits[b].coefficients,
                                     fits[b].std_errors, fits[b].residuals) \
                    == _oracle_bytes(*oracle), b


def test_batch_with_fewer_rows_than_columns():
    # Four rows cannot carry six columns: every fit is rank deficient, with
    # the rank and dependent columns it has alone, and every row of its
    # inference is NaN.
    rng = np.random.default_rng(11)
    designs = [(rng.normal(size=(n, 6)), rng.normal(size=n)) for n in (4, 3)]
    designs.append((np.column_stack([designs[0][0][:, :2]] * 3),
                    rng.normal(size=4)))
    X, y = _padded_batch(designs, 0)
    labels = tuple(f"x{j}" for j in range(6))
    batch = fit_ols_batch(X, y, [len(yb) for _, yb in designs], labels)
    for a in (batch.coefficients, batch.std_errors, batch.t_stats,
              batch.sigma2, batch.residuals):
        assert np.isnan(a).all()
    assert batch.rank.tolist() == [4, 3, 2]
    for b, (Xb, yb) in enumerate(designs):
        lone = fit_ols(Xb, yb, labels)
        assert lone.status is FitStatus.RANK_DEFICIENT
        assert batch.rank[b] == lone.rank <= 4
        assert batch.row(b).missing_columns == lone.missing_columns


def test_batch_of_every_rank_class_raises_no_warning():
    # A full-rank, a rank-deficient, an all-zero and a 1e-170-scaled design,
    # whose squares underflow to zero so that its rank is 0 too, share one
    # batch without a numpy warning, and each comes out as it does alone.
    rng = np.random.default_rng(12)
    base = rng.normal(size=(15, 2))
    designs = [(rng.normal(size=(12, 5)), rng.normal(size=12)),
               (base @ rng.normal(size=(2, 5)), rng.normal(size=15)),
               (np.zeros((9, 5)), rng.normal(size=9)),
               (1e-170 * rng.normal(size=(10, 5)), rng.normal(size=10))]
    X, y = _padded_batch(designs, 2)
    labels = tuple(f"x{j}" for j in range(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = _batch_rows(X, y, [len(yb) for _, yb in designs], labels)
        lone = [fit_ols(Xb, yb, labels) for Xb, yb in designs]
    assert [fit.rank for fit in fits] == [5, 2, 0, 0]
    assert fits[0].ok and np.isfinite(fits[0].t_stats).all()
    for fit, alone in zip(fits, lone):
        assert _fit_bytes(fit) == _fit_bytes(alone)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(min_value=0.01, max_value=1e4, allow_nan=False))
def test_scale_equivariance(seed, scale):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    base = fit_ols(X, y)
    scaled = fit_ols(X, scale * y)
    assert np.allclose(scaled.coefficients, scale * base.coefficients,
                       rtol=1e-10, atol=1e-12)
    assert np.allclose(scaled.std_errors, scale * base.std_errors,
                       rtol=1e-10, atol=1e-12)
    assert np.allclose(scaled.t_stats, base.t_stats, rtol=1e-10, atol=1e-10)
    assert np.allclose(scaled.p_values, base.p_values, rtol=1e-10, atol=1e-10)


@pytest.mark.xfail(strict=True, reason="x**a is formed as exp(a*log(x)), "
                   "whose rounding exceeds the change over one ulp of t")
def test_pvalue_monotone_one_ulp_below_30():
    # The two x = dof / (dof + t*t) differ, so the smaller t must give the
    # larger p-value, but it gives the smaller one.
    assert t_pvalue(29.999999999999996, 185) > t_pvalue(30.0, 185)


@settings(max_examples=150, deadline=None)
@given(st.floats(-30, 30, allow_nan=False), st.floats(-30, 30, allow_nan=False),
       st.integers(1, 400))
def test_pvalue_monotone_in_abs_t(t1, t2, dof):
    lo, hi = sorted((abs(t1), abs(t2)))
    p_lo, p_hi = t_pvalue(lo, dof), t_pvalue(hi, dof)
    # Strict monotonicity holds whenever the CDF arguments are
    # distinguishable in double precision.
    x_lo = dof / (dof + lo * lo)
    x_hi = dof / (dof + hi * hi)
    if x_lo == x_hi:
        assert p_lo == p_hi
    elif x_lo - x_hi > 1e-12 * x_lo:
        assert p_lo > p_hi
    else:
        assert p_lo >= p_hi


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qr_matches_oracle_on_conditioned_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 200))
    p = int(rng.integers(1, min(n, 10) + 1))
    cond = float(10 ** rng.uniform(0, 3))
    X = matrix_with_condition(rng, n, p, cond)
    y = rng.normal(size=n)
    fit = fit_ols(X, y)
    oracle = normal_equations_fit(X, y)
    scale = max(1.0, float(np.abs(oracle).max()))
    assert np.abs(fit.coefficients - oracle).max() / scale <= 1e-8


def _oracle_bytes(rank, beta, std_errors, residuals) -> tuple:
    return (rank,) + tuple(np.array(a).tobytes()
                           for a in (beta, std_errors, residuals))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kernel_equals_householder_oracle(seed):
    # Every sum adds its terms in order, so coefficients, standard errors
    # and residuals equal a Python-float Householder reference bit for bit,
    # alone, zero-padded in a batch, and at scales 1e-6 to 1e6; so do the
    # coefficients of the solve alone, and the residuals from predict.
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 11))
    lengths = [int(rng.integers(p + 1, 70)) for _ in range(4)]
    designs = []
    for n in lengths:
        scales = 10.0 ** (rng.integers(-6, 7) + rng.integers(-2, 3, size=p))
        designs.append((rng.normal(size=(n, p)) * scales,
                        rng.normal(size=n) * 10.0 ** rng.integers(-6, 7)))
    X, y = _padded_batch(designs, int(rng.integers(0, 9)))
    labels = tuple(f"x{j}" for j in range(p))
    batch = _batch_rows(X, y, lengths, labels)
    solved = solve_ols_batch(X, y, lengths, labels)
    for b, (fit, (Xb, yb)) in enumerate(zip(batch, designs)):
        oracle = householder_fit(Xb.tolist(), yb.tolist())
        assert oracle[0] == p
        lone = fit_ols(Xb, yb, labels)
        for got in (fit, lone):
            assert _oracle_bytes(got.rank, got.coefficients, got.std_errors,
                                 got.residuals) == _oracle_bytes(*oracle)
        assert _oracle_bytes(solved.rank[b], solved.coefficients[b], [], []) \
            == _oracle_bytes(*oracle[:2], [], [])
        assert (yb - predict(lone, Xb)).tobytes() \
            == np.array(oracle[3]).tobytes()


@pytest.mark.parametrize("n_obs", [10, 0])
def test_batch_rejects_n_obs_outside_its_rows(n_obs):
    # More rows than the batch holds gave an OK fit with dof 8 over 6
    # residuals; none gave dof -2, a negative sigma2 and infinite t's.
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(1, 6, 2)), rng.normal(size=(1, 6))
    with pytest.raises(DimensionMismatch, match="n_obs"):
        fit_ols_batch(X, y, [n_obs], ("a", "b"))
