from __future__ import annotations

import datetime as dt
import gc
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import build_panel, stage_design
from oracles import exact_sqrt, exact_two_step
from discount_uplift.aggregate import summarize
from discount_uplift.domain import EligibilityRule
from discount_uplift.ols import (UPLIFT_LABELS, DimensionMismatch, FitStatus,
                                 PredictOnFailedFit, fit_ols, predict,
                                 t_pvalue)
from discount_uplift.synth import DgpConfig, generate_panel, generate_study
from discount_uplift.two_step import (MIN_DISCOUNT_DAYS_FOR_INFERENCE,
                                      ReportStatus, Sidedness, TwoStepError,
                                      estimate_sku, run_study)


def weekend_discount_panel(n_days=280, sku_id=1):
    """Panel whose Saturdays and Sundays all carry a discounted sale, so the
    discount-free days span only five weekdays."""
    sales, disc = [], []
    start = dt.date(2024, 1, 1)
    for d in range(n_days):
        weekend = (start + dt.timedelta(days=d)).isoweekday() >= 6
        sales.append(3 + d % 3)
        disc.append(1 if weekend else 0)
    return build_panel(sales, disc, sku_id=sku_id)


def _lift(panel, baseline):
    """Sales minus their prediction by ``baseline`` on each discount day."""
    X, sales, _ = stage_design(panel, discounted=True)
    return sales - predict(baseline, X[:, :9])


def _lone_fits(panel):
    """``fit_ols`` of each stage a panel reaches, on the test's own designs:
    stage 1 over its discount-free days and, after a full-rank stage 1,
    stage 2 of the residual lift over its discount days."""
    fits = []
    if panel.n_plain:
        fits.append(fit_ols(*stage_design(panel)))
        if fits[0].ok and panel.n_disc:
            X, _, labels = stage_design(panel, discounted=True)
            fits.append(fit_ols(X, _lift(panel, fits[0]), labels))
    return fits


def test_baseline_missing_weekdays_is_rank_deficient():
    fit = fit_ols(*stage_design(weekend_discount_panel()))
    assert fit.status is FitStatus.RANK_DEFICIENT
    assert set(fit.missing_columns) == {"Sat", "Sun"}


def test_baseline_exact_linear_signal():
    n = 28
    forecast = [1.0 + 0.5 * (d % 6) for d in range(n)]
    sales = [int(2 * f) for f in forecast]
    panel = build_panel(sales, [0] * n, forecast=forecast)
    fit = fit_ols(*stage_design(panel))
    assert fit.ok
    assert fit.coefficients[7] == pytest.approx(2.0, abs=1e-9)
    others = np.delete(fit.coefficients, 7)
    assert np.abs(others).max() <= 1e-9
    assert np.abs(fit.residuals).max() <= 1e-9


def test_baseline_recovers_dgp_coefficients():
    config = DgpConfig(seed=7, n_days=2000)
    panel = generate_panel(config, sku_id=1)
    fit = fit_ols(*stage_design(panel))
    assert fit.ok
    for w in range(7):
        err = abs(fit.coefficients[w] - config.weekday_effects[w])
        assert err <= 5.0 * fit.std_errors[w], (w, err)
    assert abs(fit.coefficients[7]) <= 5.0 * fit.std_errors[7]  # forecast
    assert abs(fit.coefficients[8]) <= 5.0 * fit.std_errors[8]  # stock


def test_baseline_requires_training_days():
    panel = build_panel([2, 2], [1, 1])
    report = estimate_sku(panel)
    assert not report.ok
    assert report.failure_reason == "sku 1: no discount-free days"


def test_no_discount_days_fail_the_sku():
    panel = build_panel([3, 4, 5] * 10, [0] * 30)
    report = estimate_sku(panel)
    assert not report.ok
    assert report.failure_reason == "sku 1: no discount days"


def test_baseline_training_residuals_sum_to_zero():
    panel = generate_panel(DgpConfig(seed=11, n_days=700), sku_id=4)
    fit = fit_ols(*stage_design(panel))
    scale = np.abs(fit.residuals).sum() + 1.0
    assert abs(fit.residuals.sum()) <= 1e-8 * scale


def test_residual_lift_direct_subtraction():
    n = 60
    forecast = [1.0 + 0.5 * (d % 6) for d in range(n)]
    sales = [int(2 * f) for f in forecast]
    disc = [1 if d % 5 == 0 else 0 for d in range(n)]
    panel = build_panel(sales, disc, forecast=forecast)
    fit = fit_ols(*stage_design(panel))
    deltas = _lift(panel, fit)
    # Baseline reproduces sales exactly, so every residual is zero.
    assert np.abs(deltas).max() <= 1e-8

    bumped_sales = [s + (3 if d % 5 == 0 else 0) for d, s in enumerate(sales)]
    panel2 = build_panel(bumped_sales, disc, forecast=forecast)
    fit2 = fit_ols(*stage_design(panel2))  # same plain days, exact baseline
    deltas2 = _lift(panel2, fit2)
    assert np.allclose(deltas2, 3.0, atol=1e-8)


def test_residual_lift_value():
    # sales 3, prediction 1.2 -> residual 1.8
    assert 3.0 - 1.2 == pytest.approx(1.8)
    panel = weekend_discount_panel()
    fit = fit_ols(*stage_design(panel))
    with pytest.raises(PredictOnFailedFit):
        _lift(panel, fit)


def test_residual_lift_rejects_a_stage2_fit():
    panel = generate_panel(DgpConfig(seed=17, n_days=300,
                                     discount_probability=0.3), sku_id=1)
    baseline, stage2 = _lone_fits(panel)
    assert stage2.ok
    with pytest.raises(DimensionMismatch, match="do not match"):
        _lift(panel, stage2)


def test_residual_lift_dgp_expectation():
    # Truncated Poisson(0.874) has mean 1.5 on discount days, so the mean
    # residual lift should be close to 0.8 * 1.5 = 1.2.
    config = DgpConfig(seed=5, n_days=2000, gamma_true=0.8,
                       discount_intensity=0.874, discount_probability=0.3)
    report = estimate_sku(generate_panel(config, sku_id=2))
    assert report.mean_residual == pytest.approx(1.2, abs=0.15)


def test_fit_uplift_exact_signal():
    n = 140
    ds = [1 + (d * 3) % 5 for d in range(n)]
    forecast = [1.0 + 0.25 * (d % 11) for d in range(n)]
    panel = build_panel([10] * n, ds, forecast=forecast,
                        stock=[20 + d % 6 for d in range(n)])
    X, _, labels = stage_design(panel, discounted=True)
    residuals = 0.6 * np.array(ds, dtype=float)
    fit = fit_ols(X, residuals, labels)
    assert fit.ok
    assert fit.coefficients[9] == pytest.approx(0.6, abs=1e-9)
    assert fit.sigma2 <= 1e-18
    assert fit.p_value(9) < 0.05


def test_fit_uplift_needs_enough_discount_days():
    n = MIN_DISCOUNT_DAYS_FOR_INFERENCE - 1
    panel = build_panel([5] * 120, [1] * n + [0] * (120 - n))
    report = estimate_sku(panel)
    assert not report.ok
    assert report.failure_reason == \
        "sku 1: 10 discount days, need at least 11 for stage-2 inference"


def test_fit_uplift_residual_alignment_checked():
    panel = build_panel([5] * 120, [1] * 60 + [0] * 60)
    X, _, labels = stage_design(panel, discounted=True)
    with pytest.raises(DimensionMismatch):
        fit_ols(X, np.zeros(10), labels)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_uplift_rejects_non_finite_residuals(bad):
    # A hand-built panel skips the parser's finiteness check. A non-finite
    # forecast, on a discount day or a discount-free one, fails its SKU
    # before either stage is fitted, with no numpy warning, and no other
    # SKU.
    good = generate_panel(DgpConfig(seed=17, n_days=300,
                                    discount_probability=0.3), sku_id=1)
    t = good.table
    for day in (np.flatnonzero(t.discounted_sales >= 1)[4],
                np.flatnonzero(t.discounted_sales == 0)[4]):
        forecast = t.forecast.copy()
        forecast[day] = bad
        panel = build_panel(t.sales, t.discounted_sales, forecast=forecast,
                            stock=t.stock, sku_id=2)
        report = estimate_sku(panel)
        assert not report.ok and report.gamma10 is None
        assert report.failure_reason == "sku 2: non-finite forecast"
        study = run_study([good, panel])
        assert [r.ok for r in study] == [True, False]
        assert study[1].failure_reason == report.failure_reason


def test_fit_uplift_stage2_residuals_sum_to_zero():
    panel = generate_panel(DgpConfig(seed=13, n_days=900), sku_id=3)
    _, stage2 = _lone_fits(panel)
    assert stage2.ok
    resid = stage2.residuals
    assert abs(resid.sum()) <= 1e-8 * (np.abs(resid).sum() + 1.0)


def test_fit_uplift_type_one_error_calibration():
    hits = 0
    n_seeds = 500
    for seed in range(n_seeds):
        config = DgpConfig(seed=seed, n_days=400, gamma_true=0.0,
                           discount_probability=0.35)
        report = estimate_sku(generate_panel(config, sku_id=1),
                              sidedness=Sidedness.ONE_SIDED_POSITIVE)
        assert report.ok
        hits += report.significant_positive
    # One-sided test at alpha = 0.05: about 5% false positives expected.
    assert 0.02 <= hits / n_seeds <= 0.08


def test_fit_uplift_recovers_planted_effect():
    config = DgpConfig(seed=21, n_days=2000, gamma_true=1.0,
                       discount_probability=0.2578)
    report = estimate_sku(generate_panel(config, sku_id=1))
    assert report.ok
    assert report.significant_positive
    assert 0.9 <= report.gamma10 <= 1.1


def test_one_sided_p_is_half_of_two_sided_for_positive_t():
    panel = generate_panel(DgpConfig(seed=2, n_days=600), sku_id=1)
    two = estimate_sku(panel, sidedness=Sidedness.TWO_SIDED)
    one = estimate_sku(panel, sidedness=Sidedness.ONE_SIDED_POSITIVE)
    assert two.gamma10_t > 0
    assert one.gamma10_p == pytest.approx(two.gamma10_p / 2.0)


def test_sidedness_given_as_its_string_value():
    # Sidedness is a str enum: "one-positive" equals its member, so it must
    # pick the one-sided p-value, not fall through to the two-sided one.
    panel = generate_panel(DgpConfig(seed=2, n_days=600), sku_id=1)
    one = estimate_sku(panel, sidedness=Sidedness.ONE_SIDED_POSITIVE)
    two = estimate_sku(panel, sidedness=Sidedness.TWO_SIDED)
    assert one.gamma10_p < two.gamma10_p
    (study,) = run_study([panel], rule=LOW_RULE, sidedness="one-positive")
    assert study.gamma10_p == one.gamma10_p
    assert estimate_sku(panel, sidedness="one-positive").gamma10_p == \
        one.gamma10_p
    assert estimate_sku(panel, sidedness="two").gamma10_p == two.gamma10_p
    for bad in ("one", "ONE-POSITIVE", None):
        with pytest.raises(TwoStepError, match="sidedness"):
            run_study([panel], sidedness=bad)
        with pytest.raises(TwoStepError, match="sidedness"):
            estimate_sku(panel, sidedness=bad)


@pytest.mark.parametrize("alpha", [2.0, 0.0, 1.0, -0.1, float("nan")])
def test_bad_alpha_raises_before_any_fit(monkeypatch, alpha):
    import discount_uplift.two_step as two_step

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before alpha was checked")

    monkeypatch.setattr(two_step, "solve_ols_batch", no_fit)
    monkeypatch.setattr(two_step, "fit_ols_batch", no_fit)
    monkeypatch.setattr(two_step, "fit_ols", no_fit)
    panel = generate_panel(DgpConfig(seed=2, n_days=600), sku_id=1)
    with pytest.raises(TwoStepError, match="alpha"):
        run_study([panel], alpha=alpha)
    with pytest.raises(TwoStepError, match="alpha"):
        estimate_sku(panel, alpha=alpha)


def test_run_study_records_failures_and_continues():
    good1 = generate_panel(DgpConfig(seed=31, n_days=300,
                                     discount_probability=0.35), sku_id=1)
    good2 = generate_panel(DgpConfig(seed=31, n_days=300,
                                     discount_probability=0.35), sku_id=2)
    broken = weekend_discount_panel(sku_id=3)
    reports = run_study([broken, good2, good1])
    assert [r.sku_id for r in reports] == [1, 2, 3]
    assert [r.status for r in reports] == [ReportStatus.OK, ReportStatus.OK,
                                           ReportStatus.ESTIMATION_FAILED]
    failed = reports[2]
    assert "Sat" in failed.failure_reason and "Sun" in failed.failure_reason
    assert failed.gamma10 is None and failed.mean_residual is None
    assert failed.significant_positive is None


def test_run_study_empty():
    reports = run_study([])
    assert len(reports) == 0 and list(reports) == []


def test_run_study_applies_eligibility():
    small = build_panel([2] * 50, [1] * 20 + [0] * 30, sku_id=9)  # too small
    big = generate_panel(DgpConfig(seed=41, n_days=300,
                                   discount_probability=0.35), sku_id=1)
    reports = run_study([small, big], rule=EligibilityRule(100, 50))
    assert [r.sku_id for r in reports] == [1]


def test_run_study_ok_plus_failed_equals_eligible():
    panels = list(generate_study(DgpConfig(seed=51, n_days=300,
                                           discount_probability=0.35), 6))
    panels.append(weekend_discount_panel(sku_id=99))
    reports = run_study(panels)
    assert len(reports) == 7
    n_ok = sum(r.status is ReportStatus.OK for r in reports)
    n_failed = sum(r.status is ReportStatus.ESTIMATION_FAILED for r in reports)
    assert n_ok + n_failed == 7 and n_failed == 1


def _report_fields(report):
    return (report.sku_id, report.status.value, report.n_plain, report.n_disc,
            report.mean_residual, report.gamma10, report.gamma10_se,
            report.gamma10_t, report.gamma10_p, report.significant_positive)


def test_run_study_deterministic_across_input_orders(monkeypatch):
    import discount_uplift.two_step as two_step

    panels = generate_study(DgpConfig(seed=61, n_days=300,
                                      discount_probability=0.35), 12)
    # Several batches, which the shuffled orders fill differently.
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    rng = np.random.default_rng(61)
    orders = [panels, panels[::-1],
              [panels[i] for i in rng.permutation(len(panels))]]
    fields = [[_report_fields(r) for r in run_study(order)]
              for order in orders]
    assert fields[0] == fields[1] == fields[2]


def test_shifting_sales_leaves_uplift_t_statistic_invariant():
    config = DgpConfig(seed=71, n_days=600, discount_probability=0.35)
    panel = generate_panel(config, sku_id=1)
    shifted = build_panel(
        [o.sales + 500 for o in panel.observations],
        [o.discounted_sales for o in panel.observations],
        forecast=[o.forecast for o in panel.observations],
        stock=[o.stock for o in panel.observations])
    base = estimate_sku(panel)
    moved = estimate_sku(shifted)
    assert base.ok and moved.ok
    # Weekday dummies span the constant, so the shift is absorbed upstream.
    assert moved.gamma10 == pytest.approx(base.gamma10, rel=1e-6, abs=1e-8)
    assert moved.gamma10_t == pytest.approx(base.gamma10_t, rel=1e-6)


def _report_bytes(report):
    """Every field of a report, floats as bytes."""
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in _report_fields(report)) + (
        report.store_id, report.failure_reason)


def _mixed_panels():
    """Panels that take every route through a batch: different numbers of
    discount-free days, a rank-deficient stage 1, too few discount days for
    inference, a saturated stage 1 (9 discount-free days for 9 columns), no
    discount-free days at all, and a 700-day panel among short ones."""
    panels = [generate_panel(DgpConfig(seed=81, n_days=days,
                                       discount_probability=0.35), sku_id=sku)
              for sku, days in ((1, 120), (2, 300), (3, 200), (4, 150),
                                (5, 700), (6, 260))]
    panels.append(weekend_discount_panel(n_days=140, sku_id=7))
    panels.append(build_panel([3 + d % 4 for d in range(60)],
                              [1 if d % 12 == 0 else 0 for d in range(60)],
                              sku_id=8))
    panels.append(build_panel([3] * 24, [0] * 9 + [1 + d % 3 for d in range(15)],
                              sku_id=9))
    panels.append(build_panel([4] * 30, [1 + d % 2 for d in range(30)],
                              sku_id=10))
    return panels


LOW_RULE = EligibilityRule(min_entries=10, min_discount_days=1)


def _batches_of(panels):
    """``two_step._batches`` of ``panels``, by each one's longer stage."""
    import discount_uplift.two_step as two_step

    return two_step._batches(np.array([max(p.n_plain, p.n_disc)
                                       for p in panels]))


def test_batched_study_equals_lone_estimates(monkeypatch):
    import discount_uplift.two_step as two_step

    panels = _mixed_panels()
    lone = {p.sku_id: _report_bytes(estimate_sku(p)) for p in panels}
    reasons = {p.sku_id: estimate_sku(p).failure_reason for p in panels}
    assert "Sat" in reasons[7] and "need at least" in reasons[8]
    assert "no discount-free days" in reasons[10]
    assert estimate_sku(panels[8]).ok
    saturated = fit_ols(*stage_design(panels[8]))
    assert saturated.ok and saturated.dof == 0
    assert np.isnan(saturated.std_errors).all()

    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    ordered = sorted(panels, key=lambda p: p.key)
    assert len(_batches_of(ordered)) >= 4
    for order in (panels, panels[::-1]):
        reports = run_study(order, rule=LOW_RULE)
        assert [r.sku_id for r in reports] == sorted(lone)
        for r in reports:
            assert _report_bytes(r) == lone[r.sku_id], r.sku_id


def test_batches_group_panels_by_length(monkeypatch):
    import discount_uplift.two_step as two_step

    # A long panel every third SKU: batches in key order would pad each
    # short panel to the long one's length.
    panels = [generate_panel(DgpConfig(seed=91, discount_probability=0.35,
                                       n_days=1200 if sku % 3 == 0 else 120),
                             sku_id=sku) for sku in range(1, 13)]
    rows = [max(p.n_plain, p.n_disc) for p in panels]
    monkeypatch.setattr(two_step, "BATCH_FITS", 4)
    monkeypatch.setattr(two_step, "BATCH_ROWS", 2000)
    batches = _batches_of(panels)
    assert sorted(i for b in batches for i in b) == list(range(12))
    assert [len(b) for b in batches] == [4, 4, 2, 2]
    for b in batches:
        assert len({panels[i].n_obs for i in b}) == 1
        assert len(b) * max(rows[i] for i in b) <= 2000
    lone = [_report_bytes(estimate_sku(p)) for p in panels]
    reports = run_study(panels[::-1], rule=LOW_RULE)
    assert [_report_bytes(r) for r in reports] == lone


@pytest.mark.parametrize("n_plain, n_disc, sizes", [
    (110, 70, [100, 100, 2]),    # 180-day panels: BATCH_FITS binds
    (594, 136, [55, 55, 10]),    # two-year panels: 55 x 594 rows < 2**15
    (2900, 750, [11, 11, 1]),    # 3,650-day panels: the row cap binds
    (594, 136, [34]),            # a bucket of `uplift fit` on W500
])
def test_default_batch_sizes(n_plain, n_disc, sizes):
    import discount_uplift.two_step as two_step

    batches = two_step._batches(np.full(sum(sizes), max(n_plain, n_disc)))
    assert [len(b) for b in batches] == sizes
    assert [i for b in batches for i in b] == list(range(sum(sizes)))


def test_kernel_fault_marks_only_its_batch(monkeypatch):
    import discount_uplift.ols as ols
    import discount_uplift.two_step as two_step

    panels = _mixed_panels()
    lone = {p.sku_id: _report_bytes(estimate_sku(p)) for p in panels}
    kernel = ols._householder_qr

    def faulty(A, y):
        # Column 1 is Stock, demeaned within weekdays: near +-5,000 only
        # on the marked panel, whose stock alternates 0 and 9,999.
        if (np.abs(A[:, :, 1]) > 4000.0).any():
            raise RuntimeError("injected fault")
        return kernel(A, y)

    marked = build_panel([3 + d % 5 for d in range(150)],
                         [1 if d % 3 == 0 else 0 for d in range(150)],
                         stock=[9999 * (d % 2) for d in range(150)],
                         sku_id=3)
    panels[2] = marked
    monkeypatch.setattr(ols, "_householder_qr", faulty)
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    ordered = sorted(panels, key=lambda p: p.key)
    batches = [[ordered[i] for i in b] for b in _batches_of(ordered)]
    hit = next(b for b in batches if marked in b)
    assert 1 < len(hit) < len(panels)
    hit_ids = {p.sku_id for p in hit}
    reports = run_study(panels, rule=LOW_RULE)
    for r in reports:
        if r.sku_id in hit_ids:
            assert r.failure_reason == "internal error: injected fault"
            assert r.gamma10 is None
        else:
            assert _report_bytes(r) == lone[r.sku_id]


def _stage2_fault_study(monkeypatch, fault):
    """``run_study`` of ``_mixed_panels()``, SKU 4 replaced by a marked
    panel, in batches of 3, with ``fault(fits, b)`` applied to each stage-2
    fit ``b`` of the marked panel; returns the reports, the lone estimates
    and the SKUs of the marked panel's batch."""
    import discount_uplift.two_step as two_step

    panels = _mixed_panels()
    # 100 discount-free days, as SKU 7 (rank-deficient stage 1) has: the
    # length sort puts them and SKU 1 in one batch.
    panels[3] = build_panel([3 + d % 5 for d in range(150)],
                            [1 + d // 21 % 3 if d % 3 == 0 else 0
                             for d in range(150)],
                            stock=[9999 * (d % 2) for d in range(150)],
                            sku_id=4)
    lone = {p.sku_id: estimate_sku(p) for p in panels}
    fit_ols_batch = two_step.fit_ols_batch

    def stage2(X, y, n_obs, labels, absorbed):
        # Column 1 is Stock, demeaned within weekdays: near +-5,000 only
        # on the marked panel.
        fits = fit_ols_batch(X, y, n_obs, labels, absorbed=absorbed)
        for b in np.flatnonzero((np.abs(X[:, :, 1]) > 4000.0).any(axis=1)):
            fault(fits, b)
        return fits

    monkeypatch.setattr(two_step, "fit_ols_batch", stage2)
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    ordered = sorted(panels, key=lambda p: p.key)
    hit = next({ordered[i].sku_id for i in b} for b in _batches_of(ordered)
               if any(ordered[i].sku_id == 4 for i in b))
    assert hit == {1, 4, 7}
    assert "stage 1 rank deficient" in lone[7].failure_reason
    return run_study(panels[::-1], rule=LOW_RULE), lone, hit


def _assert_only_batch_failed(reports, lone, hit, reason):
    for i, r in enumerate(reports):
        if r.sku_id in hit:
            # The row itself, not only its SkuUpliftReport view.
            assert not reports.ok[i] and not reports.significant[i]
            assert all(np.isnan(getattr(reports, name)[i]) for name in (
                "mean_residual", "gamma10", "gamma10_se", "gamma10_t",
                "gamma10_p"))
            assert r.failure_reason == reason
        else:
            assert _report_bytes(r) == _report_bytes(lone[r.sku_id])
    assert sum(r.ok for r in reports) >= 5


def test_stage2_fault_leaves_its_batch_exactly_failed_rows(monkeypatch):
    # SKU 7's stage-1 reason is written before stage 2 raises; the batch's
    # rows must still end up as rows that failed with the internal error.
    def fault(fits, b):
        raise RuntimeError("injected stage-2 fault")

    reports, lone, hit = _stage2_fault_study(monkeypatch, fault)
    _assert_only_batch_failed(reports, lone, hit,
                              "internal error: injected stage-2 fault")


def test_nan_t_marks_only_its_batch(monkeypatch):
    # The study's p-values come in one pass after the last batch; a NaN t
    # must fail its own batch there and then, not the pass or the study.
    def fault(fits, b):
        fits.t_stats[b, -1] = np.nan

    reports, lone, hit = _stage2_fault_study(monkeypatch, fault)
    assert lone[4].ok
    _assert_only_batch_failed(reports, lone, hit,
                              "internal error: t statistic is NaN")


def test_study_computes_one_p_value_per_reported_sku(monkeypatch):
    import discount_uplift.ols as ols
    import discount_uplift.two_step as two_step

    # Replaced under the module attribute, where the study looks it up.
    calls = []
    t_pvalues = ols.t_pvalues
    monkeypatch.setattr(ols, "t_pvalues", lambda t, dof: calls.append(
        (t.copy(), dof.copy())) or t_pvalues(t, dof))
    monkeypatch.setattr(ols, "t_pvalue", None)  # no scalar call
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    reports = run_study(_mixed_panels(), rule=LOW_RULE)
    monkeypatch.undo()
    assert len(calls) == 1
    t, dof = calls[0]
    ok = reports.ok
    assert ok.sum() >= 5
    assert t.tobytes() == reports.gamma10_t[ok].tobytes()
    assert dof.tolist() == (reports.n_disc[ok] - len(UPLIFT_LABELS)).tolist()
    assert reports.gamma10_p[ok].tobytes() == np.array(
        [t_pvalue(t_, d) for t_, d in zip(t.tolist(), dof.tolist())]).tobytes()


def test_lazy_p_values_are_t_pvalue_of_each_t():
    for panel in _mixed_panels():
        for fit in _lone_fits(panel):
            if not fit.ok:
                assert fit.p_values is None
            elif fit.dof == 0:
                assert np.isnan(fit.p_values).all()
            else:
                expected = [t_pvalue(t, fit.dof) for t in fit.t_stats]
                assert fit.p_values.tobytes() == np.array(expected).tobytes()
                assert fit.p_values is fit.p_values
                assert [fit.p_value(j) for j in range(len(expected))] \
                    == expected


def _weekday_discount_panel(sku_id):
    """Discounts on alternate weekdays only: stage 1 sees every weekday,
    stage 2 neither Saturday nor Sunday."""
    start = dt.date(2024, 1, 1)
    disc = [1 + d % 3 if d % 2 == 0
            and (start + dt.timedelta(days=d)).isoweekday() <= 5 else 0
            for d in range(140)]
    return build_panel([4 + d % 3 for d in range(140)], disc, sku_id=sku_id)


def test_study_rows_equal_lone_estimates_in_every_failure_class(monkeypatch):
    import discount_uplift.ols as ols
    import discount_uplift.two_step as two_step

    # Panels of mixed lengths, each failure class among them; the marked
    # panel's batch fails as a whole with an internal error.
    panels = _mixed_panels() + [
        _weekday_discount_panel(sku_id=11),
        build_panel([3 + d % 5 for d in range(400)],
                    [1 if d % 3 == 0 else 0 for d in range(400)],
                    stock=[9999 * (d % 2) for d in range(400)],
                    sku_id=12)]
    lone = {p.sku_id: estimate_sku(p) for p in panels}
    kernel = ols._householder_qr

    def faulty(A, y):
        # Column 1 is Stock, demeaned within weekdays: near +-5,000 only
        # on the marked panel, whose stock alternates 0 and 9,999.
        if (np.abs(A[:, :, 1]) > 4000.0).any():
            raise RuntimeError("injected fault")
        return kernel(A, y)

    monkeypatch.setattr(ols, "_householder_qr", faulty)
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    ordered = sorted(panels, key=lambda p: p.key)
    hit = {ordered[i].sku_id for b in _batches_of(ordered)
           if any(ordered[i].sku_id == 12 for i in b) for i in b}
    reports = run_study(panels[::-1], rule=LOW_RULE)
    assert isinstance(reports, two_step.StudyReports)
    rows = list(reports)
    assert [_report_bytes(reports[i]) for i in range(len(reports))] == \
        [_report_bytes(r) for r in rows]
    assert [r.sku_id for r in rows] == sorted(lone)
    reasons = {}
    for r in rows:
        if r.sku_id in hit:
            assert r.failure_reason == "internal error: injected fault"
            assert r.gamma10 is None and r.significant_positive is None
        else:
            assert _report_bytes(r) == _report_bytes(lone[r.sku_id])
            reasons[r.sku_id] = r.failure_reason
    for sku, words in ((10, "no discount-free days"),
                       (7, "stage 1 rank deficient; dependent columns: Sat, "
                           "Sun"),
                       (8, "need at least"),
                       (11, "stage 2 rank deficient; dependent columns: Sat, "
                            "Sun")):
        assert words in reasons[sku], sku
    assert 1 < len(hit) < len(panels) and sum(r.ok for r in rows) >= 5
    assert summarize(reports) == summarize(rows)


def test_study_holds_under_200_bytes_per_sku():
    # A report is a row of columns: the study keeps neither stage's fit nor
    # a copy of its residuals (3.5 KB per SKU when each report did).
    panels = generate_study(DgpConfig(seed=201, n_days=180,
                                      discount_probability=0.4), 200,
                            gammas=(0.0, 0.3, 0.6, 1.0))
    run_study(panels[:20])  # lazily made state of numpy and the interpreter
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = run_study(panels)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reports) == 200
    assert held / len(reports) < 200, held


@pytest.mark.parametrize("seed, n_days, probability", [
    (111, 120, 0.25), (112, 120, 0.5), (113, 400, 0.25), (114, 400, 0.5)])
def test_generated_panels_match_exact_oracle(seed, n_days, probability):
    # As the golden reports are checked: each estimate within 8 ulps of the
    # paper's literal two steps in exact rational arithmetic.
    panel = generate_panel(DgpConfig(seed=seed, n_days=n_days,
                                     discount_probability=probability,
                                     gamma_true=0.6), sku_id=1)
    report = estimate_sku(panel)
    assert report.ok
    t = panel.table
    mean_residual, gamma10, variance = exact_two_step(zip(
        t.weekday.tolist(), t.forecast.tolist(), t.stock.tolist(),
        t.sales.tolist(), t.discounted_sales.tolist()))
    bound = Fraction(8, 2**52)
    for field, exact in (("mean_residual", mean_residual),
                         ("gamma10", gamma10),
                         ("gamma10_se", exact_sqrt(variance))):
        error = abs(Fraction(getattr(report, field)) - exact)
        assert error <= bound * abs(exact), field


def _weekday_of(day):
    return (dt.date(2024, 1, 1) + dt.timedelta(days=day)).isoweekday()


def _rank_panel(stage, **fields):
    """A 140-day panel discounted every third day, so that both stages see
    every weekday. Each function of (day, weekday) given for ``forecast``,
    ``stock`` or ``discounted`` sets that field on the days of ``stage``
    (1: discount-free, 2: discount days)."""
    disc = [d % 3 == 0 for d in range(140)]
    values = {"forecast": [1.0 + 0.1 * (d % 9) for d in range(140)],
              "stock": [7 + d % 4 for d in range(140)],
              "discounted": [1 + d % 2 if x else 0
                             for d, x in enumerate(disc)]}
    for name, value in fields.items():
        values[name] = [value(d, _weekday_of(d)) if x == (stage == 2) else v
                        for d, (x, v) in enumerate(zip(disc, values[name]))]
    return build_panel([4 + d % 5 for d in range(140)], values["discounted"],
                       forecast=values["forecast"], stock=values["stock"])


def _by_weekday(d, w):
    return 1.0 + 0.1 * w


def _stock_by_weekday(d, w):
    return 10 + w


def _hair(d, w):
    # Demeaned within weekdays, 5e-13 of its raw norm and far below
    # demeaned stock, so the kernel also leaves it unpivoted.
    return 100.0 + 0.5 * w + (1e-10 if d % 2 else 0.0)


def _high_stock(d, w):
    # Demeaned, 5e-13 of its raw norm, but as large as demeaned forecast:
    # only the norm rule finds it dependent.
    return 10**12 + d % 2


def _mid_stock(d, w):
    return 10**8 + d % 2  # demeaned, 5e-9 of its raw norm: independent


def _weekend(d, w):
    return int(w >= 6)  # weekends discounted, other days not


@pytest.mark.parametrize("stage, fields, dependent", [
    (1, dict(forecast=_by_weekday, stock=_stock_by_weekday),
     "Forecast, Stock"),
    (1, dict(forecast=_by_weekday), "Forecast"),
    (1, dict(stock=_stock_by_weekday), "Stock"),
    (1, dict(forecast=_hair), "Forecast"),
    (1, dict(stock=_high_stock), "Stock"),
    (1, dict(stock=_mid_stock), None),
    (2, dict(forecast=_by_weekday, stock=_stock_by_weekday),
     "Forecast, Stock"),
    (2, dict(forecast=_by_weekday), "Forecast"),
    (2, dict(stock=_stock_by_weekday), "Stock"),
    (2, dict(discounted=lambda d, w: 1 + w % 3), "DS"),
    (2, dict(forecast=_hair), "Forecast"),
    (2, dict(stock=_high_stock), "Stock"),
    (2, dict(stock=_mid_stock), None),
    # Weekend days moved out of the stage: its weekdays with no row come
    # first, in label order.
    (1, dict(discounted=_weekend), "Sat, Sun"),
    (1, dict(discounted=_weekend, forecast=_by_weekday), "Sat, Sun, Forecast"),
    (2, dict(discounted=lambda d, w: 0 if w >= 6 else 1 + d % 2),
     "Sat, Sun"),
], ids=["1-forecast-stock", "1-forecast", "1-stock", "1-hair",
        "1-high-stock", "1-mid-stock", "2-forecast-stock", "2-forecast",
        "2-stock", "2-ds", "2-hair", "2-high-stock", "2-mid-stock",
        "1-weekend", "1-weekend-forecast", "2-weekend"])
def test_rank_rule_names_dependent_columns(stage, fields, dependent):
    # A weekday with no row in a stage is dependent; so is a covariate
    # whose demeaned norm is at most RANK_RTOL times its raw norm, or that
    # the kernel leaves unpivoted.
    panel = _rank_panel(stage, **fields)
    report = estimate_sku(panel)
    if dependent is None:
        assert report.ok
    else:
        assert report.failure_reason == (
            f"stage {stage} rank deficient; dependent columns: {dependent}")
    (row,) = run_study([panel], rule=LOW_RULE)
    assert _report_bytes(row) == _report_bytes(report)
