from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import build_panel
from discount_uplift.domain import EligibilityRule
from discount_uplift.ols import (DimensionMismatch, FitStatus,
                                 PredictOnFailedFit, t_pvalue)
from discount_uplift.synth import DgpConfig, generate_panel, generate_study
from discount_uplift.two_step import (MIN_DISCOUNT_DAYS_FOR_INFERENCE,
                                      EmptyTrainingSet, ReportStatus,
                                      Sidedness, TooFewDiscountDays,
                                      TwoStepError, estimate_sku, fit_baseline,
                                      fit_uplift, residual_lift, run_study)


def weekend_discount_panel(n_days=280, sku_id=1):
    """Panel whose Saturdays and Sundays all carry a discounted sale, so the
    discount-free days span only five weekdays."""
    sales, disc = [], []
    import datetime as dt
    start = dt.date(2024, 1, 1)
    for d in range(n_days):
        weekend = (start + dt.timedelta(days=d)).isoweekday() >= 6
        sales.append(3 + d % 3)
        disc.append(1 if weekend else 0)
    return build_panel(sales, disc, sku_id=sku_id)


def test_baseline_missing_weekdays_is_rank_deficient():
    fit = fit_baseline(weekend_discount_panel())
    assert fit.status is FitStatus.RANK_DEFICIENT
    assert set(fit.missing_columns) == {"Sat", "Sun"}


def test_baseline_exact_linear_signal():
    n = 28
    forecast = [1.0 + 0.5 * (d % 6) for d in range(n)]
    sales = [int(2 * f) for f in forecast]
    panel = build_panel(sales, [0] * n, forecast=forecast)
    fit = fit_baseline(panel)
    assert fit.ok
    assert fit.coefficients[7] == pytest.approx(2.0, abs=1e-9)
    others = np.delete(fit.coefficients, 7)
    assert np.abs(others).max() <= 1e-9
    assert np.abs(fit.residuals).max() <= 1e-9


def test_baseline_recovers_dgp_coefficients():
    config = DgpConfig(seed=7, n_days=2000)
    panel = generate_panel(config, sku_id=1)
    fit = fit_baseline(panel)
    assert fit.ok
    for w in range(7):
        err = abs(fit.coefficients[w] - config.weekday_effects[w])
        assert err <= 5.0 * fit.std_errors[w], (w, err)
    assert abs(fit.coefficients[7]) <= 5.0 * fit.std_errors[7]  # forecast
    assert abs(fit.coefficients[8]) <= 5.0 * fit.std_errors[8]  # stock


def test_baseline_requires_training_days():
    panel = build_panel([2, 2], [1, 1])
    with pytest.raises(EmptyTrainingSet):
        fit_baseline(panel)


def test_baseline_training_residuals_sum_to_zero():
    panel = generate_panel(DgpConfig(seed=11, n_days=700), sku_id=4)
    fit = fit_baseline(panel)
    scale = np.abs(fit.residuals).sum() + 1.0
    assert abs(fit.residuals.sum()) <= 1e-8 * scale


def test_residual_lift_direct_subtraction():
    n = 60
    forecast = [1.0 + 0.5 * (d % 6) for d in range(n)]
    sales = [int(2 * f) for f in forecast]
    disc = [1 if d % 5 == 0 else 0 for d in range(n)]
    panel = build_panel(sales, disc, forecast=forecast)
    fit = fit_baseline(panel)
    deltas = residual_lift(panel, fit)
    # Baseline reproduces sales exactly, so every residual is zero.
    assert np.abs(deltas).max() <= 1e-8

    bumped_sales = [s + (3 if d % 5 == 0 else 0) for d, s in enumerate(sales)]
    panel2 = build_panel(bumped_sales, disc, forecast=forecast)
    fit2 = fit_baseline(panel2)  # same plain days, same exact baseline
    deltas2 = residual_lift(panel2, fit2)
    assert np.allclose(deltas2, 3.0, atol=1e-8)


def test_residual_lift_value():
    # sales 3, prediction 1.2 -> residual 1.8
    assert 3.0 - 1.2 == pytest.approx(1.8)
    panel = weekend_discount_panel()
    fit = fit_baseline(panel)
    with pytest.raises(PredictOnFailedFit):
        residual_lift(panel, fit)


def test_residual_lift_rejects_a_stage2_fit():
    panel = generate_panel(DgpConfig(seed=17, n_days=300,
                                     discount_probability=0.3), sku_id=1)
    report = estimate_sku(panel)
    assert report.ok
    with pytest.raises(DimensionMismatch, match="do not match"):
        residual_lift(panel, report.stage2)


def test_residual_lift_dgp_expectation():
    # Truncated Poisson(0.874) has mean 1.5 on discount days, so the mean
    # residual lift should be close to 0.8 * 1.5 = 1.2.
    config = DgpConfig(seed=5, n_days=2000, gamma_true=0.8,
                       discount_intensity=0.874, discount_probability=0.3)
    panel = generate_panel(config, sku_id=2)
    deltas = residual_lift(panel, fit_baseline(panel))
    assert np.mean(deltas) == pytest.approx(1.2, abs=0.15)


def test_fit_uplift_exact_signal():
    import datetime as dt
    n = 140
    start = dt.date(2024, 1, 1)
    ds = [1 + (d * 3) % 5 for d in range(n)]
    forecast = [1.0 + 0.25 * (d % 11) for d in range(n)]
    panel = build_panel([10] * n, ds, forecast=forecast,
                        stock=[20 + d % 6 for d in range(n)])
    residuals = 0.6 * np.array(ds, dtype=float)
    report = fit_uplift(panel, residuals)
    assert report.ok
    assert report.gamma10 == pytest.approx(0.6, abs=1e-9)
    assert report.stage2.sigma2 <= 1e-18
    assert report.significant_positive
    assert report.mean_residual == pytest.approx(residuals.mean())


def test_fit_uplift_needs_enough_discount_days():
    n = MIN_DISCOUNT_DAYS_FOR_INFERENCE - 1
    panel = build_panel([5] * 120, [1] * n + [0] * (120 - n))
    with pytest.raises(TooFewDiscountDays):
        fit_uplift(panel, np.zeros(n))


def test_fit_uplift_residual_alignment_checked():
    panel = build_panel([5] * 120, [1] * 60 + [0] * 60)
    with pytest.raises(TwoStepError):
        fit_uplift(panel, np.zeros(10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_uplift_rejects_non_finite_residuals(bad):
    panel = generate_panel(DgpConfig(seed=17, n_days=300,
                                     discount_probability=0.3), sku_id=1)
    residuals = residual_lift(panel, fit_baseline(panel))
    residuals[4] = bad
    with pytest.raises(TwoStepError, match="non-finite"):
        fit_uplift(panel, residuals)


def test_fit_uplift_stage2_residuals_sum_to_zero():
    panel = generate_panel(DgpConfig(seed=13, n_days=900), sku_id=3)
    report = estimate_sku(panel)
    assert report.ok
    resid = report.stage2.residuals
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
    lift = residual_lift(panel, fit_baseline(panel))
    assert fit_uplift(panel, lift, sidedness="one-positive").gamma10_p == \
        one.gamma10_p
    for bad in ("one", "ONE-POSITIVE", None):
        with pytest.raises(TwoStepError, match="sidedness"):
            run_study([panel], sidedness=bad)
        with pytest.raises(TwoStepError, match="sidedness"):
            estimate_sku(panel, sidedness=bad)
        with pytest.raises(TwoStepError, match="sidedness"):
            fit_uplift(panel, lift, sidedness=bad)


@pytest.mark.parametrize("alpha", [2.0, 0.0, 1.0, -0.1, float("nan")])
def test_bad_alpha_raises_before_any_fit(monkeypatch, alpha):
    import discount_uplift.two_step as two_step

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before alpha was checked")

    monkeypatch.setattr(two_step, "fit_ols_batch", no_fit)
    monkeypatch.setattr(two_step, "fit_ols", no_fit)
    panel = generate_panel(DgpConfig(seed=2, n_days=600), sku_id=1)
    with pytest.raises(TwoStepError, match="alpha"):
        run_study([panel], alpha=alpha)
    with pytest.raises(TwoStepError, match="alpha"):
        estimate_sku(panel, alpha=alpha)
    with pytest.raises(TwoStepError, match="alpha"):
        fit_uplift(panel, np.zeros(panel.n_disc), alpha=alpha)


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
    assert run_study([]) == ()


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


def test_run_study_deterministic_across_thread_counts(monkeypatch):
    import discount_uplift.two_step as two_step

    panels = generate_study(DgpConfig(seed=61, n_days=300,
                                      discount_probability=0.35), 12)
    # Several batches, so that the threaded runs go through the pool.
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    serial = run_study(panels, threads=1)
    threaded = run_study(panels, threads=4)
    shuffled = run_study(panels[::-1], threads=3)
    assert [_report_fields(r) for r in serial] == \
           [_report_fields(r) for r in threaded] == \
           [_report_fields(r) for r in shuffled]


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


def _fit_arrays(fit):
    if fit is None:
        return None
    return (fit.status, fit.missing_columns,
            np.float64(fit.sigma2).tobytes()) + tuple(
        None if a is None else a.tobytes()
        for a in (fit.coefficients, fit.std_errors, fit.p_values,
                  fit.residuals))


def _report_bytes(report):
    return (_report_fields(report), report.store_id, report.failure_reason,
            _fit_arrays(report.stage1), _fit_arrays(report.stage2))


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


def test_public_chain_equals_estimate_sku():
    # The error each public step raises where estimate_sku reports failure.
    errors = {7: PredictOnFailedFit, 8: TooFewDiscountDays,
              10: EmptyTrainingSet}

    def chain(panel):
        baseline = fit_baseline(panel)
        return fit_uplift(panel, residual_lift(panel, baseline),
                          stage1=baseline)

    for panel in _mixed_panels():
        lone = estimate_sku(panel)
        if panel.sku_id in errors:
            assert not lone.ok
            with pytest.raises(errors[panel.sku_id]):
                chain(panel)
        else:
            assert _report_bytes(chain(panel)) == _report_bytes(lone), \
                panel.sku_id


def test_batched_study_equals_lone_estimates(monkeypatch):
    import discount_uplift.two_step as two_step

    panels = _mixed_panels()
    lone = {p.sku_id: _report_bytes(estimate_sku(p)) for p in panels}
    reasons = {p.sku_id: estimate_sku(p).failure_reason for p in panels}
    assert "Sat" in reasons[7] and "need at least" in reasons[8]
    assert "no discount-free days" in reasons[10]
    saturated = estimate_sku(panels[8])
    assert saturated.ok and saturated.stage1.dof == 0
    assert np.isnan(saturated.stage1.std_errors).all()

    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    ordered = sorted(panels, key=lambda p: p.key)
    assert len(list(two_step._batches(ordered))) >= 4
    for threads in (1, 2, 3):
        for order in (panels, panels[::-1]):
            reports = run_study(order, rule=LOW_RULE, threads=threads)
            assert [r.sku_id for r in reports] == sorted(lone)
            for r in reports:
                assert _report_bytes(r) == lone[r.sku_id], (threads, r.sku_id)


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
    batches = two_step._batches(panels)
    assert sorted(i for b in batches for i in b) == list(range(12))
    assert [len(b) for b in batches] == [4, 4, 2, 2]
    for b in batches:
        assert len({panels[i].n_obs for i in b}) == 1
        assert len(b) * max(rows[i] for i in b) <= 2000
    lone = [_report_bytes(estimate_sku(p)) for p in panels]
    for threads in (1, 2):
        reports = run_study(panels[::-1], rule=LOW_RULE, threads=threads)
        assert [_report_bytes(r) for r in reports] == lone


@pytest.mark.parametrize("n_plain, n_disc, sizes", [
    (110, 70, [40, 40, 2]),      # 180-day panels: BATCH_FITS binds
    (594, 136, [40, 40, 10]),    # two-year panels: 40 x 594 rows < 2**15
    (2900, 750, [11, 11, 1]),    # 3,650-day panels: the row cap binds
])
def test_default_batch_sizes(n_plain, n_disc, sizes):
    import discount_uplift.two_step as two_step

    stubs = [SimpleNamespace(n_plain=n_plain, n_disc=n_disc)
             for _ in range(sum(sizes))]
    batches = two_step._batches(stubs)
    assert [len(b) for b in batches] == sizes
    assert [i for b in batches for i in b] == list(range(len(stubs)))


def test_kernel_fault_marks_only_its_batch(monkeypatch):
    import discount_uplift.ols as ols
    import discount_uplift.two_step as two_step

    panels = _mixed_panels()
    lone = {p.sku_id: _report_bytes(estimate_sku(p)) for p in panels}
    kernel = ols._householder_qr

    def faulty(A, y):
        if (A[:, :, 8] == 9999.0).any():
            raise RuntimeError("injected fault")
        return kernel(A, y)

    marked = build_panel([3 + d % 5 for d in range(150)],
                         [1 if d % 3 == 0 else 0 for d in range(150)],
                         stock=[9999] * 150, sku_id=3)
    panels[2] = marked
    monkeypatch.setattr(ols, "_householder_qr", faulty)
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    ordered = sorted(panels, key=lambda p: p.key)
    batches = [[ordered[i] for i in b] for b in two_step._batches(ordered)]
    hit = next(b for b in batches if marked in b)
    assert 1 < len(hit) < len(panels)
    hit_ids = {p.sku_id for p in hit}
    for threads in (1, 2):
        reports = run_study(panels, rule=LOW_RULE, threads=threads)
        for r in reports:
            if r.sku_id in hit_ids:
                assert r.failure_reason == "internal error: injected fault"
                assert r.stage1 is None and r.gamma10 is None
            else:
                assert _report_bytes(r) == lone[r.sku_id]


def test_study_computes_one_p_value_per_reported_sku(monkeypatch):
    import discount_uplift.ols as ols

    # Replaced under the module attribute, where the p-values look it up.
    calls = []
    monkeypatch.setattr(ols, "t_pvalue",
                        lambda t, dof: calls.append(dof) or t_pvalue(t, dof))
    reports = run_study(_mixed_panels(), rule=LOW_RULE)
    ok = [r for r in reports if r.ok]
    assert len(ok) >= 5
    assert sorted(calls) == sorted(r.stage2.dof for r in ok)


def test_lazy_p_values_are_t_pvalue_of_each_t():
    for panel in _mixed_panels():
        report = estimate_sku(panel)
        for fit in (report.stage1, report.stage2):
            if fit is None:
                continue
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
