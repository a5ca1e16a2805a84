from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discount_uplift import domain
from discount_uplift.cli import main
from discount_uplift.domain import observation_violations, parse_csv, serialize_csv
from discount_uplift.ols import fit_ols
from discount_uplift.synth import (CycleConfig, DgpConfig, InvalidConfig,
                                   cycle_summary, generate_panel,
                                   generate_study, simulate_cycle)
from discount_uplift.two_step import estimate_sku

from oracles import generate_panel_rows


def test_no_discounts_when_probability_zero():
    panel = generate_panel(DgpConfig(seed=1, n_days=200, gamma_true=0.0,
                                     discount_probability=0.0), sku_id=1)
    assert np.flatnonzero(panel.table.discounted_sales >= 1).tolist() == []
    assert panel.n_disc == 0 and panel.n_plain == 200


def test_deterministic_arithmetic_with_noise_off():
    config = DgpConfig(seed=3, n_days=400,
                       weekday_effects=(3.0,) * 7,
                       demand_noise="gaussian", demand_noise_sd=0.0,
                       forecast_noise_sd=0.0, gamma_true=1.0,
                       discount_intensity=2.0, discount_probability=0.5,
                       order_up_to=14)
    panel = generate_panel(config, sku_id=1)
    hits = 0
    for obs in panel.observations:
        assert obs.forecast == 3.0
        if obs.discounted_sales == 2 and obs.stock >= 5:
            # regular demand is exactly 3; two discounted sales add 2
            assert obs.sales == 5
            hits += 1
    assert hits > 10


def test_generation_is_reproducible_and_sku_specific():
    config = DgpConfig(seed=9, n_days=300)
    a = generate_panel(config, sku_id=5)
    b = generate_panel(config, sku_id=5)
    c = generate_panel(config, sku_id=6)
    assert a.observations == b.observations
    assert a.observations != c.observations


def test_generated_data_satisfies_domain_invariants():
    for sku in (1, 2, 3):
        panel = generate_panel(DgpConfig(seed=17, n_days=400), sku)
        for obs in panel.observations:
            assert observation_violations(obs) == []
            assert obs.weekday == obs.date.isoweekday()


def test_distinct_seed_and_sku_pairs_give_distinct_panels():
    # Under a key of seed XOR sku_id, (0, 3), (1, 2), (2, 1) and (3, 0)
    # would be one stream.
    panels = {(seed, sku): generate_panel(DgpConfig(seed=seed, n_days=60),
                                          sku).table
              for seed in range(4) for sku in range(4)}
    columns = {(t.forecast.tobytes(), t.sales.tobytes())
               for t in panels.values()}
    assert len(columns) == len(panels)


def test_generated_csv_round_trips_through_ingestion(tmp_path, monkeypatch):
    panels = generate_study(DgpConfig(seed=23, n_days=120), 3)
    observations = [o for p in panels for o in p.observations]
    result = parse_csv(serialize_csv(observations))
    assert not result.errors and not result.warnings
    assert list(result.observations) == observations

    # simulate writes each forecast with at most 4 places, and parsing
    # reads every one by _floats's one division: none reaches float.
    out = tmp_path / "synth.csv"
    assert main(["simulate", "--skus", "3", "--days", "120",
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    cells = [line.split(b",")[5] for line in data.splitlines()[1:]]
    assert len(cells) == 360
    assert max(len(cell.partition(b".")[2]) for cell in cells) <= 4
    sent = []

    def spy(data, start, stop):
        sent.append(len(start))
        return float_cells(data, start, stop)

    float_cells = domain._float_cells
    monkeypatch.setattr(domain, "_float_cells", spy)
    forecast = parse_csv(data).table.forecast
    assert sent == []
    assert forecast.tolist() == [float(cell) for cell in cells]
    # A cell whose digits pass 2**53 does reach float: the spy is on the
    # byte path.
    parse_csv(data.replace(cells[0], b"9.758725443559687", 1))
    assert sent == [1]


def test_pipeline_recovers_planted_uplift_roughly():
    panel = generate_panel(DgpConfig(seed=7, n_days=400,
                                     discount_probability=0.35), sku_id=1)
    report = estimate_sku(panel)
    assert report.ok
    assert report.gamma10 == pytest.approx(0.6, abs=0.2)


def test_negative_uplift_is_allowed():
    panel = generate_panel(DgpConfig(seed=2, n_days=300, gamma_true=-0.2),
                           sku_id=1)
    for obs in panel.observations:
        assert observation_violations(obs) == []


def test_generate_study_cycles_gammas():
    config = DgpConfig(seed=4, n_days=150)
    panels = generate_study(config, 4, gammas=(0.0, 1.0))
    assert [p.sku_id for p in panels] == [1, 2, 3, 4]
    # same seed, same sku -> identical panel iff same gamma
    again = generate_study(config, 4, gammas=(0.0, 1.0))
    for p, q in zip(panels, again):
        assert p.observations == q.observations


def test_generate_study_rejects_empty_gammas():
    with pytest.raises(InvalidConfig, match="gammas"):
        generate_study(DgpConfig(n_days=10), 3, gammas=[])
    with pytest.raises(InvalidConfig, match="n_skus"):
        generate_study(DgpConfig(), -1)


@pytest.mark.parametrize("bad", [
    {"n_days": -1},
    {"weekday_effects": (1.0, 2.0)},
    {"weekday_effects": (-1.0,) * 7},
    {"forecast_noise_sd": -0.1},
    {"discount_probability": 1.5},
    {"discount_intensity": -2.0},
    {"demand_noise": "uniform"},
    {"demand_noise_sd": -1.0},
    {"order_up_to": -5},
    {"weekday_effects": (math.nan,) + (1.0,) * 6},
    {"weekday_effects": (1.0,) * 6 + (math.inf,)},
    {"forecast_noise_sd": math.nan},
    {"forecast_noise_sd": math.inf},
    {"discount_probability": math.nan},
    {"discount_intensity": math.nan},
    {"discount_intensity": math.inf},
    {"gamma_true": math.nan},
    {"gamma_true": -math.inf},
    {"demand_noise_sd": math.nan},
    {"demand_noise_sd": math.inf},
    {"weekday_effects": (1e19,) + (1.0,) * 6},
    {"weekday_effects": (1.0,) * 6 + (2.0**53 + 2,)},
    {"demand_noise_sd": 1e300},
    {"discount_intensity": 1e19},
])
def test_dgp_config_validation(bad):
    with pytest.raises(InvalidConfig):
        dataclasses.replace(DgpConfig(), **bad).validate()


def test_empty_horizon():
    panel = generate_panel(DgpConfig(seed=1, n_days=0), sku_id=1)
    assert panel.n_obs == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**48), st.integers(0, 120),
       st.floats(0.0, 1.0), st.floats(0.0, 4.0),
       st.floats(-1.0, 2.0), st.sampled_from(["gaussian", "poisson"]))
def test_dgp_invariants_hold_for_random_configs(seed, n_days, prob, intensity,
                                                gamma, noise):
    config = DgpConfig(seed=seed, n_days=n_days, discount_probability=prob,
                       discount_intensity=intensity, gamma_true=gamma,
                       demand_noise=noise)
    panel = generate_panel(config, sku_id=seed % 13)
    assert panel.n_obs == n_days
    for obs in panel.observations:
        assert 0 <= obs.discounted_sales <= obs.sales <= obs.stock


def _assert_table_equals_rows(table, rows):
    expected = list(zip(*rows)) if rows else [()] * 8
    for name, column in zip(("store_id", "sku_id", "date", "weekday",
                             "stock", "forecast", "sales",
                             "discounted_sales"), expected):
        actual = getattr(table, name)
        if name == "forecast":
            assert actual.tobytes() == np.array(column, np.float64).tobytes()
        elif name == "date":
            assert actual.tolist() == list(column)
        else:
            assert actual.dtype == np.int64
            assert actual.tolist() == list(column), name


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 50), st.integers(0, 120),
       st.integers(0, 20),
       st.one_of(st.floats(-3.0, 3.0),
                 st.sampled_from([1e20, -1e20, 1e300, -1e300])),
       st.sampled_from(["gaussian", "poisson"]), st.floats(0.0, 1.0),
       st.floats(0.0, 12.0), st.sampled_from([1.0, 0.2, 0.0]))
def test_panel_equals_day_by_day_oracle(seed, sku_id, n_days, order_up_to,
                                        gamma, noise, prob, intensity,
                                        demand_scale):
    config = DgpConfig(seed=seed, n_days=n_days, order_up_to=order_up_to,
                       gamma_true=gamma, demand_noise=noise,
                       discount_probability=prob,
                       discount_intensity=intensity,
                       weekday_effects=tuple(
                           demand_scale * v
                           for v in DgpConfig.weekday_effects))
    _assert_table_equals_rows(generate_panel(config, sku_id).table,
                              generate_panel_rows(config, sku_id))


@pytest.mark.parametrize("changes", [
    {"order_up_to": 12, "gamma_true": 1.0, "discount_intensity": 6.0},
    {"order_up_to": 3},
    {"order_up_to": 14, "gamma_true": -0.5, "discount_intensity": 12.0,
     "demand_noise": "poisson"},
    {"order_up_to": 15, "gamma_true": 1e20},
    {"order_up_to": 2**53, "gamma_true": 1e300},
    {"order_up_to": 9, "weekday_effects": (2.0**53,) * 7},
    {"order_up_to": 0},
])
def test_panel_equals_oracle_where_stock_binds(changes):
    config = dataclasses.replace(
        DgpConfig(seed=11, n_days=400, discount_probability=0.5), **changes)
    table = generate_panel(config, sku_id=4).table
    _assert_table_equals_rows(table, generate_panel_rows(config, 4))
    assert (table.sales == table.stock).any()


# --- cycle simulator ---------------------------------------------------------

def test_cycle_conservation_exact():
    for shelf_life, seed in ((1, 5), (3, 5), (7, 11)):
        config = CycleConfig(seed=seed, n_days=250, shelf_life_days=shelf_life)
        trace = simulate_cycle(config)
        for today, tomorrow in zip(trace.days, trace.days[1:]):
            assert tomorrow.stock == (today.stock - today.sales
                                      - today.spoilage + today.order_placed)
            assert 0 <= today.discounted_sales <= today.sales <= today.stock
            assert today.spoilage <= today.stickered


def test_cycle_empty_and_single_day():
    assert simulate_cycle(CycleConfig(seed=1, n_days=0)).days == ()
    trace = simulate_cycle(CycleConfig(seed=1, n_days=1))
    assert len(trace.days) == 1


def test_cycle_reproducible():
    config = CycleConfig(seed=77, n_days=150)
    assert simulate_cycle(config).days == simulate_cycle(config).days


def test_cycle_calibrated_share_is_stationary():
    config = CycleConfig(seed=4, n_days=600, true_regular_share=0.3,
                         assumed_share=0.3)
    trace = simulate_cycle(config)
    days = trace.days[len(trace.days) // 2:]
    stocks = np.array([d.stock for d in days], dtype=float)
    n_weeks = len(stocks) // 7
    weekly = stocks[:n_weeks * 7].reshape(n_weeks, 7).mean(axis=1)
    X = np.column_stack([np.ones(n_weeks), np.arange(n_weeks, dtype=float)])
    fit = fit_ols(X, weekly)
    assert fit.p_values[1] > 0.05
    assert abs(fit.coefficients[1]) < 0.2  # units per week


def test_cycle_overcounting_inflates_stock():
    kwargs = dict(seed=12, n_days=365, true_regular_share=0.3)
    calibrated = cycle_summary(simulate_cycle(
        CycleConfig(assumed_share=0.3, **kwargs)))
    inflated = cycle_summary(simulate_cycle(
        CycleConfig(assumed_share=1.0, **kwargs)))
    assert inflated["last_half"]["mean_stock"] > \
        calibrated["last_half"]["mean_stock"]


def test_cycle_summary_finite():
    summary = cycle_summary(simulate_cycle(CycleConfig(seed=8, n_days=120)))
    for window in ("overall", "last_half"):
        for value in summary[window].values():
            assert np.isfinite(value)
    assert summary["n_days"] == 120


@pytest.mark.parametrize("bad", [
    {"n_days": -1},
    {"true_regular_share": -0.1},
    {"assumed_share": 1.2},
    {"smoothing_weight": 0.0},
    {"smoothing_weight": 1.0},
    {"shelf_life_days": 0},
    {"order_up_to_multiplier": 0.0},
    {"base_demand": -1.0},
    {"discount_sell_prob": 2.0},
])
def test_cycle_config_validation(bad):
    with pytest.raises(InvalidConfig):
        dataclasses.replace(CycleConfig(), **bad).validate()



def _field(valid: st.SearchStrategy, *bounds) -> st.SearchStrategy:
    """A value from ``valid``, or one of ``bounds`` or its neighbour on
    either side, or for a float field nan, an infinity or the largest
    finite float of either sign."""
    if isinstance(bounds[0], int):
        return st.one_of(valid, st.sampled_from(
            [b + d for b in bounds for d in (-1, 0, 1)]))
    near = [math.nextafter(b, to) for b in bounds
            for to in (-math.inf, math.inf)]
    return st.one_of(valid, st.sampled_from(
        [*bounds, *near, math.nan, math.inf, -math.inf, sys.float_info.max,
         -sys.float_info.max]))


def _config(default, **fields: st.SearchStrategy) -> st.SearchStrategy:
    """``default`` with any of ``fields`` drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=fields).map(
        lambda drawn: dataclasses.replace(default, **drawn))


_LARGEST = 2.0 ** 53
_INT64 = (1 << 63) - 1
_SEEDS = _field(st.integers(-1 << 70, 1 << 70), 0, 1 << 64)
_SHARES = _field(st.floats(0.0, 1.0), 0.0, 1.0)
_DAYS = st.integers(-1, 6)
_CONFIGS = st.one_of(
    _config(
        DgpConfig(n_days=6), seed=_SEEDS, n_days=_DAYS,
        weekday_effects=st.lists(_field(st.floats(0.0, _LARGEST), 0.0,
                                        _LARGEST),
                                 min_size=6, max_size=8).map(tuple),
        forecast_noise_sd=_field(st.floats(0.0, _LARGEST), 0.0, _LARGEST),
        order_up_to=_field(st.integers(0, _INT64), 0, _INT64),
        discount_probability=_SHARES,
        discount_intensity=_field(st.floats(0.0, _LARGEST), 0.0, _LARGEST),
        gamma_true=_field(st.floats(allow_nan=False, allow_infinity=False),
                          -2.0 ** 64, 0.0, 2.0 ** 64),
        demand_noise=st.sampled_from(["gaussian", "poisson", "uniform"]),
        demand_noise_sd=_field(st.floats(0.0, _LARGEST), 0.0, _LARGEST),
        start_date=st.dates()),
    _config(
        CycleConfig(n_days=6), seed=_SEEDS,
        n_days=_DAYS, true_regular_share=_SHARES,
        assumed_share=_SHARES, smoothing_weight=_field(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            0.0, 1.0),
        shelf_life_days=_field(st.integers(1, 1 << 70), 1),
        order_up_to_multiplier=_field(st.floats(0.0, _LARGEST,
                                                exclude_min=True),
                                      0.0, 1.0, _LARGEST),
        base_demand=_field(st.floats(0.0, _LARGEST), 0.0, 1.0, _LARGEST),
        discount_sell_prob=_SHARES))


@settings(max_examples=500, deadline=None)
@given(_CONFIGS, st.integers(0, _INT64))
# The largest uplift, whose product with a count of discounted sales is
# not a float; a base demand past its bound, and a first order whose
# multiplier and base demand are each at their bound. Last, a first order
# at its bound, which grows a million-fold a day on a shelf life of one
# day.
@example(DgpConfig(n_days=6, gamma_true=sys.float_info.max), 0)
# A forecast noise whose draws for sku 5 are not all finite.
@example(DgpConfig(n_days=6, forecast_noise_sd=1e308), 5)
@example(CycleConfig(n_days=1, base_demand=1e300,
                     order_up_to_multiplier=1e-300), 0)
@example(CycleConfig(n_days=1, shelf_life_days=1, base_demand=_LARGEST,
                     order_up_to_multiplier=_LARGEST), 0)
@example(CycleConfig(n_days=3, shelf_life_days=1, base_demand=1.0,
                     order_up_to_multiplier=_LARGEST), 0)
def test_every_config_that_validates_runs(config, sku_id):
    # Each field at valid values, its bounds, just past them, nan and
    # +-inf, with at most 6 days: a config is refused by validate, or
    # generates without error, and a panel's forecasts are finite.
    try:
        config.validate()
    except InvalidConfig:
        return
    if isinstance(config, DgpConfig):
        panel = generate_panel(config, sku_id)
        assert np.isfinite(panel.table.forecast).all()
    else:
        simulate_cycle(config)
