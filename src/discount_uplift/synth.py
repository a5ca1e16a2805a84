"""Synthetic ground truth: a seeded demand process with a planted uplift, and
a replenishment-cycle simulator showing how miscounting discounted sales
inflates forecasts and stock.

Randomness comes from numpy's Philox counter-based bit generator (4x64),
which produces identical streams on every platform for a fixed numpy
version. Streams are derived deterministically:

* panel generation uses ``key = (seed XOR sku_id) mod 2**64``, one stream
  per SKU, with per-day quantities drawn in fixed blocks (forecast noise,
  discount-active flags, raw discount counts, regular demand, rounding
  uniforms, in that order);
* the cycle simulator uses two streams, ``key = [seed, 1]`` for regular
  demand and ``key = [seed, 2]`` for discount outcomes, so paired runs that
  differ only in the assumed regular share face identical demand.

Fractional uplift is materialised by unbiased stochastic rounding
(``floor(x)`` plus a Bernoulli on the fractional part), so expected sales
are exactly linear in the discounted-sales count and the two-step estimator
is correctly specified. Replenishment is order-up-to with a one-day delay:
the day's opening stock is the order-up-to level minus the previous day's
sales. (An instantaneous daily top-up would pin stock to a constant, which
the weekday dummies already span.) Days where stock does not bind are
computed together, as arrays; the sequential recursion runs only from a day
where stock binds until sales are unconstrained again.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .domain import ObservationTable, SkuPanel

_MASK64 = (1 << 64) - 1
# Magnitudes below which the vectorised stock recursion is exact in int64.
_EXACT = 1 << 52
_CLIP = float(1 << 60)
# Largest demand scale or first order a config may set: far below where
# int64 demand or numpy's Poisson draw overflows.
_LARGEST = 1 << 53

GAUSSIAN = "gaussian"
POISSON = "poisson"


class InvalidConfig(ValueError):
    pass


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the panel-generating process.

    ``weekday_effects`` is the latent regular demand (units/day) for Monday
    through Sunday; ``gamma_true`` the planted uplift per discounted sale.
    ``demand_noise`` selects the regular-demand draw: ``"gaussian"`` rounds a
    normal with ``demand_noise_sd`` (sd 0 makes demand deterministic),
    ``"poisson"`` draws a Poisson at the weekday mean.
    """

    seed: int = 0
    n_days: int = 400
    weekday_effects: tuple[float, ...] = (8.0, 8.5, 9.0, 9.5, 10.0, 12.0, 11.0)
    forecast_noise_sd: float = 0.5
    order_up_to: int = 40
    discount_probability: float = 0.25
    discount_intensity: float = 3.5
    gamma_true: float = 0.6
    demand_noise: str = GAUSSIAN
    demand_noise_sd: float = 0.5
    start_date: dt.date = dt.date(2024, 1, 1)

    def validate(self) -> None:
        if self.n_days < 0:
            raise InvalidConfig("n_days must be non-negative")
        if len(self.weekday_effects) != 7:
            raise InvalidConfig("weekday_effects needs one value per weekday")
        if not all(math.isfinite(v) for v in self.weekday_effects):
            raise InvalidConfig("weekday_effects must be finite")
        for name in ("forecast_noise_sd", "discount_probability",
                     "discount_intensity", "gamma_true", "demand_noise_sd"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite")
        for name in ("weekday_effects", "forecast_noise_sd",
                     "demand_noise_sd", "discount_intensity"):
            if np.max(getattr(self, name)) > _LARGEST:
                raise InvalidConfig(f"{name} must be at most 2**53")
        if any(v < 0 for v in self.weekday_effects):
            raise InvalidConfig("weekday_effects must be non-negative")
        if self.forecast_noise_sd < 0:
            raise InvalidConfig("forecast_noise_sd must be non-negative")
        if self.order_up_to < 0:
            raise InvalidConfig("order_up_to must be non-negative")
        if self.order_up_to >= 1 << 63:  # the stock column is int64
            raise InvalidConfig("order_up_to must be below 2**63")
        if not 0.0 <= self.discount_probability <= 1.0:
            raise InvalidConfig("discount_probability must be in [0, 1]")
        if self.discount_intensity < 0:
            raise InvalidConfig("discount_intensity must be non-negative")
        if self.demand_noise not in (GAUSSIAN, POISSON):
            raise InvalidConfig(f"unknown demand_noise {self.demand_noise!r}")
        if self.demand_noise_sd < 0:
            raise InvalidConfig("demand_noise_sd must be non-negative")
        try:
            self.start_date + dt.timedelta(days=max(self.n_days - 1, 0))
        except OverflowError:
            raise InvalidConfig("start_date plus n_days runs past the last "
                                "representable date") from None


def _stream(key_words: Sequence[int]) -> np.random.Generator:
    words = np.array([w & _MASK64 for w in key_words], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=words))


def _stochastic_round(x: float, u: float) -> int:
    base = math.floor(x)
    return base + (1 if u < x - base else 0)


def _sell(s_level: int, gamma: float, ds_raw: np.ndarray,
          demand: np.ndarray, round_u: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Opening stock, sales and discounted sales of each day.

    A day's sales are ``min(opening, max(0, demand + round(gamma * ds)))``
    with ``ds = min(ds_raw, opening)`` and ``opening = s_level - yesterday's
    sales``. Where stock does not bind (``ds_raw`` and the unconstrained
    "free" sales both within the opening stock), sales equal the free sales,
    which depend on the day's draws alone; those are computed for all days
    at once. The sequential recursion runs only from a binding day until a
    day whose sales equal its free sales, after which the vectorised
    opening stock is exact again.
    """
    # Beyond 2**64, an uplift per discounted sale decides nothing either:
    # demand and stock are int64, so the day sells its opening stock or
    # nothing. Clipped, gamma * ds stays finite.
    gamma = min(max(gamma, -2.0 ** 64), 2.0 ** 64)
    n = len(ds_raw)
    exact = (n and s_level < _EXACT and -_EXACT < demand.min()
             and demand.max() < _EXACT)
    if exact:
        x = gamma * ds_raw.astype(np.float64)
        base = np.floor(x)
        # Beyond +-2**60 the uplift decides nothing: with demand and stock
        # below 2**52 in magnitude, sales are the opening stock or 0 anyway.
        uplift = (np.clip(base, -_CLIP, _CLIP).astype(np.int64)
                  + (round_u < x - base))
        free = np.maximum(demand + uplift, 0)
        opening = np.empty(n, dtype=np.int64)
        opening[0] = s_level
        opening[1:] = s_level - free[:-1]
        binding = np.flatnonzero((ds_raw > opening) | (free > opening))
        stock, sales = opening, free
        discounted = np.minimum(ds_raw, free)
    else:  # the whole horizon in Python integers
        free = np.full(n, -1, dtype=np.int64)
        stock, sales, discounted = (np.zeros(n, dtype=np.int64)
                                    for _ in range(3))
        binding = np.arange(min(n, 1))
    if not len(binding):
        return stock, sales, discounted

    free_l = free.tolist()  # sales may share free's memory
    raw_l, demand_l, u_l = ds_raw.tolist(), demand.tolist(), round_u.tolist()
    end = 0
    for day in binding.tolist():
        if day < end:
            continue
        prev_sales = int(sales[day - 1]) if day else 0
        while day < n:
            opening = s_level - prev_sales
            ds = min(raw_l[day], opening)
            uplift = _stochastic_round(gamma * ds, u_l[day])
            sold = min(opening, max(0, demand_l[day] + uplift))
            stock[day], sales[day] = opening, sold
            discounted[day] = min(ds, sold)
            prev_sales = sold
            day += 1
            if sold == free_l[day - 1]:
                break
        end = day
    return stock, sales, discounted


def generate_panel(config: DgpConfig, sku_id: int) -> SkuPanel:
    """Generate one SKU's panel; a pure function of (seed, config, sku_id)."""
    config.validate()
    rng = _stream([config.seed ^ (sku_id & _MASK64), 0])
    n = config.n_days

    dates = np.datetime64(config.start_date, "D") + np.arange(n)
    weekdays = (dates.view(np.int64) + 3) % 7 + 1  # 1970-01-01 was a Thursday
    lam = np.asarray(config.weekday_effects, dtype=np.float64)[weekdays - 1]

    forecast_noise = rng.normal(0.0, config.forecast_noise_sd, size=n)
    active = rng.random(n) < config.discount_probability
    ds_raw = np.where(active, rng.poisson(config.discount_intensity, size=n), 0)
    if config.demand_noise == GAUSSIAN:
        regular = np.maximum(
            np.rint(rng.normal(lam, config.demand_noise_sd)), 0.0
        ).astype(np.int64)
    else:
        regular = rng.poisson(lam)
    round_u = rng.random(n)

    forecasts = np.maximum(lam + forecast_noise, 0.0)
    stock, sales, discounted = _sell(config.order_up_to, config.gamma_true,
                                     ds_raw, regular, round_u)
    table = ObservationTable(
        store_id=np.ones(n, dtype=np.int64), sku_id=np.full(n, sku_id),
        date=dates, weekday=weekdays, stock=stock, forecast=forecasts,
        sales=sales, discounted_sales=discounted)
    return SkuPanel(sku_id=sku_id, table=table)


def generate_study(config: DgpConfig, n_skus: int,
                   gammas: Sequence[float] | None = None
                   ) -> tuple[SkuPanel, ...]:
    """Generate a batch of SKU panels, optionally with per-SKU uplifts.

    ``gammas`` is cycled over the SKUs; None keeps ``config.gamma_true``
    everywhere, and an empty sequence raises ``InvalidConfig``. SKU ids run
    from 1 upward and fix each SKU's random stream together with the seed.
    """
    if n_skus < 0:
        raise InvalidConfig("n_skus must be non-negative")
    if gammas is not None and len(gammas) == 0:
        raise InvalidConfig("gammas must be None or non-empty")
    panels = []
    for i in range(n_skus):
        cfg = config if gammas is None else replace(
            config, gamma_true=float(gammas[i % len(gammas)]))
        # Looked up per panel, so a wrapper on the module attribute sees
        # every call.
        panels.append(generate_panel(cfg, sku_id=i + 1))
    return tuple(panels)


@dataclass(frozen=True)
class CycleConfig:
    """Parameters of the forecast-discount feedback simulation.

    ``true_regular_share`` is the fraction of discounted sales that is
    regular demand in truth; ``assumed_share`` the fixed fraction the
    forecaster counts. Units spend ``shelf_life_days`` sellable days on the
    shelf, get a discount sticker on the last one, and spoil overnight if
    still unsold.
    """

    seed: int = 0
    n_days: int = 365
    true_regular_share: float = 0.3
    assumed_share: float = 1.0
    smoothing_weight: float = 0.2
    shelf_life_days: int = 3
    order_up_to_multiplier: float = 2.0
    base_demand: float = 5.0
    discount_sell_prob: float = 0.85

    def validate(self) -> None:
        if self.n_days < 0:
            raise InvalidConfig("n_days must be non-negative")
        if not 0.0 <= self.true_regular_share <= 1.0:
            raise InvalidConfig("true_regular_share must be in [0, 1]")
        if not 0.0 <= self.assumed_share <= 1.0:
            raise InvalidConfig("assumed_share must be in [0, 1]")
        if not 0.0 < self.smoothing_weight < 1.0:
            raise InvalidConfig("smoothing_weight must be in (0, 1)")
        if self.shelf_life_days < 1:
            raise InvalidConfig("shelf_life_days must be at least 1")
        for name in ("order_up_to_multiplier", "base_demand"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite")
            if getattr(self, name) > _LARGEST:
                raise InvalidConfig(f"{name} must be at most 2**53")
        if self.order_up_to_multiplier <= 0:
            raise InvalidConfig("order_up_to_multiplier must be positive")
        if self.base_demand < 0:
            raise InvalidConfig("base_demand must be non-negative")
        if self.order_up_to_multiplier * self.base_demand > _LARGEST:
            raise InvalidConfig("order_up_to_multiplier times base_demand, "
                                "the first order, must be at most 2**53")
        if not 0.0 <= self.discount_sell_prob <= 1.0:
            raise InvalidConfig("discount_sell_prob must be in [0, 1]")


@dataclass(frozen=True)
class CycleDay:
    """One day of the cycle trace. ``stock`` is the post-receipt opening
    stock; ``forecast`` the smoothed estimate after the day's update, i.e.
    the one driving that evening's order."""

    day: int
    stock: int
    forecast: float
    stickered: int
    sales: int
    discounted_sales: int
    spoilage: int
    order_placed: int


@dataclass(frozen=True)
class CycleTrace:
    config: CycleConfig
    days: tuple[CycleDay, ...]


def simulate_cycle(config: CycleConfig) -> CycleTrace:
    """Simulate the replenish-discount-forecast loop day by day.

    Each morning the pending order arrives and units on their last sellable
    day are stickered. Stickered units sell at the discount with
    ``discount_sell_prob`` each; a ``true_regular_share`` portion of those
    discounted sales is absorbed from regular demand, the rest is extra
    demand created by the discount. Remaining regular demand consumes
    unstickered stock oldest-first and spills onto leftover stickered units
    (still counted as discounted) before going unmet. The forecaster
    exponentially smooths non-discounted sales plus ``assumed_share`` times
    discounted sales and orders up to ``order_up_to_multiplier`` times the
    forecast. Ordering on an inflated forecast enlarges tomorrow's stock,
    tomorrow's stickering and hence tomorrow's discounted sales. Stock that
    feeds on itself grows geometrically; it stops at 2**63 - 1 units.
    """
    config.validate()
    rng_demand = _stream([config.seed, 1])
    rng_discount = _stream([config.seed, 2])

    forecast = config.base_demand
    pending = int(round(config.order_up_to_multiplier * forecast))
    batches: list[list[int]] = []  # [remaining sellable days, units], oldest first
    trace = []
    for day in range(config.n_days):
        if pending > 0:
            batches.append([config.shelf_life_days, pending])
        pending = 0
        stock = sum(units for _, units in batches)
        stickered = sum(units for life, units in batches if life == 1)

        regular = int(rng_demand.poisson(config.base_demand))
        ds = int(rng_discount.binomial(stickered, config.discount_sell_prob))
        absorbed = min(_stochastic_round(config.true_regular_share * ds,
                                         float(rng_discount.random())),
                       regular)

        fresh_demand = regular - absorbed
        fresh_sales = 0
        for batch in batches:
            if batch[0] == 1:
                continue
            take = min(fresh_demand - fresh_sales, batch[1])
            batch[1] -= take
            fresh_sales += take
            if fresh_sales == fresh_demand:
                break
        spill = min(fresh_demand - fresh_sales, stickered - ds)

        discounted = ds + spill
        sales = discounted + fresh_sales
        to_deplete = discounted
        for batch in batches:
            if batch[0] == 1:
                take = min(to_deplete, batch[1])
                batch[1] -= take
                to_deplete -= take
        spoilage = stickered - discounted  # stickered units nobody bought
        batches = [[life - 1, units] for life, units in batches
                   if life > 1 and units > 0]

        observed = fresh_sales + config.assumed_share * (sales - fresh_sales)
        forecast = ((1.0 - config.smoothing_weight) * forecast
                    + config.smoothing_weight * observed)
        position = sum(units for _, units in batches)
        level = min(int(round(config.order_up_to_multiplier * forecast)),
                    (1 << 63) - 1)
        order = max(0, level - position)

        trace.append(CycleDay(day=day, stock=stock, forecast=forecast,
                              stickered=stickered, sales=sales,
                              discounted_sales=sales - fresh_sales,
                              spoilage=spoilage, order_placed=order))
        pending = order
    return CycleTrace(config=config, days=tuple(trace))


def cycle_summary(trace: CycleTrace) -> dict:
    """Whole-run and last-half averages of the key trace quantities."""
    days = trace.days
    half = days[len(days) // 2:]

    def averages(window: Sequence[CycleDay]) -> dict:
        n = max(len(window), 1)
        return {
            "mean_stock": sum(d.stock for d in window) / n,
            "mean_sales": sum(d.sales for d in window) / n,
            "mean_discounted_sales":
                sum(d.discounted_sales for d in window) / n,
            "mean_spoilage": sum(d.spoilage for d in window) / n,
            "mean_forecast": sum(d.forecast for d in window) / n,
        }

    return {"n_days": len(days), "overall": averages(days),
            "last_half": averages(half),
            "total_spoilage": sum(d.spoilage for d in days)}
