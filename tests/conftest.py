from __future__ import annotations

import datetime as dt
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from discount_uplift import cli, domain
from discount_uplift.domain import Observation, ObservationTable, SkuPanel
from discount_uplift.two_step import ReportStatus, SkuUpliftReport


def build_panel(sales: Sequence[int], discounted: Sequence[int],
                forecast: Sequence[float] | None = None,
                stock: Sequence[int] | None = None,
                sku_id: int = 1,
                start: dt.date = dt.date(2024, 1, 1)) -> SkuPanel:
    """Hand-crafted panel: one observation per consecutive day.

    Bypasses ingestion validation on purpose so tests can construct
    counterfactual data (e.g. shifted sales) freely.
    """
    n = len(sales)
    assert len(discounted) == n
    if forecast is None:
        forecast = [1.0 + 0.1 * (d % 9) for d in range(n)]
    if stock is None:
        stock = [sales[d] + 3 + (d % 4) for d in range(n)]
    observations = []
    for d in range(n):
        date = start + dt.timedelta(days=d)
        observations.append(Observation(
            store_id=1, sku_id=sku_id, date=date, weekday=date.isoweekday(),
            stock=int(stock[d]), forecast=float(forecast[d]),
            sales=int(sales[d]), discounted_sales=int(discounted[d])))
    return SkuPanel(sku_id, ObservationTable.from_observations(observations))


# The columns of the two stages, in the estimator's order.
BASELINE = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun", "Forecast",
            "Stock")
UPLIFT = BASELINE + ("DS",)


def stage_design(panel: SkuPanel, discounted: bool = False
                 ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Design, sales and column labels of a panel's discount-free days
    (stage 1) or, with ``discounted``, of its discount days (stage 2): a
    dummy per weekday, forecast, stock and, on discount days, the
    discounted-sales count."""
    t = panel.table
    rows = t.discounted_sales > 0 if discounted else t.discounted_sales == 0
    columns = [t.weekday[rows] == day for day in range(1, 8)]
    columns += [t.forecast[rows], t.stock[rows]]
    if discounted:
        columns.append(t.discounted_sales[rows])
    return (np.column_stack(columns).astype(np.float64),
            t.sales[rows].astype(np.float64),
            UPLIFT if discounted else BASELINE)


@pytest.fixture
def panel_builder():
    return build_panel


def make_report(sku_id, mean_residual=None, gamma10=None, significant=None,
                failed=False):
    """Synthetic per-SKU report for aggregate-level tests."""
    if failed:
        return SkuUpliftReport(sku_id=sku_id, store_id=None,
                               status=ReportStatus.ESTIMATION_FAILED,
                               n_plain=100, n_disc=50,
                               failure_reason="synthetic failure")
    return SkuUpliftReport(sku_id=sku_id, store_id=None,
                           status=ReportStatus.OK, n_plain=100, n_disc=50,
                           mean_residual=mean_residual, gamma10=gamma10,
                           gamma10_se=0.1, gamma10_t=gamma10 / 0.1,
                           gamma10_p=0.01,
                           significant_positive=bool(significant))


def watch_forks(monkeypatch) -> list[bool]:
    """Makes ``uplift fit`` cut the golden input into 6 pieces of 16 KiB and
    spill it to 3 buckets; returns, per ``fit`` or ``simulate``, whether it
    forked workers."""
    monkeypatch.setattr(domain, "READ_BYTES", 1 << 14)
    monkeypatch.setattr(domain, "BUCKET_BYTES", 1 << 15)
    forked: list[bool] = []

    class Watching(cli._Workers):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            forked.append(self.forks > 0)

    monkeypatch.setattr(cli, "_Workers", Watching)
    return forked
