"""Independent reference implementations used to check the library.

Everything here deliberately takes a different route than the package:
least squares goes through the normal equations with hand-rolled Gaussian
elimination, p-values through adaptive quadrature of the density, quantiles
through the direct order-statistic formula, and the two-step estimates
through the normal equations in exact rational arithmetic. To pin the
kernel's bits, one more least-squares reference repeats its Householder
steps in Python floats with explicit loops instead of array operations.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable

import numpy as np
from scipy.integrate import quad


def gaussian_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = A.shape[0]
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(A[k:, k])))
        if A[pivot, k] == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != k:
            A[[k, pivot]] = A[[pivot, k]]
            b[[k, pivot]] = b[[pivot, k]]
        for i in range(k + 1, n):
            m = A[i, k] / A[k, k]
            A[i, k:] -= m * A[k, k:]
            b[i] -= m * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1:] @ x[i + 1:]) / A[i, i]
    return x


def normal_equations_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """beta = (X'X)^-1 X'y via explicit elimination on the normal equations."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return gaussian_solve(X.T @ X, X.T @ y)


def student_t_density(u: float, dof: int) -> float:
    c = math.exp(math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0))
    c /= math.sqrt(dof * math.pi)
    return c * (1.0 + u * u / dof) ** (-(dof + 1) / 2.0)


def t_pvalue_quadrature(t: float, dof: int) -> float:
    """Two-sided p-value by adaptive quadrature over the upper tail."""
    tail, _ = quad(student_t_density, abs(t), math.inf, args=(dof,),
                   epsabs=1e-14, epsrel=1e-13, limit=200)
    return 2.0 * tail


def quantile_order_statistic(values, q: float) -> float:
    """Linear-interpolation quantile straight from the definition."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def matrix_with_condition(rng: np.random.Generator, n: int, p: int,
                          cond: float) -> np.ndarray:
    """Random n x p matrix with a prescribed 2-norm condition number."""
    A = rng.normal(size=(n, p))
    B = rng.normal(size=(p, p))
    u, _ = np.linalg.qr(A)
    v, _ = np.linalg.qr(B)
    if p == 1:
        singular = np.array([1.0])
    else:
        singular = np.geomspace(1.0, 1.0 / cond, p)
    return u @ np.diag(singular) @ v.T


def _exact_solve(A: list[list[Fraction]],
                 B: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = B exactly by Gauss-Jordan elimination; every matrix is a
    list of rows."""
    n = len(A)
    rows = [A[i] + B[i] for i in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        head = rows[k][k]
        rows[k] = [value / head for value in rows[k]]
        for i in range(n):
            factor = rows[i][k]
            if i != k and factor != 0:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def _exact_normal_equations(X: list[list[Fraction]], y: list[Fraction]
                            ) -> tuple[list[Fraction], Fraction]:
    """Exact OLS coefficients and (X'X)^-1 at the last column's diagonal."""
    p = len(X[0])
    xtx = [[sum(row[a] * row[b] for row in X) for b in range(p)]
           for a in range(p)]
    xty = [sum(row[a] * value for row, value in zip(X, y)) for a in range(p)]
    unit = [Fraction(int(a == p - 1)) for a in range(p)]
    solved = _exact_solve(xtx, [[xty[a], unit[a]] for a in range(p)])
    return [row[0] for row in solved], solved[p - 1][1]


def exact_sqrt(value: Fraction) -> Fraction:
    """Square root of a non-negative rational to 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Fraction((Decimal(value.numerator)
                         / Decimal(value.denominator)).sqrt())


def exact_two_step(days: Iterable[tuple[int, float, int, int, int]]
                   ) -> tuple[Fraction, Fraction, Fraction]:
    """Exact two-step estimate for one SKU from its days, given as
    ``(weekday 1..7, forecast, stock, sales, discounted_sales)``.

    Stage 1 regresses sales on weekday dummies, forecast and stock over the
    days without discounted sales; stage 2 regresses the stage-1 residuals
    of the other days on the same covariates plus the discounted-sales
    count. Every float converts to a Fraction exactly and nothing is
    rounded, so the result does not depend on the order of the days.
    Returns ``(mean_residual, gamma10, gamma10_variance)``.
    """
    plain_x, plain_y, disc_x, disc_y, disc_ds = [], [], [], [], []
    for weekday, forecast, stock, sales, ds in days:
        row = [Fraction(int(weekday == d)) for d in range(1, 8)]
        row += [Fraction(forecast), Fraction(stock)]
        if ds == 0:
            plain_x.append(row)
            plain_y.append(Fraction(sales))
        else:
            disc_x.append(row)
            disc_y.append(Fraction(sales))
            disc_ds.append(Fraction(ds))
    beta1, _ = _exact_normal_equations(plain_x, plain_y)
    residuals = [y - sum(b * x for b, x in zip(beta1, row))
                 for row, y in zip(disc_x, disc_y)]
    X2 = [row + [ds] for row, ds in zip(disc_x, disc_ds)]
    beta2, inv_last = _exact_normal_equations(X2, residuals)
    rss = sum((r - sum(b * x for b, x in zip(beta2, row))) ** 2
              for row, r in zip(X2, residuals))
    dof = len(X2) - len(beta2)
    return (sum(residuals) / len(residuals), beta2[-1],
            rss / dof * inv_last)


def _rows_sum(values: Iterable[float]) -> float:
    """Sum as ``ols`` takes it: from +0.0, one value after another."""
    total = 0.0
    for value in values:
        total += value
    return total


def householder_fit(X, y, rtol: float = 1e-10
                    ) -> tuple[int, list[float] | None, list[float] | None,
                               list[float] | None]:
    """One least-squares fit by pivoted Householder QR in Python floats:
    ``(rank, coefficients, std_errors, residuals)``, the last three None
    when the rank is below the column count.

    A reference for ``ols``' batched kernel that shares none of its array
    code. Every sum adds its terms one at a time in order, over rows and
    along a row (the fitted values and the squared row norms of R^-1)
    alike, and each rounding step is the kernel's: the pivot is the first
    column of largest norm, ``v = x - alpha e1`` with ``alpha = -sign(x0)
    ||x||``, ``v'v = v'x - alpha v0``, the update subtracts ``(2 / v'v *
    v_i) * w_j``, and ``[Q'y | I]`` is back-substituted column by column.
    """
    M = [[float(v) for v in row] + [float(t)] for row, t in zip(X, y)]
    n, p = len(M), len(M[0]) - 1
    piv = list(range(p))
    tol = None
    rank = 0
    for k in range(min(n, p)):
        norms = [math.sqrt(_rows_sum(M[i][j] * M[i][j] for i in range(k, n)))
                 for j in range(k, p)]
        pivot_norm = max(norms)
        j = k + norms.index(pivot_norm)
        if tol is None:
            tol = rtol * pivot_norm
        if not pivot_norm > tol:
            break
        if j != k:
            for row in M:
                row[k], row[j] = row[j], row[k]
            piv[k], piv[j] = piv[j], piv[k]
        x0 = M[k][k]
        alpha = -math.copysign(pivot_norm, x0) if x0 != 0.0 else -pivot_norm
        v = [M[i][k] for i in range(k, n)]
        v[0] -= alpha
        w = [_rows_sum(v[i - k] * M[i][j] for i in range(k, n))
             for j in range(k, p + 1)]
        vtv = w[0] - alpha * v[0]
        if vtv > 0.0:
            scale = 2.0 / vtv
            for i in range(k, n):
                c = scale * v[i - k]
                for j in range(k + 1, p + 1):
                    M[i][j] -= c * w[j - k]
        M[k][k] = alpha
        for i in range(k + 1, n):
            M[i][k] = 0.0
        rank += 1
    if rank < p:
        return rank, None, None, None

    # Solve R [b | R^-1] = [Q'y | I]: divide row i by R_ii, then remove its
    # multiple from every row above it.
    S = [[M[i][p]] + [float(c == i) for c in range(p)] for i in range(p)]
    for i in range(p - 1, -1, -1):
        S[i] = [value / M[i][i] for value in S[i]]
        for r in range(i):
            S[r] = [a - M[r][i] * b for a, b in zip(S[r], S[i])]
    beta = [0.0] * p
    for i in range(p):
        beta[piv[i]] = S[i][0]
    residuals = [float(t) - _rows_sum(float(x) * b for x, b in zip(row, beta))
                 for row, t in zip(X, y)]
    dof = n - p
    if dof == 0:
        return rank, beta, [math.nan] * p, residuals
    sigma2 = _rows_sum(r * r for r in residuals) / dof
    std_errors = [0.0] * p
    for i in range(p):
        variance = sigma2 * _rows_sum(c * c for c in S[i][1:])
        std_errors[piv[i]] = math.sqrt(max(variance, 0.0))
    return rank, beta, std_errors, residuals


_ORACLE_WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
                    "Saturday", "Sunday")
_ORACLE_COLUMNS = ("store", "sku", "date", "weekday", "stock", "forecast",
                   "sales", "discounted_sales")


def parse_csv_rows(text: str) -> tuple[list[tuple], list[str], list[str]]:
    """Row-by-row CSV ingestion with the canonical header, one record at a
    time: ``(records, errors, warnings)``.

    Each record is ``(store, sku, date, weekday, stock, forecast, sales,
    discounted_sales)`` with a ``datetime.date``; errors and warnings are
    the ``line:<n> field:<name> <message>`` strings in line order. A record
    must convert field by field, then satisfy ``0 <= discounted_sales <=
    sales <= stock`` with a finite non-negative forecast, and must not
    repeat an accepted record's (store, sku, date) key.
    """
    import csv
    import datetime as dt
    import io

    by_name = {name.lower(): i + 1 for i, name in enumerate(_ORACLE_WEEKDAYS)}

    def weekday_of(raw: str) -> int:
        raw = raw.strip()
        if raw.lower() in by_name:
            return by_name[raw.lower()]
        value = int(raw)
        if not 1 <= value <= 7:
            raise ValueError(f"weekday {value} outside 1..7")
        return value

    reader = csv.reader(io.StringIO(text))
    header = [h.strip().lower() for h in next(reader)]
    where = {name: header.index(name) for name in _ORACLE_COLUMNS}
    records: list[tuple] = []
    errors: list[str] = []
    warnings: list[str] = []
    seen: set = set()
    for row in reader:
        line = reader.line_num

        def fail(field: str, message: str) -> None:
            errors.append(f"line:{line} field:{field} {message}")

        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(where.values()):
            fail("row", f"expected {len(header)} fields, got {len(row)}")
            continue
        cell = {name: row[i].strip() for name, i in where.items()}
        try:
            store, sku = int(cell["store"]), int(cell["sku"])
        except ValueError as exc:
            fail("store/sku", f"malformed id: {exc}")
            continue
        try:
            date = dt.date.fromisoformat(cell["date"])
        except ValueError as exc:
            fail("date", f"malformed date: {exc}")
            continue
        try:
            weekday = weekday_of(cell["weekday"])
        except ValueError as exc:
            fail("weekday", f"malformed weekday: {exc}")
            continue
        values = {}
        for name in ("stock", "sales", "discounted_sales"):
            try:
                values[name] = int(cell[name])
            except ValueError as exc:
                fail(name, f"malformed integer: {exc}")
        try:
            values["forecast"] = float(cell["forecast"])
        except ValueError as exc:
            fail("forecast", f"malformed number: {exc}")
        if len(values) < 4:
            continue
        stock, sales = values["stock"], values["sales"]
        ds, forecast = values["discounted_sales"], values["forecast"]
        before = len(errors)
        if stock < 0:
            fail("stock", "stock must be non-negative")
        if not math.isfinite(forecast):
            fail("forecast", "forecast must be finite")
        elif forecast < 0:
            fail("forecast", "forecast must be non-negative")
        if sales < 0:
            fail("sales", "sales must be non-negative")
        if ds < 0:
            fail("discounted_sales", "discounted sales must be non-negative")
        if ds > sales:
            fail("discounted_sales",
                 f"discounted sales {ds} exceed sales {sales}")
        if sales > stock:
            fail("sales", f"sales {sales} exceed opening stock {stock}")
        if len(errors) > before:
            continue
        if (store, sku, date) in seen:
            fail("row", f"duplicate entry for store {store} sku {sku} "
                 f"date {date.isoformat()}")
            continue
        seen.add((store, sku, date))
        if weekday != date.isoweekday():
            warnings.append(
                f"line:{line} field:weekday weekday column says "
                f"{_ORACLE_WEEKDAYS[weekday - 1]} but {date.isoformat()} is a "
                f"{_ORACLE_WEEKDAYS[date.isoweekday() - 1]}; using the column")
        records.append((store, sku, date, weekday, stock, forecast, sales, ds))
    return records, errors, warnings


def generate_panel_rows(config, sku_id: int) -> list[tuple]:
    """One SKU's synthetic panel, one day at a time: a list of ``(store,
    sku, date, weekday, stock, forecast, sales, discounted_sales)`` tuples.

    The draws are the generator's (same Philox stream, seeded from ``seed``
    and ``sku_id``, and block order); each forecast is rounded half to even
    to 4 places, as an integer over 10000; the stock recursion walks every
    day in Python integers: opening stock is ``order_up_to`` minus the
    previous day's sales, discounted sales are capped by it, and the uplift
    ``gamma * ds`` is rounded stochastically.
    """
    import datetime as dt

    mask = (1 << 64) - 1
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        config.seed & mask, spawn_key=(0, sku_id & mask))))
    n = config.n_days
    days = [config.start_date + dt.timedelta(days=i) for i in range(n)]
    lam = np.array([config.weekday_effects[d.isoweekday() - 1]
                    for d in days], dtype=np.float64)

    forecast_noise = rng.normal(0.0, config.forecast_noise_sd, size=n)
    active = rng.random(n) < config.discount_probability
    ds_raw = np.where(active, rng.poisson(config.discount_intensity, size=n), 0)
    if config.demand_noise == "gaussian":
        regular = np.maximum(
            np.rint(rng.normal(lam, config.demand_noise_sd)), 0.0
        ).astype(np.int64)
    else:
        regular = rng.poisson(lam)
    round_u = rng.random(n)
    forecasts = np.maximum(lam + forecast_noise, 0.0)

    rows = []
    prev_sales = 0
    for day, forecast, raw, demand, u in zip(
            days, forecasts.tolist(), ds_raw.tolist(), regular.tolist(),
            round_u.tolist()):
        opening = config.order_up_to - prev_sales
        ds = min(raw, opening)
        x = config.gamma_true * ds
        uplift = math.floor(x) + (1 if u < x - math.floor(x) else 0)
        sold = min(opening, max(0, demand + uplift))
        rows.append((1, sku_id, day, day.isoweekday(), opening,
                     round(forecast * 1e4) / 10000, sold, min(ds, sold)))
        prev_sales = sold
    return rows


def csv_writer_text(rows: Iterable[tuple]) -> str:
    """The canonical CSV of ``(store, sku, date, weekday, stock, forecast,
    sales, discounted_sales)`` records, written by ``csv.writer`` one row at
    a time: ISO dates, weekday names, ``repr`` forecasts, ``"\\n"`` line
    ends."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_ORACLE_COLUMNS)
    for store, sku, date, weekday, stock, forecast, sales, ds in rows:
        writer.writerow((store, sku, date.isoformat(),
                         _ORACLE_WEEKDAYS[weekday - 1], stock, repr(forecast),
                         sales, ds))
    return out.getvalue()
