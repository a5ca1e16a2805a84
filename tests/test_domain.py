from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import hashlib
import io
import itertools
import tempfile
import tracemalloc
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discount_uplift import domain
from discount_uplift.domain import (CSV_COLUMNS, WEEKDAY_NAMES, DomainError,
                                    EligibilityRule, ExclusionReason,
                                    Observation, ObservationTable, SkuPanel,
                                    build_panels, filter_eligible, parse_csv,
                                    serialize_csv)
from discount_uplift.synth import DgpConfig, generate_study
from oracles import csv_writer_text, parse_csv_rows

HEADER = ",".join(CSV_COLUMNS)
DATA = Path(__file__).parent / "data"


def test_parse_sample_rows():
    text = HEADER + "\n" \
        "1,10,2024-09-22,Friday,12,0.521,2,2\n" \
        "34,579,2024-09-25,Wednesday,5,0.736,1,0\n" \
        "676,842,2024-10-22,Tuesday,3,0.343,3,2\n"
    result = parse_csv(text)
    assert not result.errors
    first, second, third = result.observations
    assert first == Observation(store_id=1, sku_id=10,
                                date=dt.date(2024, 9, 22), weekday=5,
                                stock=12, forecast=0.521, sales=2,
                                discounted_sales=2)
    assert second.discounted_sales == 0 and second.weekday == 3
    assert third.sales == third.stock == 3
    # 2024-09-22 is a Sunday; the weekday column wins but is flagged.
    assert len(result.warnings) == 1
    assert result.warnings[0].line == 2
    assert result.warnings[0].field == "weekday"


def test_parse_collects_invariant_violation_with_line_number():
    text = HEADER + "\n" \
        "1,10,2024-09-23,Monday,12,0.5,2,3\n" \
        "1,11,2024-09-23,Monday,12,0.5,2,1\n"
    result = parse_csv(text)
    assert len(result.observations) == 1  # valid rows survive bad ones
    assert result.observations[0].sku_id == 11
    assert len(result.errors) == 1
    err = result.errors[0]
    assert err.line == 2 and err.field == "discounted_sales"
    assert str(err).startswith("line:2 field:discounted_sales ")


def test_parse_sales_above_stock_rejected():
    result = parse_csv(HEADER + "\n1,10,2024-09-23,Monday,2,0.5,3,0\n")
    assert not result.observations
    assert result.errors[0].field == "sales"


@pytest.mark.parametrize("weekday", ["monday", "MONDAY", "1"])
def test_parse_weekday_spellings(weekday):
    result = parse_csv(HEADER + f"\n1,10,2024-09-23,{weekday},5,0.5,1,0\n")
    assert not result.errors
    assert result.observations[0].weekday == 1


def test_parse_malformed_fields_reported_per_row():
    text = HEADER + "\n" \
        "1,10,2024-09-23,Monday,x,0.5,1,0\n" \
        "1,10,not-a-date,Monday,5,0.5,1,0\n" \
        "1,10,2024-09-23,Noday,5,0.5,1,0\n" \
        "1,10,2024-09-24,Tuesday,5,abc,1,0\n"
    result = parse_csv(text)
    assert not result.observations
    fields = [(e.line, e.field) for e in result.errors]
    assert fields == [(2, "stock"), (3, "date"), (4, "weekday"), (5, "forecast")]


def test_parse_non_finite_forecast_rejected():
    result = parse_csv(HEADER + "\n1,10,2024-09-23,Monday,5,nan,1,0\n"
                       + "1,11,2024-09-23,Monday,5,inf,1,0\n")
    assert not result.observations
    assert [e.field for e in result.errors] == ["forecast", "forecast"]


def test_parse_duplicate_store_sku_date_is_error():
    row = "1,10,2024-09-23,Monday,5,0.5,1,0\n"
    result = parse_csv(HEADER + "\n" + row + row)
    assert len(result.observations) == 1
    assert result.errors[0].line == 3
    assert "duplicate" in result.errors[0].message


def test_parse_missing_column():
    result = parse_csv("store,sku,date,weekday,stock,forecast,sales\n")
    assert result.errors[0].field == "discounted_sales"
    assert result.errors[0].line == 1


def test_parse_schema_remap():
    text = "Store,SKU,Date,Weekday,Stock,Forecast,Sales,Discounted Sales\n" \
        "1,10,2024-09-23,Monday,5,0.5,1,0\n"
    result = parse_csv(text, schema={"discounted_sales": "Discounted Sales"})
    assert not result.errors and len(result.observations) == 1
    with pytest.raises(DomainError,
                       match=r"^unknown schema keys: \['price'\]$"):
        parse_csv("a\n", schema={"price": "x"})


def test_table_rejects_columns_of_unequal_length():
    with pytest.raises(DomainError,
                       match="^table columns must be 1-D and equally long$"):
        dataclasses.replace(ObservationTable.empty(), sales=np.zeros(1))


def test_build_panels_partition():
    text = HEADER + "\n" \
        "1,10,2024-09-23,Monday,5,0.5,1,0\n" \
        "1,10,2024-09-24,Tuesday,5,0.5,2,2\n" \
        "1,10,2024-09-25,Wednesday,5,0.5,1,0\n"
    panels = build_panels(parse_csv(text).table)
    assert len(panels) == 1
    panel = panels[0]
    assert panel.n_plain == 2 and panel.n_disc == 1
    disc = np.flatnonzero(panel.table.discounted_sales >= 1)
    assert panel.observations[disc[0]].discounted_sales == 2


def test_build_panels_no_discounts():
    table = parse_csv(HEADER + "\n1,10,2024-09-23,Monday,5,0.5,1,0\n").table
    (panel,) = build_panels(table)
    assert np.flatnonzero(panel.table.discounted_sales >= 1).tolist() == []
    assert panel.n_disc == 0


def test_build_panels_one_per_sku():
    text = HEADER + "\n" \
        "1,10,2024-09-22,Friday,12,0.521,2,2\n" \
        "34,579,2024-09-25,Wednesday,5,0.736,1,0\n" \
        "676,842,2024-10-22,Tuesday,3,0.343,3,2\n"
    panels = build_panels(parse_csv(text).table)
    assert [p.sku_id for p in panels] == [10, 579, 842]
    assert all(p.n_obs == 1 for p in panels)


def test_build_panels_store_grouping():
    text = HEADER + "\n" \
        "1,10,2024-09-23,Monday,5,0.5,1,0\n" \
        "2,10,2024-09-23,Monday,5,0.5,1,0\n"
    pooled = build_panels(parse_csv(text).table)
    per_store = build_panels(parse_csv(text).table, group_by="store-sku")
    assert len(pooled) == 1 and pooled[0].n_obs == 2
    assert len(per_store) == 2
    assert [p.store_id for p in per_store] == [1, 2]
    with pytest.raises(DomainError):
        build_panels(ObservationTable.empty(), group_by="city")


def _counting_panel(n_obs: int, n_disc: int, sku_id: int = 1):
    sales = [2] * n_obs
    disc = [1 if i < n_disc else 0 for i in range(n_obs)]
    from conftest import build_panel
    return build_panel(sales, disc, sku_id=sku_id)


@pytest.mark.parametrize("n_obs,n_disc,expected", [
    (99, 60, ExclusionReason.TOO_FEW_ENTRIES),
    (150, 50, None),
    (150, 49, ExclusionReason.TOO_FEW_DISCOUNT_DAYS),
])
def test_filter_eligible_boundaries(n_obs, n_disc, expected):
    panel = _counting_panel(n_obs, n_disc)
    eligible, excluded = filter_eligible([panel], EligibilityRule(100, 50))
    if expected is None:
        assert eligible == (panel,) and excluded == ()
    else:
        assert eligible == ()
        assert excluded[0].reason is expected


def test_eligibility_rule_validation():
    with pytest.raises(DomainError):
        EligibilityRule(min_entries=10, min_discount_days=20)
    with pytest.raises(DomainError):
        EligibilityRule(min_entries=10, min_discount_days=0)


# --- properties --------------------------------------------------------------

@st.composite
def observation_lists(draw):
    n = draw(st.integers(0, 30))
    rows = []
    seen = set()
    for _ in range(n):
        key = (draw(st.integers(1, 5)), draw(st.integers(1, 8)),
               draw(st.integers(0, 400)))
        if key in seen:
            continue
        seen.add(key)
        store, sku, day = key
        date = dt.date(2024, 1, 1) + dt.timedelta(days=day)
        stock = draw(st.integers(0, 40))
        sales = draw(st.integers(0, stock))
        disc = draw(st.integers(0, sales))
        forecast = draw(st.floats(0.0, 50.0, allow_nan=False))
        rows.append(Observation(store_id=store, sku_id=sku, date=date,
                                weekday=date.isoweekday(), stock=stock,
                                forecast=forecast, sales=sales,
                                discounted_sales=disc))
    return rows


@settings(max_examples=150, deadline=None)
@given(observation_lists())
def test_csv_round_trip(observations):
    result = parse_csv(serialize_csv(observations))
    assert not result.errors
    assert list(result.observations) == observations


@settings(max_examples=150, deadline=None)
@given(observation_lists())
def test_panel_partition_property(observations):
    table = ObservationTable.from_observations(observations)
    for panel in build_panels(table):
        ds = panel.table.discounted_sales
        plain = np.flatnonzero(ds == 0).tolist()
        disc = np.flatnonzero(ds >= 1).tolist()
        assert (panel.n_plain, panel.n_disc) == (len(plain), len(disc))
        assert sorted(plain + disc) == list(range(panel.n_obs))
        assert all(panel.observations[i].discounted_sales >= 1 for i in disc)
        assert all(panel.observations[i].discounted_sales == 0 for i in plain)
        assert all(o.sku_id == panel.sku_id for o in panel.observations)


@settings(max_examples=100, deadline=None)
@given(observation_lists(), st.integers(1, 40), st.integers(1, 40))
def test_filtering_monotone(observations, low, high):
    lo, hi = sorted((low, high))
    panels = build_panels(ObservationTable.from_observations(observations))
    strict = {p.key for p in filter_eligible(panels, EligibilityRule(hi, 1))[0]}
    loose = {p.key for p in filter_eligible(panels, EligibilityRule(lo, 1))[0]}
    assert strict <= loose


# --- columnar ingestion against the row-by-row oracle -----------------------

_DAY0 = dt.date(2024, 1, 1)


@st.composite
def faulty_csv_documents(draw):
    """A canonical CSV whose rows carry injected faults: blank and short
    rows, quoted cells with embedded newlines, CRLF endings, padded cells,
    ``1_000``, non-finite forecasts, broken invariants, repeated keys
    (the key space is small), weekday mismatches and case variants."""
    lines = [",".join(CSV_COLUMNS)]
    for _ in range(draw(st.integers(0, 25))):
        date = _DAY0 + dt.timedelta(days=draw(st.integers(0, 9)))
        weekday = date.isoweekday() if draw(st.booleans()) \
            else draw(st.integers(1, 7))
        name = WEEKDAY_NAMES[weekday - 1]
        stock = draw(st.integers(0, 12))
        sales = draw(st.integers(0, stock))
        ds = draw(st.integers(0, sales))
        cells = [str(draw(st.integers(1, 2))), str(draw(st.integers(1, 2))),
                 date.isoformat(),
                 draw(st.sampled_from([str(weekday), name, name.lower(),
                                       name.upper()])),
                 str(stock), repr(draw(st.floats(0.0, 50.0))), str(sales),
                 str(ds)]
        for fault in draw(st.lists(st.sampled_from(
                ["blank", "spaces", "short", "newline", "pad", "underscore",
                 "nonfinite", "ds>sales", "sales>stock", "negative", "junk",
                 "bad-date", "bad-weekday", "extra"]), max_size=2)):
            i = draw(st.integers(0, max(len(cells) - 1, 0)))
            if fault == "blank":
                cells = []
            elif fault == "spaces":
                cells = [" "] * len(cells)
            elif fault == "short":
                cells = cells[:i]
            elif fault == "newline" and cells:
                cut = draw(st.integers(0, len(cells[i])))
                cells[i] = '"' + cells[i][:cut] + "\n" + cells[i][cut:] + '"'
            elif fault == "pad" and cells:
                cells[i] = " " + cells[i] + "  "
            elif fault == "underscore" and len(cells) > 4:
                cells[4] = "1_000"
            elif fault == "nonfinite" and len(cells) > 5:
                cells[5] = draw(st.sampled_from(["nan", "inf", "-inf", "-0.5"]))
            elif fault == "ds>sales" and len(cells) > 7:
                cells[7] = str(sales + 1)
            elif fault == "sales>stock" and len(cells) > 6:
                cells[6] = str(stock + 1)
            elif fault == "negative" and len(cells) > 7:
                cells[draw(st.sampled_from([4, 6, 7]))] = "-1"
            elif fault == "junk" and cells:
                cells[i] = draw(st.sampled_from(["x", "", "1.5", "٣"]))
            elif fault == "bad-date" and len(cells) > 2:
                cells[2] = draw(st.sampled_from(["2024-02-30", "2024/01/01"]))
            elif fault == "bad-weekday" and len(cells) > 3:
                cells[3] = draw(st.sampled_from(["0", "8", "Noday"]))
            elif fault == "extra":
                cells.append("surplus")
        lines.append(",".join(cells))
    if draw(st.booleans()):  # blocks free of "\r" take the split path
        endings = ["\n"] * len(lines)
    else:
        endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=300, deadline=None)
@given(faulty_csv_documents(), st.sampled_from([1, 2, 3, 7, 16384]))
# A quote left open to the end of a file that ends in a newline: the record
# ends on the file's last line, not one past it.
@example(HEADER + "\n1,10,2024-01-01,Monday,5,0.5,1,0\n\"1\n2\n", 16384)
# A 9-field row next to a 7-field row: 16 cells in 2 lines, one row short.
@example(HEADER + "\n1,10,2024-01-01,Monday,5,0.5,1,0,9\n"
         "1,10,2024-01-02,Tuesday,5,0.5,1\n", 16384)
# Eight empty cells in an otherwise simple block: a blank row, dropped.
@example(HEADER + "\n1,10,2024-01-01,Monday,5,0.5,1,0\n,,,,,,,\n"
         "1,10,2024-01-02,Tuesday,5,0.5,1,0\n", 16384)
# A quoted cell opening on a block's last line and closing in the next.
@example(HEADER + "\n1,10,2024-01-01,Monday,5,0.5,1,0\n"
         "1,10,2024-01-02,Tuesday,5,\"0.5\n\",1,0\n"
         "1,10,2024-01-03,Wednesday,5,0.5,1,0\n", 2)
def test_parse_matches_row_by_row_oracle(text, chunk_rows):
    records, errors, warnings = parse_csv_rows(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domain, "_PARSE_LINES", chunk_rows)
        for source in (text, text.encode("utf-8"),
                       io.BytesIO(text.encode("utf-8"))):
            result = parse_csv(source)
            assert [dataclasses.astuple(o) for o in result.observations] \
                == records
            assert [str(e) for e in result.errors] == errors
            assert [str(w) for w in result.warnings] == warnings


def _spill_as_fit_does(partition, pieces, errors) -> None:
    """Spills ``pieces`` as ``uplift fit`` splits them among processes: the
    header alone, then each piece on its own up to the first that holds a
    quote, and the rest together."""
    partition.spill(itertools.islice(pieces, 1), errors)
    rest = list(pieces)
    quoted = next((i for i, piece in enumerate(rest) if b'"' in piece.data),
                  len(rest))
    for piece in rest[:quoted]:
        partition.spill([piece], errors)
    partition.spill(rest[quoted:], errors)


@settings(max_examples=200, deadline=None)
@given(faulty_csv_documents(), st.sampled_from([1, 2, 7, 16384]),
       st.sampled_from([1, 50, 1 << 20]), st.sampled_from([1, 40, 1 << 18]))
def test_partition_matches_parse_csv(text, chunk_rows, bucket_bytes,
                                     read_bytes):
    # Bucket by bucket, per grouping, the panels that build_panels makes of
    # parse_csv's rows, and parse_csv's issues in another order: sorted by
    # line, they are the same list.
    data = text.encode("utf-8")
    spilled = []
    digest = hashlib.sha256()
    # Each bucket write goes to the part of one of three processes in turn,
    # as the parts of workers interleave.
    pids = itertools.cycle([101, 102, 103])
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as spill:
        patch.setattr(domain, "_PARSE_LINES", chunk_rows)
        expected = parse_csv(data)
        patch.setattr(domain, "BUCKET_BYTES", bucket_bytes)
        patch.setattr(domain, "READ_BYTES", read_bytes)
        source = io.BytesIO(data)
        partition = domain.Partition(Path(spill), len(data))
        with mock.patch.object(domain.os, "getpid", lambda: next(pids)):
            _spill_as_fit_does(partition,
                               domain.read_pieces(source, digest), spilled)
        read = {}
        for group_by in ("sku", "store-sku"):
            errors, warnings = list(spilled), []
            read[group_by] = errors, warnings, [
                partition.panels(bucket, group_by, errors, warnings)
                for bucket in partition.filled()]
    assert partition.buckets == min(domain.MAX_BUCKETS,
                                    -(-len(data) // bucket_bytes))
    assert digest.digest() == hashlib.sha256(data).digest()
    assert source.tell() == len(data)
    skus = expected.table.sku_id
    for group_by, (errors, warnings, buckets) in read.items():
        for found, issues in ((errors, expected.errors),
                              (warnings, expected.warnings)):
            found.sort(key=attrgetter("line"))  # stable
            assert found == list(issues)
        # A bucket's panels keep the first row of each key, as parse_csv
        # does, and are those of all the rows of its SKUs.
        owned = [{panel.sku_id for panel in panels} for panels in buckets]
        for panels, own in zip(buckets, owned):
            assert panels == build_panels(
                expected.table[np.isin(skus, list(own))], group_by)
        assert set(skus.tolist()) <= set().union(*owned)
        assert sum(map(len, owned)) == len(set().union(*owned))


def test_partition_sorts_a_bucket_once(tmp_path, monkeypatch):
    # A bucket of two interleaved parts is ordered, checked and grouped by
    # one lexsort, with no sort by line.
    data = (DATA / "golden_input.csv").read_bytes()
    monkeypatch.setattr(domain, "READ_BYTES", 1 << 14)
    partition = domain.Partition(tmp_path, len(data))
    pids = itertools.cycle([101, 102])
    with mock.patch.object(domain.os, "getpid", lambda: next(pids)):
        _spill_as_fit_does(partition, domain.read_pieces(io.BytesIO(data)),
                           [])
    assert partition.filled() == [0] and len(list(tmp_path.iterdir())) == 2
    sorts = []
    for name in ("lexsort", "argsort", "sort"):
        def counting(*args, _name=name, _sort=getattr(np, name), **kwargs):
            sorts.append(_name)
            return _sort(*args, **kwargs)
        monkeypatch.setattr(np, name, counting)
    panels = partition.panels(0, "sku", [], [])
    assert sorts == ["lexsort"]
    assert panels == build_panels(parse_csv(data).table)


def _any_case(text: str) -> st.SearchStrategy:
    return st.lists(st.booleans(), min_size=len(text), max_size=len(text)
                    ).map(lambda upper: "".join(
                        c.upper() if u else c.lower()
                        for c, u in zip(text, upper)))


def _decimal(value: Fraction, places: int) -> str:
    """``value`` rounded to ``places`` digits after the point, written out
    with no exponent."""
    digits = round(value * 10 ** places)
    text = str(abs(digits)).rjust(places + 1, "0")
    if places:
        text = f"{text[:-places]}.{text[-places:]}"
    return "-" * (digits < 0) + text


# Forecast cells at the edges of _floats's numpy conversion: decimals of
# float64 midpoints (odd multiples of half an ulp), exact where the places
# allow and else rounded near them; mantissas of 1 to 20 digits with up to
# 28 after the point; and cells at the edges of its grammar.
_SIGN = st.sampled_from([1, -1])
_MIDPOINTS = st.builds(
    lambda odd, scale, places, exact, sign: _decimal(
        sign * Fraction(2 * odd + 1) * Fraction(2) ** scale,
        max(0, -scale) if exact else places),
    st.integers(2 ** 52, 2 ** 53 - 1), st.integers(-40, 12),
    st.integers(0, 28), st.booleans(), _SIGN)
_MANTISSAS = st.builds(
    lambda digits, places, sign: _decimal(
        Fraction(sign * digits, 10 ** places), places),
    st.integers(1, 20).flatmap(
        lambda n: st.integers(10 ** (n - 1), 10 ** n - 1)),
    st.integers(0, 28), _SIGN)
_EDGE_FLOATS = ["-0.0", "0.", ".5", "-.5", "0", "-0", "007.50",
                "9" * 18, "9" * 19, "9" * 20, str(2 ** 64 - 1), str(2 ** 64),
                "0." + "0" * 26 + "1", "0." + "0" * 27 + "1",
                "." + "0" * 27 + "1", "-." + "1" * 28,
                "-." + "9" * 27, "1." + "0" * 27, "9007199254740993",
                "75424.4686779525"]

# Cells of each field for the byte path: valid ones, which it must read, and
# near-valid ones, which csv.reader words, reads otherwise or reads alike.
_INTEGER = (st.integers(0, 10 ** 18 - 1).map(str),
            ["+5", "5_0", " 5 ", "٣", "５", "1" * 19, "0" * 18, "-1", "3:",
             "/1", "", "x"])
_CELLS = {
    "store": _INTEGER, "sku": _INTEGER, "stock": _INTEGER,
    "sales": _INTEGER, "discounted_sales": _INTEGER,
    "date": (st.dates().map(dt.date.isoformat),
             ["2023-02-29", "2024-2-01", "0000-01-01", "2024-02-30",
              "2024-13-01", "2024-00-10", "2024-01-00", "2024-01-0:",
              "20240101", " 2024-01-01", "2024/01/01", "2024/01-01",
              "2024-01/01", "2024-W01-1", ""]),
    "weekday": (st.one_of(st.sampled_from(WEEKDAY_NAMES).flatmap(_any_case),
                          st.integers(1, 7).map(str)),
                ["MONDAY", "0", "8", "07", " 1", "Mon", "Mondays", "Noday",
                 "\x11", "ｍonday", "", "wednesdays"]),
    "forecast": (st.one_of(st.floats().map(repr), _MIDPOINTS, _MANTISSAS,
                           st.sampled_from(_EDGE_FLOATS)),
                 ["nan", "1_0.5", " 1.5 ", "", "1e400", "0x10", "+1.5",
                  "١.٥", "1.5.", "Infinity", "-", ".", "1.2.3", "+1",
                  " 1.5", "1e5", "inf", "--1", "1-"]),
    "note": (st.sampled_from(["", "x", "1", " "]), ["é", "a b"]),
}
# Structural faults, each put at any byte of a line.
_INSERTED = {"cr": b"\r", "quote": b'"', "nul": b"\0", "invalid": b"\xff"}


@st.composite
def byte_path_pieces(draw):
    """A header, with the columns in any order and maybe one more, and a
    piece of its body of valid cells, with LF or CRLF line ends, maybe with
    no final line end or, after CRLF, a final CR with no LF. A piece is
    valid, or has one or two faults: a near-valid cell, a blank, short or
    long line, a CR, a quote, a NUL or a byte that is not UTF-8, or a small
    field size limit. Returns the header, the piece, whether it is valid
    (the final lone CR included) and the field size limit to set, if any."""
    names = list(CSV_COLUMNS) + (["note"] if draw(st.booleans()) else [])
    names = draw(st.permutations(names))
    rows = [[draw(_CELLS[name][0]) for name in names]
            for _ in range(draw(st.integers(1, 8)))]
    lines = [",".join(row).encode() for row in rows]
    faults = draw(st.lists(st.sampled_from(
        ["cell", "blank", "short", "extra", "limit", *_INSERTED]),
        max_size=2))
    limit = None
    for fault in faults:
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "cell":
            at = draw(st.integers(0, len(names) - 1))
            rows[i][at] = draw(st.sampled_from(_CELLS[names[at]][1]))
            lines[i] = ",".join(rows[i]).encode("utf-8")
        elif fault == "blank":
            lines[i] = b""
        elif fault == "short":
            lines[i] = lines[i].rpartition(b",")[0]
        elif fault == "extra":
            lines[i] += b",1"
        elif fault == "limit":
            limit = draw(st.integers(1, max(1, *map(len, lines))))
        else:
            k = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:k] + _INSERTED[fault] + lines[i][k:]
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    data = b"".join(line + newline for line in lines)
    if data != newline:
        data = data[:len(data) - draw(st.integers(0, len(newline)))]
    valid = not faults and not data.endswith(b"\r")
    return (",".join(names) + "\n").encode(), data, valid, limit


def _reader_path(columns, piece):
    """The rows, line numbers and issues of ``piece`` on the reader path,
    or None if csv.reader or the UTF-8 decoder refuses it."""
    errors = []
    try:
        blocks = [(table[np.arange(len(table))], lines.copy())
                  for table, lines, _ in domain._records(
                      domain._lines([piece]), columns, piece.line - 1,
                      errors)]
    except (csv.Error, DomainError):
        return None
    return (ObservationTable.concat(table for table, _ in blocks),
            np.concatenate([lines for _, lines in blocks]), errors)


def _check_byte_path(header: bytes, data: bytes, line: int,
                     limit: int | None = None) -> bool:
    """Whether the byte path reads ``data``, a piece of the body under
    ``header`` from ``line`` on, at field size limit ``limit``; if it does,
    it must give the reader path's columns, line numbers and issues."""
    columns, _ = domain._read_header(iter([domain.Piece(header, 1, 0)]),
                                     domain._CANONICAL, [])
    piece = domain.Piece(data, line, 0)
    old = csv.field_size_limit(limit or csv.field_size_limit())
    try:
        converted = columns.from_bytes(piece)
        expected = _reader_path(columns, piece)
    finally:
        csv.field_size_limit(old)
    if converted is None:
        return False
    assert expected is not None
    table, lines = converted
    errors = []
    domain._valid_rows(table, lines, errors)
    expected_table, expected_lines, expected_errors = expected
    for a, b in zip(table.columns(), expected_table.columns()):
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert np.array_equal(lines, expected_lines)
    assert errors == expected_errors
    return True


# Two CRLF lines; the examples end them with a final CR and put a lone CR
# inside a forecast cell.
_CRLF_ROWS = (b"1,2,2024-02-29,thursday,3,0.5,1,0\r\n"
              b"1,3,2024-03-01,Friday,4,1.25,2,1")


@settings(max_examples=400, deadline=None)
@given(byte_path_pieces(), st.integers(2, 1000))
@example((HEADER.encode() + b"\n", b"1,2,2024-02-29,thursday,3,0.5,1,0",
          True, None), 2)
@example((HEADER.encode() + b"\n", _CRLF_ROWS, True, None), 2)
@example((HEADER.encode() + b"\n", _CRLF_ROWS + b"\r", False, None), 2)
@example((HEADER.encode() + b"\n", _CRLF_ROWS.replace(b"0.5", b"0.\r5", 1),
          False, None), 2)
def test_byte_path_equals_the_reader_path_or_declines(drawn, line):
    header, data, valid, limit = drawn
    read = _check_byte_path(header, data, line, limit)
    assert read or not valid
    # CRLF line ends stay on the byte path; a lone CR never does.
    if b"\r" in data.replace(b"\r\n", b""):
        assert not read


@pytest.mark.parametrize("field, cell", [
    *((field, cell.encode()) for field, (_, near) in _CELLS.items()
      for cell in near),
    # A CR, NUL, quote or non-UTF-8 byte where float, the weekday key or
    # an unread column would let it pass.
    ("forecast", b"0.5\r"), ("weekday", b"Monday\0"), ("note", b"\xff"),
    ("note", b"a\rb"), ("note", b'"a"'), ("note", b"\0")])
def test_byte_path_reads_each_near_valid_cell_as_the_reader_path(field,
                                                                 cell):
    # The cell on the middle line of three valid ones.
    cells = dict(zip([*CSV_COLUMNS, "note"], [
        b"1", b"10", b"2024-09-23", b"Monday", b"5", b"0.5", b"1", b"0",
        b"x"]))
    lines = [b",".join(cells.values())] * 3
    cells[field] = cell
    lines[1] = b",".join(cells.values())
    data = b"".join(line + b"\n" for line in lines)
    read = _check_byte_path(HEADER.encode() + b",note\n", data, 2)
    assert read == (cell in (b"MONDAY", b"0" * 18, b"nan", b"1_0.5",
                             b" 1.5 ", b"1e400", b"+1.5", b"Infinity",
                             b"a b", b"+1", b" 1.5", b"1e5", b"inf"))


def _floats_of(cells: list[bytes]) -> np.ndarray | None:
    """``_floats`` of a piece that holds one cell a line."""
    data = np.frombuffer(b"".join(cell + b"\n" for cell in cells), np.uint8)
    stop = np.flatnonzero(data == 10)
    return domain._floats(data, np.concatenate(([0], stop[:-1] + 1)), stop)


# Cells at the edges of _floats's float64 route (_EDGE_FLOATS holds -0, .5
# and 2**53 + 1): 15 and 16 digits, digits of 2**53 and one past it, 22 and
# 23 places, a signed zero and bare points.
_ROUTE_EDGES = ["123456789012345", "1234567890123456", "0.123456789012345",
                "9.999999999999999", str(2 ** 53), "900719925474.0992",
                "900719925474.0993", "0." + "0" * 21 + "1",
                "0." + "0" * 22 + "1", ".00000001062116443042877",
                "0." + "1" * 22, "-0." + "1" * 23,
                "1" + "0" * 22, "-0.", "5.", "-5.", "0.0000"]


@pytest.mark.parametrize("cell", [*_EDGE_FLOATS, *_ROUTE_EDGES, "-", ".",
                                  "1.2.3", "1_0.5", "+1", " 1.5", "1e5",
                                  "nan", "inf", "--1", "1-", "",
                                  "0" * 40 + "1.5", "1" * 40])
@pytest.mark.parametrize("alone", [True, False])
def test_floats_give_the_bits_of_float_or_decline(cell, alone):
    # The cell alone, or between one that takes the float64 route and one
    # that goes to float: the column holds float's bits, or the piece is
    # declined if float refuses.
    cells = ([cell.encode()] if alone
             else [b"2.5", cell.encode(), b"-12.345678901234567"])
    try:
        expected = np.array([float(c) for c in cells])
    except ValueError:
        assert _floats_of(cells) is None
    else:
        assert np.array_equal(_floats_of(cells).view(np.int64),
                              expected.view(np.int64))


def test_floats_send_a_float64_midpoint_quotient_to_float():
    # 754244686779525 / 10**10 rounds, with a 64-bit significand, to a
    # float64 midpoint, which a cast to float64 rounds to even: one ulp off
    # the value float gives. In float64 both operands are exact, so the one
    # division gives float's bits.
    cell = b"75424.4686779525"
    assert _floats_of([cell]).view(np.int64)[0] == \
        np.float64(float(cell)).view(np.int64)


def test_floats_give_the_bits_of_float_on_a_whole_input():
    # The golden input and every edge cell, through parse_csv: each parsed
    # forecast is float of its cell (rows of a negative one are rejected).
    data = (DATA / "golden_input.csv").read_bytes()
    data += b"".join(f"9,9,2024-01-{day:02d},1,5,{cell},1,0\n".encode()
                     for day, cell in enumerate(_EDGE_FLOATS, 1))
    result = parse_csv(data)
    parsed = result.table.forecast
    rejected = {issue.line for issue in result.errors}
    expected = np.array([float(line.split(b",")[5]) for number, line
                         in enumerate(data.splitlines()[1:], 2)
                         if number not in rejected])
    assert len(parsed) > 1000
    assert np.array_equal(parsed.view(np.int64), expected.view(np.int64))


def test_partition_spreads_ids_sharing_a_factor_with_the_bucket_count(
        tmp_path, monkeypatch):
    # sku_id % 10 would put all of 10, 20, ..., 1000 in one of 10 buckets.
    rows = [f"1,{sku},2024-01-01,Monday,5,0.5,1,0"
            for sku in range(10, 1010, 10)]
    data = (HEADER + "\n" + "\n".join(rows) + "\n").encode()
    monkeypatch.setattr(domain, "BUCKET_BYTES", -(-len(data) // 10))
    partition = domain.Partition(tmp_path, len(data))
    partition.spill(domain.read_pieces(io.BytesIO(data)), [])
    rows = [sum(p.n_obs for p in partition.panels(bucket, "sku", [], []))
            for bucket in range(10)]
    assert partition.buckets == 10 and sum(rows) == 100
    assert max(rows) <= 20


def test_parse_rejects_integers_outside_int64():
    result = parse_csv(HEADER + "\n1,10,2024-09-23,Monday,"
                       "99999999999999999999,0.5,1,0\n")
    assert not result.observations
    (error,) = result.errors
    assert (error.line, error.field) == (2, "stock")
    assert "outside the 64-bit integer range" in error.message


class _ReadSpy(io.BytesIO):
    """A binary file that records the size asked of every read and counts
    the bytes its reads deliver."""

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self.sizes: list[int | None] = []
        self.delivered = 0

    def read(self, size=-1):
        self.sizes.append(size)
        data = super().read(size)
        self.delivered += len(data)
        return data

    def read1(self, size=-1):
        self.sizes.append(size)
        data = super().read1(size)
        self.delivered += len(data)
        return data

    def readinto(self, buffer):
        self.sizes.append(len(buffer))
        n = super().readinto(buffer)
        self.delivered += n
        return n

    def getvalue(self):
        raise AssertionError("the whole file was asked for")


def test_parse_reads_a_binary_file_in_bounded_reads():
    panels = generate_study(DgpConfig(seed=4, n_days=730), 60)
    data = serialize_csv(ObservationTable.concat(p.table for p in panels)
                         ).encode("utf-8")
    assert len(data) > 2 * domain.READ_BYTES
    spy = _ReadSpy(data)
    result = parse_csv(spy)
    assert result.table == parse_csv(data).table
    assert len(result.table) == 60 * 730 and not result.errors
    assert all(0 < size <= domain.READ_BYTES for size in spy.sizes), \
        sorted(set(spy.sizes), key=str)
    assert spy.delivered == len(data)  # one pass over the file
    assert not spy.closed and spy.tell() == len(data)


def test_parse_result_holds_no_growth_slack():
    # 5,000 rows grow the columns to 8,192 rows; the result holds only the
    # bytes of its rows.
    panels = generate_study(DgpConfig(seed=4, n_days=100), 50)
    data = serialize_csv(ObservationTable.concat(p.table for p in panels)
                         ).encode("utf-8")
    tracemalloc.start()
    try:
        result = parse_csv(data)
        rows = sum(column.nbytes for column in result.table.columns())
        held = tracemalloc.get_traced_memory()[0]
        del result
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows == 5000 * 64
    assert rows <= held <= rows + 4096, held


GOLDEN_INPUT = Path(__file__).parent / "data" / "golden_input.csv"


@pytest.mark.parametrize("at, bad", [
    (0, b"\xff"),  # in the header
    (70_000, b"\xe9"),  # past 64 KiB, a latin-1 e-acute
    (8191, "\u00e9".encode("utf-8") + b"\xff"),  # after a character split
    # across the decoder's reads
    (None, b"\xe2\x82"),  # a character cut short by the end of the file
])
def test_parse_names_the_line_and_byte_of_invalid_utf8(at, bad):
    golden = GOLDEN_INPUT.read_bytes()
    at = len(golden) if at is None else at
    data = golden[:at] + bad + golden[at:]
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    start = whole.value.start
    line = data[:start].count(b"\n") + 1
    expected = (f"line {line}, byte {start}: "
                f"can't decode byte 0x{data[start]:02x}: {whole.value.reason}")
    for source in (data, io.BytesIO(data)):
        with pytest.raises(DomainError) as raised:
            parse_csv(source)
        assert str(raised.value) == expected


def test_parse_names_the_line_and_byte_of_a_lone_surrogate():
    # A str is read as its UTF-8 bytes, and a lone surrogate encodes to
    # bytes that are not UTF-8: the document is refused, as bytes would be.
    text = HEADER + "\n1,1,2024-01-01,Monday,5,0.5\ud800,1,0\n"
    with pytest.raises(DomainError) as raised:
        parse_csv(text)
    assert str(raised.value) == ("line 2, byte 88: can't decode byte 0xed: "
                                 "invalid continuation byte")


# --- columnar representation -------------------------------------------------

def _grouped_by_dict(observations, per_store):
    """Panels as (sku, store or -1, rows) by dict grouping and sorting."""
    groups = {}
    for obs in observations:
        key = (obs.sku_id, obs.store_id if per_store else -1)
        groups.setdefault(key, []).append(obs)
    return [(sku, store, sorted(rows, key=lambda o: (o.date, o.store_id)))
            for (sku, store), rows in sorted(groups.items())]


@settings(max_examples=150, deadline=None)
@given(observation_lists(), st.sampled_from(["sku", "store-sku"]))
def test_build_panels_table_equals_observation_list(observations, group_by):
    table = ObservationTable.from_observations(observations)
    panels = build_panels(table, group_by=group_by)
    expected = _grouped_by_dict(observations, group_by == "store-sku")
    assert [(p.sku_id, -1 if p.store_id is None else p.store_id,
             list(p.observations)) for p in panels] == expected
    for panel, (_, _, rows) in zip(panels, expected):
        ds = panel.table.discounted_sales
        assert np.flatnonzero(ds == 0).tolist() == \
            [i for i, o in enumerate(rows) if o.discounted_sales == 0]
        assert np.flatnonzero(ds >= 1).tolist() == \
            [i for i, o in enumerate(rows) if o.discounted_sales >= 1]
        assert (panel.n_plain, panel.n_disc) == (
            sum(o.discounted_sales == 0 for o in rows),
            sum(o.discounted_sales >= 1 for o in rows))


def _absorbed_by_rows(panel, indices, names):
    """The named fields of the panel's rows at ``indices``, each minus its
    mean over those rows of the same weekday: the weekday's values added one
    after another from 0.0, then divided by their count."""
    rows = [panel.observations[i] for i in indices]
    totals, counts = {}, {}
    for obs in rows:
        counts[obs.weekday] = counts.get(obs.weekday, 0) + 1
        for name in names:
            key = obs.weekday, name
            totals[key] = totals.get(key, 0.0) + float(getattr(obs, name))
    return np.array([[float(getattr(obs, name))
                      - totals[obs.weekday, name] / counts[obs.weekday]
                      for name in names] for obs in rows]), counts


def test_design_bytes_equal_per_row_reference():
    from discount_uplift.synth import DgpConfig, generate_panel
    from discount_uplift.two_step import _absorb

    # Two panels of different lengths in one batch: the shorter one's
    # design is zero-padded to the longer one's rows.
    panels = [generate_panel(DgpConfig(seed=5, n_days=days), sku_id=3)
              for days in (120, 90)]
    for stage in (lambda ds: ds == 0, lambda ds: ds >= 1):
        for names in (("forecast", "stock", "sales"),
                      ("forecast", "stock", "discounted_sales", "sales")):
            indices = [np.flatnonzero(stage(p.table.discounted_sales))
                       for p in panels]
            fit = np.repeat([0, 1], [len(i) for i in indices])
            lengths, design, counts, _, _ = _absorb(
                fit, 2, np.concatenate([p.table.weekday[i] for p, i
                                        in zip(panels, indices)]),
                [np.concatenate([getattr(p.table, name)[i] for p, i
                                 in zip(panels, indices)]) for name in names])
            assert design.dtype == np.float64
            assert design.shape == (len(names), 2, len(indices[0]))
            assert lengths.tolist() == [len(i) for i in indices]
            for b, (panel, index) in enumerate(zip(panels, indices)):
                expected, by_weekday = _absorbed_by_rows(
                    panel, index.tolist(), names)
                rows = np.ascontiguousarray(design[:, b, :len(index)].T)
                assert rows.tobytes() == expected.tobytes()
                assert not design[:, b, len(index):].any()
                assert counts[b].tolist() == [by_weekday.get(day, 0)
                                              for day in range(1, 8)]


def test_views_construct_no_observation(monkeypatch):
    text = HEADER + "\n" \
        "1,10,2024-09-23,Monday,5,0.5,1,0\n" \
        "1,10,2024-09-24,Tuesday,5,0.5,2,2\n" \
        "2,11,2024-09-24,Tuesday,5,0.5,2,0\n"
    result = parse_csv(text)
    built = []
    original = Observation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Observation, "__init__", counting_init)
    assert len(result.observations) == 3
    panels = build_panels(result.table)
    assert [p.n_obs for p in panels] == [2, 1]
    assert built == []
    assert result.observations[-1].store_id == 2
    assert built == [1]


@pytest.mark.parametrize("weekday", [0, 8])
def test_panel_rejects_weekday_outside_range(weekday):
    obs = Observation(store_id=1, sku_id=1, date=dt.date(2024, 1, 7),
                      weekday=weekday, stock=5, forecast=1.0, sales=1,
                      discounted_sales=0)
    table = ObservationTable.from_observations([obs])
    with pytest.raises(DomainError, match="outside 1..7"):
        SkuPanel(1, table)
    with pytest.raises(DomainError, match="outside 1..7"):
        build_panels(table)


_INT64_EDGES = [-2**63, -2**63 + 1, -1, 0, 1, 9, 10, 2**31, 2**63 - 1]


@st.composite
def writer_tables(draw):
    n = draw(st.integers(0, 40))
    ints = st.lists(st.one_of(st.sampled_from(_INT64_EDGES),
                              st.integers(-2**63, 2**63 - 1),
                              st.integers(0, 12)), min_size=n, max_size=n)
    forecasts = st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e16,
                         1.7976931348623157e308, float("nan"), float("inf"),
                         float("-inf")]),
        st.floats(allow_nan=True, allow_infinity=True)),
        min_size=n, max_size=n)
    dates = st.lists(st.one_of(
        st.sampled_from([dt.date(1, 1, 1), dt.date(9999, 12, 31)]),
        st.dates()), min_size=n, max_size=n)
    weekdays = st.lists(st.integers(1, 7), min_size=n, max_size=n)
    return list(zip(draw(ints), draw(ints), draw(dates), draw(weekdays),
                    draw(ints), draw(forecasts), draw(ints), draw(ints)))


@settings(max_examples=150, deadline=None)
@given(writer_tables(), st.sampled_from([1, 3, 7, 16384]),
       st.sampled_from(["table", "list", "generator"]))
def test_serialize_matches_csv_writer(rows, chunk_rows, form):
    observations = [Observation(*row) for row in rows]
    source = {"table": lambda: ObservationTable.from_observations(observations),
              "list": lambda: observations,
              "generator": lambda: (o for o in observations)}[form]()
    with mock.patch.object(domain, "_CHUNK_ROWS", chunk_rows):
        text = serialize_csv(source)
    assert isinstance(text, str)
    assert text == csv_writer_text(rows)


def test_serialize_writes_every_weekday_and_the_empty_table():
    rows = [(1, 2, dt.date(2024, 1, 1) + dt.timedelta(days=i), i % 7 + 1, 3,
             0.5, 2, 1) for i in range(7)]
    text = serialize_csv(Observation(*row) for row in rows)
    assert text == csv_writer_text(rows)
    assert [line.split(",")[3] for line in text.splitlines()[1:]] == \
        list(WEEKDAY_NAMES)
    assert serialize_csv(ObservationTable.empty()) == HEADER + "\n"
    assert serialize_csv(iter(())) == HEADER + "\n"
