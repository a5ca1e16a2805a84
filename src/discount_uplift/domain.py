"""Core data types, CSV ingestion and SKU-panel construction.

A dataset is a flat collection of store/SKU/day records, held as one
:class:`ObservationTable`: a numpy array per field. A source of CSV
text is read once, in pieces of whole lines (:func:`read_pieces`), and
converted by one loop (:func:`_body`), which :func:`parse_csv` and
:meth:`Partition.spill` run: a piece at a time from its bytes, or, where
that path declines, decoded (:func:`_lines`) and read by ``csv.reader``.
Each converted block is a fresh table that goes straight to its user, and
:func:`csv_blocks` renders a table a slice of rows at a time; no buffer
regroups rows in between. Panels are contiguous slices of a
table sorted by SKU, built only from tables; each splits its days into
discount-free days and days with at least one discounted sale, and is the
unit of work for the two-step estimation.
:class:`Observation` is the per-record view of a table row; it is built
only when a caller asks for an element.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import add, attrgetter, itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

import numpy as np

WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
                 "Saturday", "Sunday")
_WEEKDAY_BY_NAME = {name.lower(): i + 1 for i, name in enumerate(WEEKDAY_NAMES)}

CSV_COLUMNS = ("store", "sku", "date", "weekday", "stock", "forecast",
               "sales", "discounted_sales")
_CANONICAL = {name: name for name in CSV_COLUMNS}

# Rows converted per block in serialisation and row views.
_CHUNK_ROWS = 16384
# Lines that csv.reader reads and converts per block in ingestion.
_PARSE_LINES = 4096
# Bytes per read of a binary source, which read_pieces cuts into pieces of
# whole lines of at most this size (unless a line is longer). Each piece is
# converted whole, so pieces are kept small: a worker of `uplift fit` holds
# one at a time.
READ_BYTES = 1 << 18
# `uplift fit` spills the rows of a file to one bucket per BUCKET_BYTES of
# it, and to at most MAX_BUCKETS. A MiB of the CSV that `uplift simulate`
# writes is about 20,000 rows, 28 two-year panels (24 to 34 per bucket of
# a 500-SKU file): one study batch, which holds up to 55 such panels
# (two_step.BATCH_FITS and BATCH_ROWS).
BUCKET_BYTES = 1 << 20
MAX_BUCKETS = 256
# A row's bucket is the high half of sku_id * _MIX (mod 2**64), modulo the
# bucket count: a multiplicative hash, so that ids sharing a factor with
# the count, such as multiples of 10 or 100, still fill every bucket.
_MIX = np.uint64(0x9E3779B97F4A7C15)
_EPOCH = dt.date(1970, 1, 1)
_INT64 = np.iinfo(np.int64)


class DomainError(ValueError):
    """Invalid input to a domain operation."""


@dataclass(frozen=True, slots=True)
class Observation:
    """One store-SKU-day record.

    ``stock`` is the number of units available at the start of the day,
    ``forecast`` the externally supplied demand forecast for the day,
    ``sales`` the units sold and ``discounted_sales`` the subset of sales
    made at a reduced price. ``weekday`` is 1 (Monday) .. 7 (Sunday) and is
    the model's source of truth, not the calendar date.
    """

    store_id: int
    sku_id: int
    date: dt.date
    weekday: int
    stock: int
    forecast: float
    sales: int
    discounted_sales: int


_FIELDS = tuple(f.name for f in fields(Observation))
_DTYPES = {name: np.int64 for name in _FIELDS}
_DTYPES.update(date=np.dtype("datetime64[D]"), forecast=np.float64)
# A spilled row: the fields, then its line number.
_RECORD = np.dtype([*_DTYPES.items(), ("line", np.int64)])


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Observations as columns: one 1-D array per :class:`Observation`
    field, in the same order. ``date`` is ``datetime64[D]``, ``forecast``
    float64 and every other column int64.

    Indexing with a slice or an index array gives another table (a slice
    shares memory with this one); :meth:`observation` builds one row as an
    :class:`Observation`. Tables compare equal when every column does.
    """

    store_id: np.ndarray
    sku_id: np.ndarray
    date: np.ndarray
    weekday: np.ndarray
    stock: np.ndarray
    forecast: np.ndarray
    sales: np.ndarray
    discounted_sales: np.ndarray

    def __post_init__(self) -> None:
        for name in _FIELDS:
            column = np.asarray(getattr(self, name), dtype=_DTYPES[name])
            if column.ndim != 1 or column.shape != (len(self.store_id),):
                raise DomainError("table columns must be 1-D and equally long")
            object.__setattr__(self, name, column)

    @classmethod
    def empty(cls) -> ObservationTable:
        return cls(*(np.empty(0, dtype=_DTYPES[name]) for name in _FIELDS))

    @classmethod
    def concat(cls, tables: Iterable[ObservationTable]) -> ObservationTable:
        tables = list(tables)
        if not tables:
            return cls.empty()
        return cls(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in _FIELDS))

    @classmethod
    def from_observations(cls, observations: Iterable[Observation]
                          ) -> ObservationTable:
        """Convert records to columns, a block of rows at a time."""
        getter = attrgetter(*_FIELDS)
        records = iter(observations)
        parts = []
        while chunk := list(itertools.islice(records, _CHUNK_ROWS)):
            columns = dict(zip(_FIELDS, zip(*map(getter, chunk))))
            days = [(d - _EPOCH).days for d in columns["date"]]
            columns["date"] = np.array(days, dtype=np.int64).view(
                _DTYPES["date"])
            parts.append(cls(**columns))
        return cls.concat(parts)

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _FIELDS)

    def __len__(self) -> int:
        return len(self.store_id)

    def __getitem__(self, key) -> ObservationTable:
        return ObservationTable(*(column[key] for column in self.columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObservationTable):
            return NotImplemented
        return all(np.array_equal(a, b)
                   for a, b in zip(self.columns(), other.columns()))

    def observation(self, index: int) -> Observation:
        return Observation(*(column[index].item() for column in self.columns()))


class ObservationView(Sequence):
    """Read-only ``Sequence[Observation]`` over a table.

    ``len`` is O(1). An element is built as an :class:`Observation` when it
    is accessed and is not cached, so iterating a view costs no memory that
    outlives the iteration. Views compare equal to views and tuples with
    equal elements.
    """

    __slots__ = ("table",)

    def __init__(self, table: ObservationTable) -> None:
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ObservationView(self.table[key])
        index = range(len(self.table))[key]  # IndexError, negatives
        return self.table.observation(index)

    def __iter__(self) -> Iterator[Observation]:
        for start in range(0, len(self.table), _CHUNK_ROWS):
            block = self.table[start:start + _CHUNK_ROWS]
            yield from itertools.starmap(
                Observation, zip(*(column.tolist()
                                   for column in block.columns())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObservationView):
            return self.table == other.table
        if isinstance(other, tuple):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


# The record invariants, in the order a row's breaches are reported: (field,
# breach test, message). A test reads its record's fields by name, so it
# gives a bool for an Observation and a row mask for an ObservationTable; a
# message is formatted with the Observation as ``r``.
_INVARIANTS = (
    ("weekday", lambda r: (r.weekday < 1) | (r.weekday > 7),
     "weekday {r.weekday} outside 1..7"),
    ("stock", lambda r: r.stock < 0, "stock must be non-negative"),
    ("forecast", lambda r: ~np.isfinite(r.forecast),
     "forecast must be finite"),
    ("forecast", lambda r: (r.forecast < 0) & np.isfinite(r.forecast),
     "forecast must be non-negative"),
    ("sales", lambda r: r.sales < 0, "sales must be non-negative"),
    ("discounted_sales", lambda r: r.discounted_sales < 0,
     "discounted sales must be non-negative"),
    ("discounted_sales", lambda r: r.discounted_sales > r.sales,
     "discounted sales {r.discounted_sales} exceed sales {r.sales}"),
    ("sales", lambda r: r.sales > r.stock,
     "sales {r.sales} exceed opening stock {r.stock}"),
)


def observation_violations(obs: Observation) -> list[tuple[str, str]]:
    """Return (field, message) pairs for every violated record invariant."""
    return [(name, message.format(r=obs))
            for name, breach, message in _INVARIANTS if breach(obs)]


def _violated(table: ObservationTable) -> np.ndarray:
    """Rows breaking an :func:`observation_violations` invariant."""
    return np.logical_or.reduce([breach(table)
                                 for _, breach, _ in _INVARIANTS])


@dataclass(frozen=True, slots=True)
class RowIssue:
    """A line-numbered problem found during ingestion."""

    line: int
    field: str
    message: str

    def __str__(self) -> str:
        return f"line:{self.line} field:{self.field} {self.message}"


def _duplicate_issue(line: int, obs: Observation) -> RowIssue:
    return RowIssue(line, "row",
                    f"duplicate entry for store {obs.store_id} "
                    f"sku {obs.sku_id} date {obs.date.isoformat()}")


def _weekday_issue(line: int, obs: Observation) -> RowIssue:
    return RowIssue(
        line, "weekday",
        f"weekday column says {WEEKDAY_NAMES[obs.weekday - 1]} but "
        f"{obs.date.isoformat()} is a "
        f"{WEEKDAY_NAMES[obs.date.isoweekday() - 1]}; using the column")


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Accepted rows as a table plus line-ordered errors and warnings."""

    table: ObservationTable
    errors: tuple[RowIssue, ...]
    warnings: tuple[RowIssue, ...]

    @property
    def observations(self) -> ObservationView:
        return ObservationView(self.table)

    @property
    def ok(self) -> bool:
        return not self.errors


def _parse_weekday(raw: str) -> int:
    text = raw.strip()
    if text.lower() in _WEEKDAY_BY_NAME:
        return _WEEKDAY_BY_NAME[text.lower()]
    value = int(text)
    if not 1 <= value <= 7:
        raise ValueError(f"weekday {value} outside 1..7")
    return value


def _parse_day(raw: str) -> int:
    """Days since 1970-01-01 of an ISO date."""
    return (dt.date.fromisoformat(raw.strip()) - _EPOCH).days


def _parse_int64(raw: str) -> int:
    value = int(raw)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{value} is outside the 64-bit integer range")
    return value


class _Distinct(dict):
    """Memo of a conversion over distinct strings; a failed conversion is
    not stored and raises again."""

    def __init__(self, convert: Callable) -> None:
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


# How a cell that does not convert is reported, in the order a row's errors
# are listed: (field, reported field, words, stops the row). A bad id, date
# or weekday is the row's only error; each bad number is reported.
_MALFORMED = (
    ("store_id", "store/sku", "malformed id", True),
    ("sku_id", "store/sku", "malformed id", True),
    ("date", "date", "malformed date", True),
    ("weekday", "weekday", "malformed weekday", True),
    ("stock", "stock", "malformed integer", False),
    ("sales", "sales", "malformed integer", False),
    ("discounted_sales", "discounted_sales", "malformed integer", False),
    ("forecast", "forecast", "malformed number", False),
)


class _Columns:
    """Converts the body of a CSV of observations into a table and the line
    number of each row, each field read from its header position: a piece
    at a time from its bytes (:meth:`from_bytes`), or a block of records
    that ``csv.reader`` read (:meth:`records`)."""

    def __init__(self, position: Mapping[str, int], n_fields: int) -> None:
        self.n_fields = n_fields
        self.shortest = max(position.values()) + 1
        # The delimiters of a line on the byte path: a comma after each
        # cell, a newline after the last.
        self.delimiters = np.array([44] * (n_fields - 1) + [10], np.uint8)
        # Per field: cell position and converter. Ids, counts, dates and
        # weekdays take few distinct values and are memoised; forecasts are
        # all distinct.
        converters = [_Distinct(_parse_int64).__getitem__ for _ in _FIELDS]
        converters[2] = _Distinct(_parse_day).__getitem__
        converters[3] = _Distinct(_parse_weekday).__getitem__
        converters[5] = float
        self.fields = list(zip(_FIELDS, (position[column] for column
                                         in CSV_COLUMNS), converters))

    def from_bytes(self, piece: Piece
                   ) -> tuple[ObservationTable, np.ndarray] | None:
        """The rows of ``piece`` and their line numbers, converted from its
        bytes with numpy (a forecast with ``float`` where :func:`_floats`
        cannot be sure of ``float``'s bits); or None, declining the piece,
        unless its bytes, each CRLF read as LF, are ASCII with no quote,
        lone CR or NUL, each line holds one cell per header field and is no
        longer than ``csv.field_size_limit()``, and each cell converts as
        :data:`_FROM_BYTES` reads its field. What is converted equals what
        :meth:`records` gives for the same lines."""
        data = piece.data
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n")
        data = data if data.endswith(b"\n") else data + b"\n"
        if (not data.isascii() or b'"' in data or b"\r" in data
                or b"\0" in data):
            return None
        data = np.frombuffer(data, np.uint8)
        n = self.n_fields
        stop = np.flatnonzero((data == 44) | (data == 10))  # after each cell
        if len(stop) % n or (data[stop].reshape(-1, n)
                             != self.delimiters).any():
            return None
        ends = stop[n - 1::n]  # each line's newline
        if np.diff(ends, prepend=-1).max() > csv.field_size_limit():
            return None
        columns = []
        for name, at, _ in self.fields:
            before = stop[at - 1::n] if at else \
                np.concatenate(([-1], ends[:-1]))  # the last line's newline
            column = _FROM_BYTES[name](data, before + 1, stop[at::n])
            if column is None:
                return None
            columns.append(column)
        columns[2] = columns[2].view(_DTYPES["date"])
        return ObservationTable(*columns), piece.line + np.arange(len(ends))

    def records(self, rows: list[list[str]], lines: np.ndarray,
                errors: list[RowIssue]
                ) -> tuple[ObservationTable, np.ndarray]:
        """The records read by ``csv.reader``, numbered by ``lines``, that
        convert, and their line numbers. A short row is worded, unless
        blank, and dropped; each other row that does not convert, unless
        blank, gets its line-numbered errors in ``errors`` and is dropped.

        Each column is converted at once; only a column that fails is
        converted again cell by cell, to find and word its bad cells."""
        if min(map(len, rows)) < self.shortest:
            full = np.fromiter(map(len, rows), np.int64) >= self.shortest
            for i in np.flatnonzero(~full).tolist():
                if any(map(str.strip, rows[i])):  # else a blank row
                    errors.append(RowIssue(int(lines[i]), "row", f"expected "
                                           f"{self.n_fields} fields, got "
                                           f"{len(rows[i])}"))
            rows = list(itertools.compress(rows, full))
            lines = lines[full]
        n = len(lines)
        failed: dict[tuple[int, str], ValueError] = {}
        columns = []
        for name, at, convert in self.fields:
            cells = list(map(itemgetter(at), rows))
            dtype = np.float64 if name == "forecast" else np.int64
            try:
                column = np.fromiter(map(convert, cells), dtype, count=n)
            except ValueError:
                column = np.zeros(n, dtype)
                for i, cell in enumerate(cells):
                    try:
                        column[i] = convert(cell.strip())
                    except ValueError as exc:
                        failed[i, name] = exc
            columns.append(column)
        columns[2] = columns[2].view(_DTYPES["date"])
        table = ObservationTable(*columns)
        if failed:
            bad = sorted({i for i, _ in failed})
            for i in bad:
                if not any(map(str.strip, rows[i])):
                    continue  # a blank row
                for name, reported, words, stops in _MALFORMED:
                    if (i, name) in failed:
                        errors.append(RowIssue(int(lines[i]), reported,
                                               f"{words}: {failed[i, name]}"))
                        if stops:
                            break
            keep = np.ones(n, dtype=bool)
            keep[bad] = False
            table, lines = table[keep], lines[keep]
        return table, lines


# The byte path's converters, one per field: each takes the bytes of a
# piece and the bounds of a column's cells (the offset of each cell's first
# byte and of the delimiter after it), and gives the column, or None unless
# every cell is one that the reader path converts to the same value.

def _integers(data: np.ndarray, start: np.ndarray, stop: np.ndarray
              ) -> np.ndarray | None:
    """Cells of 1 to 18 ASCII digits, as int64."""
    size = stop - start
    if size.min() < 1 or size.max() > 18:
        return None
    value = np.zeros(len(size), np.int64)
    for j in range(int(size.max())):  # the j-th digit from the right
        digit = np.where(j < size, data[np.maximum(stop - 1 - j, start)]
                         - np.uint8(48), 0)
        if digit.max() > 9:
            return None
        value += digit * _TENS[j]
    return value


def _days(data: np.ndarray, start: np.ndarray, stop: np.ndarray
          ) -> np.ndarray | None:
    """Dates ``DDDD-DD-DD`` of a real calendar day from year 1 on, as days
    since 1970-01-01: the days are converted back to their month, which
    must be the one read."""
    if (stop - start != 10).any() or (data[start + 4] != 45).any() \
            or (data[start + 7] != 45).any():
        return None
    digit = [data[start + k] - np.uint8(48) for k in (0, 1, 2, 3, 5, 6, 8, 9)]
    if max(d.max() for d in digit) > 9:
        return None
    year, month, day = (np.dot(_TENS[k - 1::-1], digit[i:i + k])
                        for i, k in ((0, 4), (4, 2), (6, 2)))
    months = (year - 1970) * 12 + month - 1
    days = months.astype("M8[M]").astype("M8[D]").view(np.int64) + day - 1
    back = days.view("M8[D]").astype("M8[M]").view(np.int64)
    if not ((year >= 1) & (month >= 1) & (month <= 12)
            & (back == months)).all():
        return None
    return days


def _weekdays(data: np.ndarray, start: np.ndarray, stop: np.ndarray
              ) -> np.ndarray | None:
    """Weekday names in any ASCII case, or digits 1 to 7, as 1..7."""
    size = stop - start
    if size.max() > 9:
        return None
    keys = np.zeros((len(size), 9), np.uint8)  # NUL past each cell's end
    for j in range(int(size.max())):
        keys[:, j] = np.where(j < size,
                              _LOWER[data[np.minimum(start + j, stop)]], 0)
    keys = keys.view("S9")[:, 0]
    at = np.searchsorted(_DAY_KEYS, keys).clip(max=len(_DAY_KEYS) - 1)
    if (_DAY_KEYS[at] != keys).any():
        return None
    return _DAY_OF_KEY[at]


def _floats(data: np.ndarray, start: np.ndarray, stop: np.ndarray
            ) -> np.ndarray | None:
    """Cells that ``float`` converts, as ``float`` converts them. A cell
    ``[-]digits[.digits]`` of at most :data:`_WIDTH` bytes after its sign,
    with at most 22 digits after the point and its digits (the point read
    as a 0) at most 2**53, is ``w / 10**k`` with both exact in float64: it
    is read as :func:`_integers` reads and divided once, which IEEE 754
    rounds correctly on every platform (Clinger, PLDI 1990). Other cells go
    to :func:`_float_cells`."""
    # Past its first byte a cell reads as 0s; so does its sign.
    negative = data[start] == 45
    read = data.copy()
    read[start[negative]] = 44
    size, last, floor = stop - start - negative, stop - 1, start - 1
    slow = size > _WIDTH
    full, top = np.zeros((2, len(start)), np.uint64)  # top: largest digit
    points, k = np.zeros((2, len(start)), np.intp)  # k: the point's place
    for j in range(min(int(size.max()), _WIDTH)):
        byte = read.take(np.maximum(last - j, floor))
        digit = _DIGIT.take(byte)
        np.maximum(top, digit, out=top)
        point = byte == 46
        points += point
        np.copyto(k, j, where=point)
        if j < 19:
            full += np.multiply(digit, _WIDE_TENS[j], out=digit)
        else:  # full would reach 10**19
            slow |= digit > 0
    slow |= (top > 9) | (points > 1) | (size <= points) | (k > 22)
    # Without the point's 0: full // 10**e is the part before the point.
    e = np.where(points > 0, np.minimum(k, 18) + 1, 19)
    w = full - np.uint64(9) * _WIDE_TENS[e - 1] * (full // _WIDE_TENS[e])
    slow |= w > _EXACT
    value = w.astype(np.float64) / _FLOAT_TENS[np.minimum(k, 22)]
    np.negative(value, out=value, where=negative)
    if slow.any():
        cells = _float_cells(data, start[slow], stop[slow])
        if cells is None:
            return None
        value[slow] = cells
    return value


def _float_cells(data: np.ndarray, start: np.ndarray, stop: np.ndarray
                 ) -> np.ndarray | None:
    """Cells that ``float`` converts, as float64: the cells' bytes are
    gathered, each with its delimiter, and split there."""
    # Per cell, the bytes since the last cell's delimiter, then the cell
    # and its delimiter.
    runs = np.empty((len(start), 2), np.int64)
    runs[:, 0] = start
    runs[1:, 0] -= stop[:-1] + 1
    runs[:, 1] = stop + 1 - start
    inside = np.repeat(np.tile([False, True], len(start)), runs.ravel())
    cells = data[:len(inside)][inside].tobytes()
    try:
        return np.fromiter(map(float, cells.split(bytes([data[stop[0]]]))),
                           np.float64, count=len(start))
    except ValueError:
        return None


_FROM_BYTES = dict.fromkeys(_FIELDS, _integers)
_FROM_BYTES.update(date=_days, weekday=_weekdays, forecast=_floats)
# The weekday cells of the byte path, lower-cased and sorted, and the day
# of each; the ASCII lower case of each byte; and the powers of ten below
# 10**18.
_DAY_CELLS = {**_WEEKDAY_BY_NAME, **{str(day): day for day in range(1, 8)}}
_DAY_KEYS = np.array(sorted(_DAY_CELLS), dtype="S9")
_DAY_OF_KEY = np.array([_DAY_CELLS[key] for key in sorted(_DAY_CELLS)])
_LOWER = np.arange(256, dtype=np.uint8)
_LOWER[ord("A"):ord("Z") + 1] += 32
_TENS = 10 ** np.arange(18, dtype=np.int64)
# For _floats: the longest cell it converts in numpy ("0." and 22 digits)
# after a sign; each byte's digit (0 for the point and the delimiters, 10
# for any other byte); the powers of ten below 2**64; 2**53, up to which
# float64 holds every integer; and 10**0 to 10**22, exact in float64.
_WIDTH = 24
_DIGIT = np.array([b - 48 if 48 <= b < 58 else 10 * (b not in b"\n,.")
                   for b in range(256)], np.uint64)
_WIDE_TENS = 10 ** np.arange(20, dtype=np.uint64)
_EXACT = np.uint64(2 ** 53)
_FLOAT_TENS = np.array([float(10 ** k) for k in range(23)])


@dataclass(frozen=True, slots=True)
class Piece:
    """Consecutive whole lines of a document: their bytes, the number of
    the first line and the offset of its first byte."""

    data: bytes
    line: int
    byte: int


def read_pieces(source: BinaryIO, digest=None) -> Iterator[Piece]:
    """The bytes of ``source`` from its current position to its end, as
    pieces of whole lines: the first line alone, then as many lines as fit
    in :data:`READ_BYTES` (or one longer line), and last whatever follows
    the last newline. ``source`` is read in order, with ``readinto`` calls
    of at most :data:`READ_BYTES`, each fed to ``digest`` (a :mod:`hashlib`
    object) if one is given, so that the digest covers exactly the bytes
    the pieces hold."""
    buffer = bytearray(READ_BYTES)
    read = memoryview(buffer)
    # The bytes after the last newline so far; a read tops them up to
    # READ_BYTES, or to a multiple of it while a line is longer.
    held, line, byte = b"", 1, 0
    while n := source.readinto(read[:READ_BYTES - len(held) % READ_BYTES]):
        if digest is not None:
            digest.update(read[:n])
        if line == 1:
            end = buffer.find(b"\n", 0, n) + 1
        else:
            end = buffer.rfind(b"\n", 0, n) + 1 \
                if len(held) + n >= READ_BYTES else 0
        if not end:
            held += read[:n]
            continue
        piece = b"".join((held, read[:end]))
        yield Piece(piece, line, byte)
        # Four times the speed of bytes.count, which tests byte by byte.
        line += int(np.count_nonzero(np.frombuffer(piece, np.uint8) == 10))
        byte += len(piece)
        held = bytes(read[end:n])
    if held:
        yield Piece(held, line, byte)


def _lines(pieces: Iterable[Piece]) -> Iterator[str]:
    """The lines of consecutive ``pieces``, each decoded from UTF-8 whole and
    split after each newline only: ``str.splitlines`` would split at carriage
    returns too, and shift line numbers. A byte that is not UTF-8 raises
    :class:`DomainError`, naming its line and byte offset in the document."""
    for piece in pieces:
        try:
            text = piece.data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = piece.line + piece.data.count(b"\n", 0, exc.start)
            raise DomainError(
                f"line {line}, byte {piece.byte + exc.start}: can't decode "
                f"byte 0x{piece.data[exc.start]:02x}: {exc.reason}") from exc
        *lines, last = text.split("\n")
        yield from map(add, lines, itertools.repeat("\n"))
        if last:
            yield last


# A block of converted rows: the rows, their line numbers and the mask of
# those that keep every record invariant.
_Block = tuple[ObservationTable, np.ndarray, np.ndarray]


def parse_csv(source: str | bytes | BinaryIO,
              schema: Mapping[str, str] | None = None) -> ParseResult:
    """Parse a CSV of observations, collecting errors instead of failing fast.

    ``source`` is the document as ``str`` or UTF-8 ``bytes``, or a binary
    file of UTF-8 text, read from its current position, such as
    ``open(path, "rb")`` or ``io.BytesIO``; a ``str`` is encoded to UTF-8
    first, and read as a file is. A file is never held whole: it is read
    once, in reads of at most :data:`READ_BYTES`, and converted a piece of
    whole lines at a time (:func:`read_pieces`). Bytes that are not UTF-8,
    a lone surrogate's included, raise :class:`DomainError`; the message
    names the line and the byte offset of the first bad byte. A file is
    left open, at the end of what was read.

    ``schema`` maps the canonical column names (:data:`CSV_COLUMNS`) to the
    actual header names; omitted entries default to the canonical name.
    Header matching is case-insensitive. Every row independently yields an
    observation or line-numbered :class:`RowIssue` errors, reported in line
    order; a weekday column that disagrees with the calendar date is
    reported as a warning only, because the weekday column is authoritative.

    The body goes through the loop that ``uplift fit`` runs (see
    :func:`_body`). Each block's rows that keep the record invariants are
    appended to one array per column, grown geometrically and cut to its
    rows at the end; duplicate keys and weekday mismatches are then found
    on the whole columns, in one panel order (:func:`_unique_rows`), and
    worded per offending row. A byte-order mark before the header is
    ignored.
    """
    colmap = dict(_CANONICAL)
    if schema:
        unknown = set(schema) - set(CSV_COLUMNS)
        if unknown:
            raise DomainError(f"unknown schema keys: {sorted(unknown)}")
        colmap.update(schema)
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    errors: list[RowIssue] = []
    # Per column (the fields, then the line numbers): the valid rows so far,
    # the first ``n`` of an array that doubles when full.
    columns = [np.empty(_PARSE_LINES, dtype)
               for dtype in (*_DTYPES.values(), np.int64)]
    n = 0
    header = _read_header(read_pieces(source), colmap, errors)
    for table, lines, valid in header[1] if header else ():
        end = n + int(np.count_nonzero(valid))
        for i, column in enumerate((*table.columns(), lines)):
            if end > len(columns[i]):  # one column copied at a time
                grown = np.empty(max(end, 2 * len(columns[i])), column.dtype)
                grown[:n] = columns[i][:n]
                columns[i] = grown
            columns[i][n:end] = column[valid]
        n = end
    for i in range(len(columns)):  # one at a time, each without its slack
        columns[i] = columns[i][:n].copy()
    table = ObservationTable(*columns[:-1])
    lines = columns[-1]
    warnings: list[RowIssue] = []
    kept = _unique_rows(table, lines, "sku", errors, warnings)
    for issues in errors, warnings:  # stable: a line's errors keep order
        issues.sort(key=attrgetter("line"))
    if len(kept) < len(table):
        table = table[np.sort(kept)]
    return ParseResult(table, tuple(errors), tuple(warnings))


def _read_header(pieces: Iterator[Piece], colmap: Mapping[str, str],
                 errors: list[RowIssue]
                 ) -> tuple[_Columns, Iterator[_Block]] | None:
    """Reads the header from the first of ``pieces``, consecutive pieces of
    a document (:func:`read_pieces`): returns the converter of the body,
    with each canonical column read from the header column ``colmap``
    names, and the blocks of the body (:func:`_body`). Returns None, after
    adding the header's issues to ``errors``, if the text is empty or a
    column is missing. A header that holds a quote may run into the next
    lines, so its body is read from the same text by :func:`_records`."""
    head = next(pieces, None)
    quoted = head is not None and b'"' in head.data
    text = _lines(itertools.chain([head] if head else [],
                                  pieces if quoted else []))
    first = next(text, "").removeprefix("\ufeff")  # a byte-order mark
    reader = csv.reader(itertools.chain([first] if first else [], text))
    try:
        header = next(reader)
    except StopIteration:
        errors.append(RowIssue(1, "header", "empty file"))
        return None
    position: dict[str, int] = {}
    lowered = [h.strip().lower() for h in header]
    for name, column in colmap.items():
        try:
            position[name] = lowered.index(column.lower())
        except ValueError:
            errors.append(RowIssue(1, column, "missing column"))
    if len(position) < len(colmap):
        return None
    columns = _Columns(position, len(header))
    if quoted:
        return columns, _records(text, columns, reader.line_num, errors)
    return columns, _body(pieces, columns, errors)


def _body(pieces: Iterable[Piece], columns: _Columns,
          errors: list[RowIssue]) -> Iterator[_Block]:
    """Converts the lines of ``pieces``, consecutive pieces of the body of a
    document (:func:`read_pieces`), into the header's ``columns``. Yields
    the rows of each piece, or of each block of a piece, their line numbers
    and the mask of the rows that keep every record invariant; every issue
    found is added to ``errors``.

    A piece is converted whole from its bytes if :meth:`_Columns.from_bytes`
    takes it. One it declines goes alone to :func:`_records`, since no
    record runs across a line without a quote; from the first piece that
    holds a quote, the rest of the body does, since a quoted record may
    run into the next pieces."""
    pieces = iter(pieces)
    for piece in pieces:
        if b'"' in piece.data:
            yield from _records(_lines(itertools.chain([piece], pieces)),
                                columns, piece.line - 1, errors)
        elif (block := columns.from_bytes(piece)) is not None:
            yield *block, _valid_rows(*block, errors)
        else:
            yield from _records(_lines([piece]), columns, piece.line - 1,
                                errors)


def _records(text: Iterator[str], columns: _Columns, line: int,
             errors: list[RowIssue]) -> Iterator[_Block]:
    """Converts the lines of ``text``, numbered from ``line + 1``, with
    ``csv.reader``, a block of :data:`_PARSE_LINES` lines at a time, as
    :func:`_body` does; ``csv.reader`` reads a quoted record whole even
    when it runs into the following lines. :meth:`_Columns.records` words
    short rows, drops blank ones and words the cells that do not convert.
    """
    while chunk := list(itertools.islice(text, _PARSE_LINES)):
        reader = csv.reader(itertools.chain(chunk, text))
        rows, ends = [], []
        for row in reader:
            rows.append(row)
            ends.append(reader.line_num)
            if reader.line_num >= len(chunk):
                break
        table, lines = columns.records(
            rows, line + np.array(ends, dtype=np.int64), errors)
        line += reader.line_num
        yield table, lines, _valid_rows(table, lines, errors)


def _valid_rows(table: ObservationTable, lines: np.ndarray,
                errors: list[RowIssue]) -> np.ndarray:
    """Mask of the rows that keep every record invariant; each breach of
    the others is added to ``errors``."""
    violated = _violated(table)
    for i in np.flatnonzero(violated).tolist():
        for name, message in observation_violations(table.observation(i)):
            errors.append(RowIssue(int(lines[i]), name, message))
    return ~violated


def _unique_rows(table: ObservationTable, lines: np.ndarray, group_by: str,
                 errors: list[RowIssue], warnings: list[RowIssue]
                 ) -> np.ndarray:
    """The positions of the rows of ``table``, numbered by ``lines``, that
    repeat no earlier line's key, in panel order (:func:`_panel_order`).
    Each repeat goes to ``errors``, and each row kept whose weekday
    disagrees with its date to ``warnings``."""
    order = _panel_order(table, lines, group_by)
    s, k, d, w = (column[order] for column in (
        table.store_id, table.sku_id, table.date, table.weekday))
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (k[1:] != k[:-1]) | (d[1:] != d[:-1])
    mismatch = keep & (w != (d.view(np.int64) + 3) % 7 + 1)  # 1970-01-01: Thu
    for issues, rows, issue in ((errors, ~keep, _duplicate_issue),
                                (warnings, mismatch, _weekday_issue)):
        for i in order[rows].tolist():
            issues.append(issue(int(lines[i]), table.observation(i)))
    return order[keep]


class Partition:
    """The rows of a CSV of observations that ``uplift fit`` accepts,
    spilled to bucket files in ``directory``: a row goes to the bucket its
    ``sku_id`` hashes to, so every row of a SKU lands in one bucket. There is
    one bucket per :data:`BUCKET_BYTES` of an input of ``size`` bytes, and
    at most :data:`MAX_BUCKETS`.

    Any number of processes spill into one partition, each a run of pieces
    of the input at a time (:meth:`spill`), to a part of each bucket of its
    own (``bucket-{b}.{pid}``). Each block of converted rows is appended as
    it comes, as raw records of the observation fields and the line number
    (72 bytes a row), one write per bucket it has rows for. Any process
    reads a bucket back whole, as panels (:meth:`panels`).
    """

    def __init__(self, directory: Path, size: int) -> None:
        self.directory = directory
        self.buckets = min(MAX_BUCKETS, max(1, -(-size // BUCKET_BYTES)))
        # The header's converter, once a spill has read the header; a
        # process forked after that shares it.
        self.columns: _Columns | None = None

    def spill(self, pieces: Iterable[Piece], errors: list[RowIssue]) -> None:
        """Converts the lines of ``pieces``, consecutive pieces of the input
        (:func:`read_pieces`), with the loop of :func:`parse_csv`
        (:func:`_body`), and spills the rows that keep every record
        invariant; every issue found is added to ``errors``. Until a spill
        has read the header, the pieces start with it; the input's columns
        are those of :data:`CSV_COLUMNS`, named by the header in any
        order."""
        pieces = iter(pieces)
        if self.columns is None:
            header = _read_header(pieces, _CANONICAL, errors)
            if header is None:
                return
            self.columns, blocks = header
        else:
            blocks = _body(pieces, self.columns, errors)
        for block in blocks:
            self.append(*block)

    def append(self, table: ObservationTable, lines: np.ndarray,
               keep: np.ndarray) -> None:
        """Appends the ``keep`` rows of ``table``, numbered by ``lines``, to
        this process's parts."""
        buckets = self.buckets
        mixed = (table.sku_id.view(np.uint64) * _MIX) >> np.uint64(32)
        bucket = np.where(keep, mixed % np.uint64(buckets), buckets
                          ).astype(np.int64)
        counts = np.bincount(bucket, minlength=buckets + 1)
        order = np.argsort(bucket, kind="stable")[:len(bucket) - counts[-1]]
        records = np.empty(len(order), dtype=_RECORD)
        for name, column in zip(_FIELDS, table.columns()):
            records[name] = column[order]
        records["line"] = lines[order]
        start = (np.cumsum(counts) - counts).tolist()
        for b in np.flatnonzero(counts[:-1]).tolist():
            path = self.directory / f"bucket-{b}.{os.getpid()}"
            with open(path, "ab", buffering=0) as out:
                out.write(records[start[b]:start[b + 1]])

    def filled(self) -> list[int]:
        """The buckets that hold rows, in order."""
        return sorted({int(name[len("bucket-"):].partition(".")[0])
                       for name in os.listdir(self.directory)
                       if name.startswith("bucket-")})

    def panels(self, bucket: int, group_by: str, errors: list[RowIssue],
               warnings: list[RowIssue]) -> tuple[SkuPanel, ...]:
        """:func:`build_panels` of the rows of ``bucket`` that
        :func:`parse_csv` keeps, from the one sort of :func:`_unique_rows`;
        repeats go to ``errors`` and weekday mismatches to ``warnings``."""
        parts = [np.fromfile(self.directory / name, dtype=_RECORD)
                 for name in os.listdir(self.directory)
                 if name.startswith(f"bucket-{bucket}.")]
        records = parts[0] if len(parts) == 1 else \
            np.concatenate(parts or [np.empty(0, _RECORD)])
        table = ObservationTable(*(records[name] for name in _FIELDS))
        return _sliced(table[_unique_rows(table, records["line"], group_by,
                                          errors, warnings)], group_by)


def _strings(column: np.ndarray, convert: Callable = str) -> list[str]:
    """``convert`` of every element of an int64 column, called once per
    entry of a lookup table: each value of the column's range when the
    range is shorter than the column, else each distinct value."""
    low, high = int(column.min()), int(column.max())
    if high - low < len(column):
        strings = np.array([convert(value) for value in range(low, high + 1)],
                           dtype=object)
        return strings[column - low].tolist()
    distinct, inverse = np.unique(column, return_inverse=True)
    return np.array([convert(value) for value in distinct.tolist()],
                    dtype=object)[inverse].tolist()


def _iso_day(day: int) -> str:
    return (_EPOCH + dt.timedelta(days=day)).isoformat()


def csv_blocks(tables: Iterable[ObservationTable]) -> Iterator[str]:
    """The canonical CSV of the rows of ``tables``, lazily: the header line,
    then the text of each block of at most ``_CHUNK_ROWS`` rows. The tables
    are read after the header, and joined into one unless there is one.

    The text is what ``csv.writer`` writes with newline line endings: no
    integer, ISO date, weekday name or float ``repr`` needs quoting. A block
    is rendered column by column, integers and dates through a table of
    their strings and forecasts with ``repr``.
    """
    names = np.array(WEEKDAY_NAMES, dtype=object)
    yield ",".join(CSV_COLUMNS) + "\n"
    tables = list(tables)
    rows = tables[0] if len(tables) == 1 else ObservationTable.concat(tables)
    for start in range(0, len(rows), _CHUNK_ROWS):
        block = rows[start:start + _CHUNK_ROWS]
        columns = (_strings(block.store_id), _strings(block.sku_id),
                   _strings(block.date.view(np.int64), _iso_day),
                   names[block.weekday - 1].tolist(), _strings(block.stock),
                   list(map(repr, block.forecast.tolist())),
                   _strings(block.sales), _strings(block.discounted_sales))
        yield "\n".join(map(",".join, zip(*columns))) + "\n"


def serialize_csv(observations: Iterable[Observation] | ObservationTable
                  ) -> str:
    """Render observations in the canonical CSV schema (round-trip safe).

    ``observations`` is a table or any iterable of :class:`Observation`.
    The text is the concatenation of :func:`csv_blocks` on the one table,
    which is rendered a block of rows at a time; writing those blocks as
    they come gives the same bytes without holding the whole text.
    """
    if not isinstance(observations, ObservationTable):
        observations = ObservationTable.from_observations(observations)
    return "".join(csv_blocks([observations]))


@dataclass(frozen=True, slots=True)
class SkuPanel:
    """All observations of one SKU, partitioned by discount activity.

    ``table`` holds the panel's rows in order. ``n_disc`` counts its days
    with at least one discounted sale and ``n_plain`` those with none.
    ``observations`` gives the rows as a sequence of :class:`Observation`.
    ``store_id`` is set only when panels were grouped per store-SKU pair.
    Every weekday must lie in 1..7, since the estimator groups each stage's
    rows by weekday.
    """

    sku_id: int
    table: ObservationTable
    store_id: int | None = None
    n_plain: int = field(init=False, repr=False, compare=False)
    n_disc: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weekday = self.table.weekday
        outside = weekday[(weekday < 1) | (weekday > 7)]
        if outside.size:
            raise DomainError(f"sku {self.sku_id}: weekday {outside[0]} "
                              "outside 1..7")
        ds = self.table.discounted_sales
        object.__setattr__(self, "n_plain", int(np.count_nonzero(ds == 0)))
        object.__setattr__(self, "n_disc", int(np.count_nonzero(ds >= 1)))

    @property
    def observations(self) -> ObservationView:
        return ObservationView(self.table)

    @property
    def n_obs(self) -> int:
        return len(self.table)

    @property
    def key(self) -> tuple[int, int]:
        return (self.sku_id, -1 if self.store_id is None else self.store_id)


def _panel_order(table: ObservationTable, lines: np.ndarray, group_by: str
                 ) -> np.ndarray:
    """The positions of the rows of ``table`` in panel order: by SKU, then
    by store and date per store-SKU pair, or by date and store when pooling
    stores, and last by ``lines``. Rows of one (store, sku, date) key are
    adjacent under either order."""
    if group_by not in ("sku", "store-sku"):
        raise DomainError("group_by must be 'sku' or 'store-sku', got "
                          f"{group_by!r}")
    keys = ((table.date, table.store_id) if group_by == "store-sku"
            else (table.store_id, table.date))
    return np.lexsort((lines, *keys, table.sku_id))


def _sliced(table: ObservationTable, group_by: str) -> tuple[SkuPanel, ...]:
    """The panels of ``table``, whose rows are in panel order: one slice per
    SKU, or per store-SKU pair."""
    per_store = group_by == "store-sku"
    sku, store = table.sku_id, table.store_id
    change = sku[1:] != sku[:-1]
    if per_store:
        change |= store[1:] != store[:-1]
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), len(table)]
    return tuple(
        SkuPanel(sku_id=int(sku[a]), table=table[a:b],
                 store_id=int(store[a]) if per_store else None)
        for a, b in zip(bounds[:-1], bounds[1:]) if b > a)


def build_panels(table: ObservationTable, group_by: str = "sku"
                 ) -> tuple[SkuPanel, ...]:
    """Group a table's rows into per-SKU (or per store-SKU) panels.

    Observations within a panel are ordered by (date, store); panels are
    ordered by SKU id (then store id). Store-day rows of the same SKU are
    kept as separate observations when pooling stores. Rows with equal sort
    keys keep their input order. Each panel's table is a slice of one
    sorted copy of the input.
    """
    rows = np.arange(len(table))
    order = _panel_order(table, rows, group_by)
    return _sliced(table if np.array_equal(order, rows) else table[order],
                   group_by)


@dataclass(frozen=True, slots=True)
class EligibilityRule:
    """Minimum data requirements for a panel to enter the study."""

    min_entries: int = 100
    min_discount_days: int = 50

    def __post_init__(self) -> None:
        if not self.min_entries >= self.min_discount_days >= 1:
            raise DomainError(
                "eligibility rule requires min_entries >= min_discount_days >= 1, "
                f"got {self.min_entries} and {self.min_discount_days}")


class ExclusionReason(str, Enum):
    TOO_FEW_ENTRIES = "too_few_entries"
    TOO_FEW_DISCOUNT_DAYS = "too_few_discount_days"


@dataclass(frozen=True, slots=True)
class ExcludedPanel:
    panel: SkuPanel
    reason: ExclusionReason


def filter_eligible(panels: Iterable[SkuPanel],
                    rule: EligibilityRule = EligibilityRule(),
                    ) -> tuple[tuple[SkuPanel, ...], tuple[ExcludedPanel, ...]]:
    """Split panels into eligible ones and excluded ones with a reason.

    A panel is eligible iff it has at least ``min_entries`` observations and
    at least ``min_discount_days`` days with a discounted sale (both bounds
    inclusive). When both conditions fail the entry count is reported.
    """
    eligible: list[SkuPanel] = []
    excluded: list[ExcludedPanel] = []
    for panel in panels:
        if panel.n_obs < rule.min_entries:
            excluded.append(ExcludedPanel(panel, ExclusionReason.TOO_FEW_ENTRIES))
        elif panel.n_disc < rule.min_discount_days:
            excluded.append(ExcludedPanel(panel,
                                          ExclusionReason.TOO_FEW_DISCOUNT_DAYS))
        else:
            eligible.append(panel)
    return tuple(eligible), tuple(excluded)
