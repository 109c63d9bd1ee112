"""Daily return panels: ingestion, slicing, and synthetic generation.

This is the package's one file-format module. Its three numeric text
formats share one decode step (strict UTF-8) and one value grammar (ASCII
decimal or exponent floats, parsed by numpy's ``loadtxt``); a malformed
file raises :class:`ParseError` naming the line. A large file's rows are
parsed in contiguous chunks, one per CPU, with the bits and errors of a
serial parse. :func:`parse_real`, :func:`parse_integer` and
:meth:`DateRange.parse` apply the same rules to one token, for the command
line's flags and config values.

- Industry-portfolio text (whitespace-separated, banner lines around a
  block of date-first rows, values in percent, -99.99 / -999 as missing
  codes) is read by :func:`load_french`.
- The canonical CSV panel (header ``date,<asset>...``, decimal values,
  empty cell = missing) is read and written by :func:`load_csv` /
  :func:`write_csv`; headerless row-major matrix CSV by
  :func:`read_matrix_csv` / :func:`write_matrix_csv`. Both round-trip exactly.

All dates are YYYYMMDD integers and all stored returns are daily simple
returns in decimal form.
"""

from __future__ import annotations

import codecs
import datetime
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._fanout import fan_out, split
from .errors import EmptyPanel, NonMonotonicDates, ParseError
from .model import TRADING_DAYS_PER_YEAR, ModelParams

__all__ = [
    "DateRange",
    "ReturnPanel",
    "load_french",
    "load_csv",
    "write_csv",
    "read_matrix_csv",
    "write_matrix_csv",
    "synthetic_panel",
]

#: Sentinel values used for missing observations in the industry text files.
MISSING_CODES = (-99.99, -999.0)

#: Bytes of a file decoded and split into lines at a time.
_READ_BYTES = 1 << 20

#: Fewest cells worth a parse lane of its own. On a 2-CPU Linux host the
#: blank-cell pass and the grammar took 0.31 us a cell (170 ms for the
#: 540k cells of a 47-asset, 11,465-day panel), and a two-lane fan-out cost
#: 7-10 ms, so a lane of 100,000 cells saves about three times its cost.
#: That panel gets two lanes; a 5,040-day, 11-industry text file (60k
#: cells) stays serial, since two lanes of 2,520 rows took its load from
#: 7.8 to 13.2 ms.
_MIN_PARSE_CELLS = 100_000

#: Rows one lane passes through the blank-cell pass and the grammar at a
#: time. Whole-chunk passes hold a chunk's text and tokens at once: over
#: four loads and backtests of that 47-asset panel on two lanes, they took
#: the calling process's peak RSS from 66 to 75 MB and a worker's from 53
#: to 66 MB, at the same speed.
_PARSE_BLOCK_ROWS = 1024


def _possible_dates(dates):
    """Whether YYYYMMDD integers (one or an array) are calendar dates with
    year 1000-9999, in the proleptic Gregorian calendar."""
    dates = np.asarray(dates, dtype=np.int64)
    year, month, day = dates // 10000, dates // 100 % 100, dates % 100
    # months since numpy's 1970-01 epoch; a bad month is clipped only so the
    # arithmetic stays defined, and in_range rejects it
    first =((year - 1970) * 12 + np.clip(month, 1, 12) - 1).astype("datetime64[M]")
    month_days = (first + 1).astype("datetime64[D]") - first.astype("datetime64[D]")
    in_range = (10000101 <= dates) & (dates <= 99991231) & (1 <= month) & (month <= 12)
    return in_range & (1 <= day) & (day <= month_days.astype(np.int64))


def _check_yyyymmdd(value: int, what: str) -> int:
    value = int(value)
    if not 10000101 <= value <= 99991231:
        raise ValueError(f"{what} {value!r} is not an 8-digit YYYYMMDD date")
    if not _possible_dates(value):
        raise ValueError(f"{what} {value!r} has an impossible month or day")
    return value


@dataclass(frozen=True)
class DateRange:
    """Inclusive date interval, both ends YYYYMMDD integers."""

    start: int
    end: int

    def __post_init__(self):
        object.__setattr__(self, "start", _check_yyyymmdd(self.start, "start"))
        object.__setattr__(self, "end", _check_yyyymmdd(self.end, "end"))
        if self.start > self.end:
            raise ValueError(f"start {self.start} is after end {self.end}")

    @classmethod
    def parse(cls, text: str) -> "DateRange":
        """Parse 'YYYYMMDD-YYYYMMDD' (or a single date, meaning one day); each
        date is 8 ASCII digits, as in the loaders."""
        parts = [part.strip() for part in text.split("-")]
        if len(parts) > 2 or not all(map(_is_date_token, parts)):
            raise ValueError(f"cannot parse date range {text!r}: want YYYYMMDD[-YYYYMMDD]")
        dates = [parse_integer(part) for part in parts]
        return cls(dates[0], dates[-1])


@dataclass(frozen=True)
class ReturnPanel:
    """Immutable date-by-asset matrix of daily simple returns.

    ``missing_mask`` is True where no observation exists; masked cells hold
    NaN and must never reach an estimation window. Unmasked returns are
    finite decimals (a 1% day is 0.01), converted from percent exactly once
    at load time.

    ``returns`` is stored asset-major (Fortran order), whatever the layout
    given: each asset's series is contiguous, so the transpose of any run of
    rows is an (assets, rows) array with contiguous rows, the layout the
    covariance kernel reads. The same values therefore give the same bits.
    """

    dates: np.ndarray
    assets: tuple[str, ...]
    returns: np.ndarray
    missing_mask: np.ndarray

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype=np.int64)
        returns = np.asfortranarray(self.returns, dtype=float)
        mask = np.asarray(self.missing_mask, dtype=bool)
        assets = tuple(str(a) for a in self.assets)
        for arr in (dates, returns, mask):
            arr.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "missing_mask", mask)

        if dates.ndim != 1 or returns.ndim != 2 or mask.shape != returns.shape:
            raise ValueError("panel arrays have inconsistent shapes")
        if returns.shape[0] != dates.size or returns.shape[1] != len(assets):
            raise ValueError("panel arrays have inconsistent shapes")
        if len(set(assets)) != len(assets):
            raise ValueError("asset names must be unique")
        if dates.size == 0 or len(assets) == 0:
            raise EmptyPanel("panel has no rows or no assets")
        if dates.size > 1 and not np.all(np.diff(dates) > 0):
            i = int(np.flatnonzero(np.diff(dates) <= 0)[0])
            raise NonMonotonicDates(
                f"dates not strictly increasing: {dates[i]} then {dates[i + 1]}"
            )
        impossible = np.flatnonzero(~_possible_dates(dates))
        if impossible.size:
            _check_yyyymmdd(dates[impossible[0]], "date")  # raises as DateRange would
        if not np.all(np.isfinite(returns[~mask])):
            raise ValueError("panel contains non-finite unmasked returns")

    @property
    def n_dates(self) -> int:
        return int(self.dates.size)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def slice(self, date_range: DateRange) -> "ReturnPanel":
        """Rows with start <= date <= end; asset set unchanged."""
        keep = (self.dates >= date_range.start) & (self.dates <= date_range.end)
        if not np.any(keep):
            raise EmptyPanel(
                f"no panel dates in {date_range.start}-{date_range.end}"
            )
        return self._rows(keep)

    def take_rows(self, start: int, stop: int) -> "ReturnPanel":
        """Positional row slice [start, stop), mirroring numpy indexing."""
        if not 0 <= start < stop <= self.n_dates:
            raise ValueError(f"bad row slice [{start}, {stop})")
        return self._rows(slice(start, stop))

    def _rows(self, index) -> "ReturnPanel":
        """The rows selected by a slice or boolean mask, without re-validation.

        A row subset of a validated panel is valid: dates stay increasing,
        shapes match and unmasked cells stay finite. Only emptiness can
        arise, and it raises EmptyPanel as the constructor would.
        """
        dates = self.dates[index]
        if dates.size == 0:
            raise EmptyPanel("panel has no rows or no assets")
        panel = object.__new__(ReturnPanel)
        for name, arr in (
            ("dates", dates),
            ("returns", np.asfortranarray(self.returns[index])),
            ("missing_mask", self.missing_mask[index]),
        ):
            arr.setflags(write=False)
            object.__setattr__(panel, name, arr)
        object.__setattr__(panel, "assets", self.assets)
        return panel

    def drop_assets(self, names) -> "ReturnPanel":
        """Remove the named assets, preserving the order of the rest."""
        names = set(names)
        unknown = names - set(self.assets)
        if unknown:
            raise ValueError(f"unknown asset names: {sorted(unknown)}")
        keep = [i for i, a in enumerate(self.assets) if a not in names]
        if not keep:
            raise EmptyPanel("dropping those assets leaves an empty panel")
        return ReturnPanel(
            dates=self.dates,
            assets=tuple(self.assets[i] for i in keep),
            returns=self.returns[:, keep],
            missing_mask=self.missing_mask[:, keep],
        )


# -- the numeric text reader ----------------------------------------------------
# Python's float() and int() never see user text, whether file cells, flags
# or config values: they also read underscores and non-ASCII digits, so
# typos would run silently as other numbers.

def read_lines(path) -> list[str]:
    """The lines of a text file decoded as strict UTF-8, split as
    ``str.splitlines`` splits them; a byte that is not UTF-8 raises
    ParseError naming its line.

    The file is decoded ``_READ_BYTES`` at a time, and each piece is split
    up to its last newline, which ends a line whatever follows it, so the
    whole file's bytes and text are never held beside its lines.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    lines, tail = [], ""
    with open(path, "rb") as fh:
        try:
            while block := fh.read(_READ_BYTES):
                text = tail + decode(block)
                cut = text.rfind("\n") + 1
                lines += text[:cut].splitlines()
                tail = text[cut:]
            return lines + (tail + decode(b"", final=True)).splitlines()
        except UnicodeDecodeError:
            fh.seek(0)
            raw = fh.read()
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"{path} is not UTF-8: byte 0x{raw[exc.start]:02x}", line) from None


def _grammar(rows: list[str], delimiter: str | None, width: int) -> np.ndarray | None:
    """``rows`` as a (len(rows), width) float array, or None if a row has
    another field count or a token that is not an ASCII decimal or exponent
    float (``nan`` and ``inf`` included)."""
    if not rows:
        return np.empty((0, width))
    try:
        values = np.loadtxt(rows, delimiter=delimiter, comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(rows), width) else None


def parse_real(token: str) -> float:
    """One number by the grammar; surrounding whitespace is ignored."""
    values = _grammar([token], ",", 1) if token.strip() else None  # loadtxt warns on blanks
    if values is None:
        raise ValueError(f"could not convert string to float: {token!r}")
    return values.item()


def parse_integer(token: str) -> int:
    """An optional sign, then ASCII digits; surrounding whitespace is ignored."""
    digits = token.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", digits):
        raise ValueError(f"could not convert string to integer: {token!r}")
    return int(digits)


def _is_date_token(token: str) -> bool:
    """The date rule: 8 ASCII digits."""
    return len(token) == 8 and token.isascii() and token.isdigit()


def _blank_cells_to_nan(rows: list[str]) -> list[str]:
    """CSV rows with each cell that is empty or only spaces and tabs written
    as ``nan``, since the grammar rejects blank tokens."""
    text = "\n".join(rows)
    if " " in text or "\t" in text:  # one-character scans are the fast ones
        blanks = (" ,", ", ", "\t,", ",\t")
        while any(blank in text for blank in blanks):
            for blank in blanks:
                text = text.replace(blank, ",")
    text = text.replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
    return (text + "nan" if text.endswith(",") else text).split("\n")


def _row_error(row: str, delimiter: str | None, width: int, missing_ok: bool) -> str:
    """Why one data row fails: its field count, else its first bad token."""
    cells = row.split(delimiter)
    if len(cells) != width:
        return f"{len(cells)} entries, not {width}"
    for token in (cell.strip(" \t") for cell in cells):
        if missing_ok and not token:
            continue
        try:
            value = parse_real(token)
        except ValueError as exc:
            return str(exc)
        if not (np.isfinite(value) or missing_ok and np.isnan(value)):
            return f"non-finite entry in {row.strip()!r}"
    return f"cannot parse {row.strip()!r}"


def _parsed_chunk(rows, delimiter, width, missing_ok, chunk: range) -> np.ndarray | None:
    """``rows[chunk]`` by the grammar, ``_PARSE_BLOCK_ROWS`` rows at a time,
    or None if a row breaks it; never raises on the data."""
    values = np.empty((len(chunk), width))
    for start in range(chunk.start, chunk.stop, _PARSE_BLOCK_ROWS):
        block = rows[start : min(start + _PARSE_BLOCK_ROWS, chunk.stop)]
        parsed = _grammar(_blank_cells_to_nan(block) if missing_ok else block, delimiter, width)
        if parsed is None:
            return None
        values[start - chunk.start : start - chunk.start + len(block)] = parsed
    return values


def _parse_rows(rows, line_numbers, delimiter, width, missing_ok=False, where="") -> np.ndarray:
    """Data rows as a (len(rows), width) float array, by the grammar.

    ``rows[k]`` is file line ``line_numbers[k]``. With ``missing_ok`` (the
    CSV panel) blank cells and NaN read as NaN; otherwise every value must
    be finite. The first row that breaks a rule raises ParseError naming
    its line; a row the grammar rejects is found by re-running it on halves.

    Each row is read on its own, so a file of at least two lanes' worth of
    ``_MIN_PARSE_CELLS`` cells is parsed in contiguous chunks of rows, one
    per CPU, and the chunks' arrays are joined in order: the values have the
    same bits at any lane count. If a chunk breaks the grammar, this process
    looks for the bad row over the whole file, as a serial run does.
    """
    chunks = split(range(len(rows)), -(-_MIN_PARSE_CELLS // width))
    parts = fan_out(chunks, partial(_parsed_chunk, rows, delimiter, width, missing_ok))
    if all(part is not None for part in parts):
        values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    else:
        tokens = _blank_cells_to_nan(rows) if missing_ok else rows
        good, bad = 0, len(rows)  # tokens[:good] parse, tokens[:bad] do not
        while bad - good > 1:
            mid = (good + bad) // 2
            if _grammar(tokens[good:mid], delimiter, width) is None:
                bad = mid
            else:
                good = mid
        values = _grammar(tokens[:good], delimiter, width)
    not_allowed = np.isinf(values) if missing_ok else ~np.isfinite(values)
    k = int(next(iter(np.flatnonzero(not_allowed.any(axis=1))), len(values)))
    if k == len(rows):
        return values
    raise ParseError(where + _row_error(rows[k], delimiter, width, missing_ok), line_numbers[k])


def _dated_rows(rows, line_numbers, delimiter, width, missing_ok=False):
    """Panel rows led by a YYYYMMDD date token that is a calendar date, in
    strictly increasing order: (dates, values)."""
    firsts = [row.split(delimiter, 1)[0].strip() for row in rows]
    d = next((k for k, tok in enumerate(firsts) if not _is_date_token(tok)), len(rows))
    values = _parse_rows(rows[:d], line_numbers, delimiter, width, missing_ok)
    dates = values[:, 0].astype(np.int64)
    k = int(next(iter(np.flatnonzero(~_possible_dates(dates))), d))
    if k < len(rows):
        message = f"impossible date {dates[k]:08d}" if k < d else f"bad date {firsts[d]!r}"
        raise ParseError(message, line_numbers[k])
    k = int(next(iter(np.flatnonzero(dates[1:] <= dates[:-1])), d - 1)) + 1
    if k < d:
        message = f"dates not strictly increasing: {dates[k - 1]} then {dates[k]}"
        raise NonMonotonicDates(f"line {line_numbers[k]}: {message}")
    return dates, values[:, 1:]


def _asset_names(names: list[str], line_number: int) -> tuple[str, ...]:
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(f"asset name {name!r} appears twice", line_number)
    return tuple(names)


def _is_data_line(line: str) -> bool:
    first = line.split(None, 1)[:1]
    return bool(first) and len(first[0]) == 8 and first[0].isdigit()


def load_french(path, drop_assets=()) -> ReturnPanel:
    """Read a daily industry-portfolio text file into a ReturnPanel.

    The file is banner lines, then a header of asset names, then rows of
    ``YYYYMMDD`` followed by one percent return per asset. Only the first
    data block is read, up to its first blank line (these files append
    equal-weighted and annual blocks after the daily value-weighted one).
    Values equal to -99.99 or -999 are recorded as missing; all others are
    divided by 100 exactly once. The ``drop_assets`` are removed as by
    :meth:`ReturnPanel.drop_assets`; take a date range with
    :meth:`ReturnPanel.slice`.
    """
    lines = read_lines(path)
    first = next((i for i, line in enumerate(lines) if _is_data_line(line)), None)
    if first is None:
        raise ParseError("no data rows (date-first lines) found", len(lines) or 1)
    end = next((i for i in range(first, len(lines)) if not lines[i].strip()), len(lines))

    above = next((i for i in range(first - 1, -1, -1) if lines[i].strip()), -1)
    header = lines[above].split() if above >= 0 else []
    n_cols = len(lines[first].split()) - 1
    if len(header) == n_cols + 1:
        # Some exports label the date column; drop that label.
        header = header[1:]
    if len(header) != n_cols:
        message = f"header has {len(header)} asset names but data rows have {n_cols} return columns"
        raise ParseError(message, first + 1)
    assets = _asset_names(header, above + 1)

    dates, values = _dated_rows(lines[first:end], range(first + 1, end + 1), None, n_cols + 1)
    mask = np.isin(values, MISSING_CODES)
    returns = np.asfortranarray(values)  # asset-major once: ReturnPanel keeps it
    returns /= 100.0
    np.copyto(returns, np.nan, where=mask)
    panel = ReturnPanel(dates=dates, assets=assets, returns=returns, missing_mask=mask)
    if drop_assets:
        panel = panel.drop_assets(drop_assets)
    return panel


def load_csv(path) -> ReturnPanel:
    """Read the canonical CSV format: header 'date,<asset>...', decimal values.

    Empty cells, cells of spaces and tabs, and 'nan' in any case are missing
    observations.
    """
    lines = read_lines(path)
    if not lines or not lines[0].strip():
        raise ParseError("file is empty", 1)

    header = [cell.strip() for cell in lines[0].split(",")]
    if len(header) < 2 or header[0].lower() != "date":
        raise ParseError("header must be 'date,<asset names...>'", 1)
    assets = _asset_names(header[1:], 1)

    numbers = [i for i in range(2, len(lines) + 1) if lines[i - 1].strip()]
    if not numbers:
        raise ParseError("no data rows", max(2, len(lines)))
    rows = [lines[i - 1] for i in numbers]
    dates, values = _dated_rows(rows, numbers, ",", len(header), missing_ok=True)
    mask = np.isnan(values)
    returns = np.asfortranarray(values)  # asset-major once: ReturnPanel keeps it
    np.copyto(returns, np.nan, where=mask)  # one NaN for every spelling of a missing cell
    return ReturnPanel(dates=dates, assets=assets, returns=returns, missing_mask=mask)


def write_csv(panel: ReturnPanel, path) -> None:
    """Write the canonical CSV format; round-trips through load_csv exactly.

    Values use shortest round-trip decimal formatting; missing cells are
    written empty.
    """
    rows = zip(panel.dates.tolist(), panel.returns.tolist(), panel.missing_mask.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(panel.assets) + "\n")
        for date, values, missing in rows:
            cells = ["" if m else repr(v) for v, m in zip(values, missing)]
            fh.write(",".join([str(date), *cells]) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless row-major CSV matrix of finite numbers, skipping
    blank lines; a malformed file raises ParseError naming the line."""
    lines = read_lines(path)
    numbers = [i for i in range(1, len(lines) + 1) if lines[i - 1].strip()]
    if not numbers:
        raise ParseError(f"{path}: empty matrix file", 1)
    rows = [lines[i - 1].strip() for i in numbers]
    return _parse_rows(rows, numbers, ",", len(rows[0].split(",")), where=f"{path}: ")


def write_matrix_csv(path, matrix) -> None:
    """Write a matrix as headerless row-major CSV with round-trip precision."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in a.tolist())


def _weekday_dates(days: int, start: datetime.date) -> np.ndarray:
    out = np.empty(days, dtype=np.int64)
    current = start
    filled = 0
    while filled < days:
        if current.weekday() < 5:
            out[filled] = current.year * 10000 + current.month * 100 + current.day
            filled += 1
        current += datetime.timedelta(days=1)
    return out


def synthetic_panel(params: ModelParams, days: int, seed: int) -> ReturnPanel:
    """Daily simple returns from one exactly simulated path at dt = 1/252.

    Deterministic per seed. Dates are consecutive weekdays from 2000-01-03
    so the panel is a drop-in for file-loaded ones; no cell is missing.
    """
    from .simulate import _one_path_prices

    if days < 2:
        raise ValueError("need at least 2 days")
    prices = _one_path_prices(params, days / TRADING_DAYS_PER_YEAR, days, seed)
    returns = prices[1:] / prices[:-1] - 1.0
    width = max(2, len(str(params.n)))
    assets = tuple(f"A{i + 1:0{width}d}" for i in range(params.n))
    return ReturnPanel(
        dates=_weekday_dates(days, datetime.date(2000, 1, 3)),
        assets=assets,
        returns=returns,
        missing_mask=np.zeros_like(returns, dtype=bool),
    )
