"""Daily return panels: ingestion, slicing, and synthetic generation.

Two on-disk formats are supported. The industry-portfolio text format
(whitespace-separated, banner lines around a block of date-first rows,
values in percent, -99.99 / -999 as missing codes) is read by
:func:`load_french`. The canonical CSV format (header ``date,<asset>...``,
decimal values, empty cell = missing) is read and written by
:func:`load_csv` / :func:`write_csv` and round-trips panels exactly.

All dates are YYYYMMDD integers and all stored returns are daily simple
returns in decimal form.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPanel, NonMonotonicDates, ParseError
from .model import TRADING_DAYS_PER_YEAR, ModelParams

__all__ = [
    "DateRange",
    "ReturnPanel",
    "load_french",
    "load_csv",
    "write_csv",
    "synthetic_panel",
]

#: Sentinel values used for missing observations in the industry text files.
MISSING_CODES = (-99.99, -999.0)


def _check_yyyymmdd(value: int, what: str) -> int:
    value = int(value)
    if not 10000101 <= value <= 99991231:
        raise ValueError(f"{what} {value!r} is not an 8-digit YYYYMMDD date")
    month = (value // 100) % 100
    day = value % 100
    if not (1 <= month <= 12 and 1 <= day <= 31):
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
        """Parse 'YYYYMMDD-YYYYMMDD' (or a single date, meaning one day)."""
        parts = text.strip().split("-")
        if len(parts) == 1:
            return cls(int(parts[0]), int(parts[0]))
        if len(parts) != 2:
            raise ValueError(f"cannot parse date range {text!r}")
        return cls(int(parts[0]), int(parts[1]))

    def contains(self, date: int) -> bool:
        return self.start <= int(date) <= self.end


@dataclass(frozen=True)
class ReturnPanel:
    """Immutable date-by-asset matrix of daily simple returns.

    ``missing_mask`` is True where no observation exists; masked cells hold
    NaN and must never reach an estimation window. Unmasked returns are
    finite decimals (a 1% day is 0.01), converted from percent exactly once
    at load time.
    """

    dates: np.ndarray
    assets: tuple[str, ...]
    returns: np.ndarray
    missing_mask: np.ndarray

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype=np.int64)
        returns = np.asarray(self.returns, dtype=float)
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
            ("returns", self.returns[index]),
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


def _is_data_line(tokens: list[str]) -> bool:
    return bool(tokens) and len(tokens[0]) == 8 and tokens[0].isdigit()


def _parse_data_row(
    tokens: list[str], n_assets: int, line_no: int
) -> tuple[int, list[float], list[bool]]:
    if len(tokens) != n_assets + 1:
        raise ParseError(
            f"expected {n_assets + 1} fields (date + {n_assets} returns), "
            f"got {len(tokens)}",
            line_no,
        )
    date = int(tokens[0])
    values: list[float] = []
    mask: list[bool] = []
    for tok in tokens[1:]:
        try:
            val = float(tok)
        except ValueError:
            raise ParseError(f"cannot parse return value {tok!r}", line_no) from None
        if not math.isfinite(val):
            raise ParseError(f"non-finite return value {tok!r}", line_no)
        if val in MISSING_CODES:
            values.append(float("nan"))
            mask.append(True)
        else:
            values.append(val / 100.0)
            mask.append(False)
    return date, values, mask


def load_french(
    path,
    drop_assets=(),
    date_range: DateRange | None = None,
) -> ReturnPanel:
    """Read a daily industry-portfolio text file into a ReturnPanel.

    The file is banner lines, then a header of asset names, then rows of
    ``YYYYMMDD`` followed by one percent return per asset. Only the first
    data block is read (these files append equal-weighted and annual blocks
    after the daily value-weighted one). Values equal to -99.99 or -999 are
    recorded as missing; all others are divided by 100 exactly once.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.readlines()

    first_data = None
    for idx, line in enumerate(lines):
        if _is_data_line(line.split()):
            first_data = idx
            break
    if first_data is None:
        raise ParseError("no data rows (date-first lines) found", len(lines) or 1)

    header_tokens: list[str] = []
    for idx in range(first_data - 1, -1, -1):
        tokens = lines[idx].split()
        if tokens:
            header_tokens = tokens
            break
    n_cols = len(lines[first_data].split()) - 1
    if len(header_tokens) == n_cols + 1:
        # Some exports label the date column; drop that label.
        header_tokens = header_tokens[1:]
    if len(header_tokens) != n_cols:
        raise ParseError(
            f"header has {len(header_tokens)} asset names but data rows have "
            f"{n_cols} return columns",
            first_data + 1,
        )

    dates: list[int] = []
    rows: list[list[float]] = []
    masks: list[list[bool]] = []
    for idx in range(first_data, len(lines)):
        tokens = lines[idx].split()
        if not _is_data_line(tokens):
            break
        date, values, mask = _parse_data_row(tokens, n_cols, idx + 1)
        dates.append(date)
        rows.append(values)
        masks.append(mask)

    if not dates:
        raise ParseError("data block is empty", first_data + 1)
    panel = ReturnPanel(
        dates=np.array(dates, dtype=np.int64),
        assets=tuple(header_tokens),
        returns=np.array(rows),
        missing_mask=np.array(masks),
    )
    if drop_assets:
        panel = panel.drop_assets(drop_assets)
    if date_range is not None:
        panel = panel.slice(date_range)
    return panel


def load_csv(path) -> ReturnPanel:
    """Read the canonical CSV format: header 'date,<asset>...', decimal values.

    Empty cells (and 'nan', any case) are missing observations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("file is empty", 1)

    header = [cell.strip() for cell in lines[0].split(",")]
    if len(header) < 2 or header[0].lower() != "date":
        raise ParseError("header must be 'date,<asset names...>'", 1)
    assets = tuple(header[1:])

    dates: list[int] = []
    rows: list[list[float]] = []
    masks: list[list[bool]] = []
    for idx, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(cells)}", idx
            )
        if not (len(cells[0]) == 8 and cells[0].isdigit()):
            raise ParseError(f"bad date {cells[0]!r}", idx)
        values: list[float] = []
        mask: list[bool] = []
        for cell in cells[1:]:
            if cell == "" or cell.lower() == "nan":
                values.append(float("nan"))
                mask.append(True)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"cannot parse return value {cell!r}", idx) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite return value {cell!r}", idx)
            values.append(value)
            mask.append(False)
        dates.append(int(cells[0]))
        rows.append(values)
        masks.append(mask)

    if not dates:
        raise ParseError("no data rows", max(2, len(lines)))
    return ReturnPanel(
        dates=np.array(dates, dtype=np.int64),
        assets=assets,
        returns=np.array(rows),
        missing_mask=np.array(masks),
    )


def write_csv(panel: ReturnPanel, path) -> None:
    """Write the canonical CSV format; round-trips through load_csv exactly.

    Values use shortest round-trip decimal formatting; missing cells are
    written empty.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(panel.assets) + "\n")
        for i in range(panel.n_dates):
            cells = [str(int(panel.dates[i]))]
            for j in range(panel.n_assets):
                if panel.missing_mask[i, j]:
                    cells.append("")
                else:
                    cells.append(repr(float(panel.returns[i, j])))
            fh.write(",".join(cells) + "\n")


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
    from .simulate import simulate_paths

    if days < 2:
        raise ValueError("need at least 2 days")
    paths = simulate_paths(
        params,
        horizon=days / TRADING_DAYS_PER_YEAR,
        steps=days,
        n_paths=1,
        seed=seed,
    )
    prices = paths.prices[0]
    returns = prices[1:] / prices[:-1] - 1.0
    width = max(2, len(str(params.n)))
    assets = tuple(f"A{i + 1:0{width}d}" for i in range(params.n))
    return ReturnPanel(
        dates=_weekday_dates(days, datetime.date(2000, 1, 3)),
        assets=assets,
        returns=returns,
        missing_mask=np.zeros_like(returns, dtype=bool),
    )
