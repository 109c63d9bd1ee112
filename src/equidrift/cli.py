"""Command-line interface.

Subcommands: factor, weights, simulate, figure1, backtest, compare. All
are deterministic given flags plus seed, and no subcommand writes a file
until its computation has fully succeeded; its files then appear together
or not at all, so failed runs leave no partial output.

Exit codes:
  0  success
  1  unexpected internal error
  2  usage or argument validation error
  3  file missing or unparseable
  4  return-panel validation error (dates, emptiness)
  5  numerical matrix failure (not PD, singular, dimension, degenerate)
  6  insufficient or missing data for the requested computation
  7  degenerate statistics (zero variance, mismatched series)

The default output directory is the EQUIDRIFT_OUTPUT_DIR environment
variable when set, otherwise the current directory.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import _SUMMARY_KEYS, BacktestConfig, BacktestReport, rolling_backtest
from .data import DateRange, load_csv, load_french, read_lines, read_matrix_csv
from .data import parse_integer, parse_real
from .errors import EquidriftError, LengthMismatch, MissingData, ParseError
from .factorization import (
    CovMatrix,
    TargetMatrix,
    VolMatrix,
    factor_covariance,
)
from .model import ModelParams
from .simulate import (
    WealthLaw,
    optimal_wealth_density,
    optimal_wealth_moments,
    simulate_terminal_wealth,
)

# Unused by the CLI; bound because bench/workloads.py's traced mc-wealth run
# looks these names up on this module.
from .simulate import replay_wealth, simulate_paths  # noqa: F401
from .stats import jobson_korkie_memmel
from .strategy import brownian_exposures, pi_star, pi_star_fully_invested

__all__ = ["main", "EXIT_CODES"]

log = logging.getLogger("equidrift")

EXIT_CODES = {
    "ok": 0,
    "internal": 1,
    "usage": 2,
    "parse": 3,
    "panel": 4,
    "matrix": 5,
    "data": 6,
    "stats": 7,
}

_METHODS = ["cholesky", "sym_sqrt", "sqrt", "rotate"]
_METHOD_HELP = "cholesky, sym_sqrt (default; alias sqrt) or rotate"
_FORMATS = ["csv", "french"]


def _one_of(names: list[str], text: str) -> str:
    if text not in names:
        raise ValueError(f"expected one of {', '.join(names)}, got {text!r}")
    return text


def _normalize_method(name: str) -> str:
    return "sym_sqrt" if _one_of(_METHODS, name) == "sqrt" else name


def _flag(convert):
    """``convert`` as an argparse type: its ValueError becomes the usage
    error argparse prints after the flag's name (exit 2)."""
    def flag_value(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return flag_value


def _checked(convert, ok, rule: str):
    """``convert``, also rejecting values for which ``ok`` is false; the
    message states ``rule``."""
    def value(text: str):
        if not ok(x := convert(text)):
            raise ValueError(f"must be {rule}, got {text!r}")
        return x
    return value


def _outdir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("EQUIDRIFT_OUTPUT_DIR", "."))


def _load_vol(path, method: str, target_path, shrinkage):
    """Covariance file -> VolMatrix, factored per method."""
    if target_path is not None and method != "rotate":
        raise ValueError("--target requires --method rotate")
    cov = CovMatrix(read_matrix_csv(path), shrinkage=shrinkage)
    target = None
    if method == "rotate":
        if target_path is None:
            raise ValueError("--method rotate requires --target")
        target = TargetMatrix(read_matrix_csv(target_path))
    return factor_covariance(cov, method, target)


def _write_outputs(outdir: Path, files: dict[str, list[str]]) -> None:
    """Write all of ``files`` (name -> lines) into ``outdir``, or none: each
    goes to a temporary sibling, and the temporaries replace their targets
    only once all of them are written."""
    outdir.mkdir(parents=True, exist_ok=True)
    temps = {outdir / f".{name}.{os.getpid()}.tmp": outdir / name for name in files}
    try:
        for (tmp, path), lines in zip(temps.items(), files.values()):
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.writelines(line + "\n" for line in lines)
            except OSError as exc:  # a failed write (a full disk) names no file
                exc.filename = exc.filename or str(path)
                raise
        for tmp, path in temps.items():
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv(header: str, labels, table) -> list[str]:
    """``header``, then one line per row: its label, then its numbers."""
    rows = zip(labels, table)
    return [header] + [",".join([str(label), *map(_fmt, row)]) for label, row in rows]


# -- factor -------------------------------------------------------------------

def _cmd_factor(args) -> int:
    vol = _load_vol(args.covariance, args.method, args.target, args.shrinkage)
    row_sums = vol.entries.sum(axis=1)
    outdir = _outdir(args)
    _write_outputs(
        outdir,
        {
            "volatility.csv": [",".join(map(_fmt, row)) for row in vol.entries],
            "row_sums.csv": _csv("asset,row_sum", range(1, vol.dim + 1), row_sums[:, None]),
        },
    )
    print(f"method={args.method} dim={vol.dim}")
    for i, s in enumerate(row_sums):
        print(f"row_sum[{i + 1}] = {s:.6f}")
    print(f"wrote {outdir / 'volatility.csv'} and {outdir / 'row_sums.csv'}")
    return 0


# -- weights ------------------------------------------------------------------

def _cmd_weights(args) -> int:
    if args.vol:
        for flag in ("--method", "--shrinkage", "--target"):
            if getattr(args, flag[2:]) is not None:
                raise ValueError(f"{flag} does not apply to a --vol matrix")
        vol = VolMatrix(read_matrix_csv(args.matrix))
    else:
        vol = _load_vol(args.matrix, args.method or "sym_sqrt", args.target, args.shrinkage)
    if args.kappa is not None:
        wv = pi_star(vol, args.kappa)
    else:
        wv = pi_star_fully_invested(vol, exposure=args.exposure)
    exposures = brownian_exposures(wv, vol)
    outdir = _outdir(args)
    _write_outputs(
        outdir, {"weights.csv": _csv("asset,weight", range(1, vol.dim + 1), wv.weights[:, None])}
    )
    print(f"kappa = {wv.kappa:.10g}")
    print(f"sum(weights) = {wv.exposure:.10g}")
    for i, w in enumerate(wv.weights):
        print(f"pi[{i + 1}] = {w:.10g}")
    print(f"driver exposure (equal across drivers) = {exposures.p[0]:.10g}")
    print(f"wrote {outdir / 'weights.csv'}")
    return 0


# -- simulate -------------------------------------------------------------------

def _require_rates(args) -> None:
    """``simulate`` and ``figure1`` need kappa = (lambda - r) / (mu - r) to
    be positive; checked on the flags, so that the message names them."""
    if not args.mu > args.r:
        raise ValueError("--mu must exceed --r")
    if not args.lam > args.r:
        raise ValueError("--lambda must exceed --r")


def _cmd_simulate(args) -> int:
    _require_rates(args)
    if args.vol is not None:
        sigma = VolMatrix(read_matrix_csv(args.vol))
        n = sigma.dim
    else:
        n = args.n
        if n is None:
            raise ValueError("provide --n or --vol")
        sigma = VolMatrix(args.sigma_scale * np.eye(n))
    params = ModelParams(sigma=sigma, mu=args.mu, r=args.r)
    kappa = (args.lam - args.r) / (args.mu - args.r)
    wv = pi_star(sigma, kappa)

    law = WealthLaw(w=args.w0, lam=args.lam, kappa=kappa, n=n, t=args.horizon)
    mean_th, var_th = optimal_wealth_moments(law)
    wealth = simulate_terminal_wealth(
        params, wv, args.horizon, args.steps, args.paths, args.seed, args.w0
    )
    mc_mean = float(wealth.mean())
    mc_var = float(wealth.var(ddof=1))
    se = float(wealth.std(ddof=1) / math.sqrt(args.paths))

    print(f"paths={args.paths} steps={args.steps} horizon={args.horizon} seed={args.seed}")
    print(f"kappa = {kappa:.10g}")
    print(f"mean: mc={mc_mean:.8f} theory={mean_th:.8f} se={se:.3g}")
    print(f"variance: mc={mc_var:.8f} theory={var_th:.8f}")
    if args.save:
        outdir = _outdir(args)
        lines = _csv("path,wealth", range(wealth.size), wealth[:, None])
        _write_outputs(outdir, {"terminal_wealth.csv": lines})
        print(f"wrote {outdir / 'terminal_wealth.csv'}")
    return 0


# -- figure1 --------------------------------------------------------------------

def _cmd_figure1(args) -> int:
    _require_rates(args)
    if not args.grid_max > args.grid_min:
        raise ValueError("--grid-max must exceed --grid-min")
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)

    results = []
    for n in args.n_list:
        law = WealthLaw.from_rates(args.w, args.lam, args.mu, args.r, n, args.t)
        density = optimal_wealth_density(law, grid)
        _, variance = optimal_wealth_moments(law)
        results.append((n, density, variance))

    outdir = _outdir(args)
    _write_outputs(
        outdir,
        {
            f"density_n{n}.csv": _csv("wealth,density", map(_fmt, grid), density[:, None])
            for n, density, _ in results
        },
    )
    for n, _, variance in results:
        print(f"n={n} variance={variance:.10g} file={outdir / f'density_n{n}.csv'}")
    return 0


# -- backtest -------------------------------------------------------------------

_finite = _checked(parse_real, math.isfinite, "finite")
_positive = _checked(parse_integer, lambda n: n > 0, "positive")
_positive_real = _checked(parse_real, lambda x: 0.0 < x < math.inf, "finite and positive")
_nonzero = _checked(parse_real, lambda x: 0.0 < abs(x) < math.inf, "finite and non-zero")

#: Each backtest setting, declared once: BacktestConfig field (also its
#: config-file key) -> its backtest flag, the converter that reads both the
#: flag and the file value, and the flag's other argparse options. Flags
#: override the file, which overrides the dataclass's own defaults.
_SETTINGS = {
    "window_days": ("--window", _positive, {"help": "estimation window days"}),
    "reestimate_every": ("--every", _positive, {"help": "re-estimation cadence days"}),
    "factorization": ("--method", _normalize_method, {"help": _METHOD_HELP}),
    "exposure": ("--exposure", _nonzero, {}),
    "rf_annual": ("--rf", _finite, {"help": "annual risk-free rate"}),
    "shrinkage": ("--shrinkage", _positive_real, {}),
}
_CONFIG_KEYS = {*_SETTINGS, "exclude", "drop", "format", "target"}


def _read_config_file(path) -> dict[str, tuple[str, int]]:
    """Config-file key -> (value text, line number)."""
    values: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {line!r}", line_no)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", line_no)
        values[key] = (val.strip(), line_no)
    return values


def _pick(flag_value, file_values: dict, key: str, convert=str):
    """The flag's value, else the config file's value read by ``convert``,
    else None. A file value that ``convert`` rejects raises ParseError
    naming its line."""
    if flag_value is not None or key not in file_values:
        return flag_value
    text, line_no = file_values[key]
    try:
        return convert(text)
    except ValueError as exc:
        raise ParseError(f"{key}: {exc}", line_no) from None


def _split_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _date_ranges(text: str) -> list[DateRange]:
    return [DateRange.parse(tok) for tok in _split_list(text)]


def _write_report(report: BacktestReport, outdir: Path) -> None:
    values = [_fmt(getattr(report, key)) for key in _SUMMARY_KEYS]
    text = [f"{key}={v}" for key, v in zip(_SUMMARY_KEYS, values)]
    if report.stats_error is not None:
        text.append(f"stats_error={report.stats_error}")
    _write_outputs(
        outdir,
        {
            "returns.csv": _csv(
                "date,strategy,benchmark",
                report.dates,
                np.column_stack([report.strategy_returns, report.benchmark_returns]),
            ),
            "weights.csv": _csv(
                "date," + ",".join(report.assets), report.rebalance_dates, report.weight_history
            ),
            "summary.csv": [",".join(_SUMMARY_KEYS), ",".join(values)],
            "summary.txt": text,
        },
    )


def _cmd_backtest(args) -> int:
    file_values = _read_config_file(args.config) if args.config else {}

    fmt = _pick(args.format, file_values, "format", partial(_one_of, _FORMATS))
    drops = (_pick(None, file_values, "drop", _split_list) or []) + (args.drop or [])

    excludes = [] if args.no_default_exclusions else list(BacktestConfig.exclusion_windows)
    excludes += _pick(None, file_values, "exclude", _date_ranges) or []
    excludes += args.exclude or []

    settings = {"exclusion_windows": tuple(excludes)}
    for key, (_, convert, _) in _SETTINGS.items():
        value = _pick(getattr(args, key), file_values, key, convert)
        if value is not None:
            settings[key] = value
    target_path = _pick(args.target, file_values, "target")
    if target_path is not None:
        if settings.get("factorization") != "rotate":
            if args.target is not None:
                raise ValueError("--target requires --method rotate")
            raise ParseError("target: requires factorization=rotate", file_values["target"][1])
        settings["rotation_target"] = read_matrix_csv(target_path)
    config = BacktestConfig(**settings)

    panel = (load_french if fmt == "french" else load_csv)(args.returns)
    if drops:
        panel = panel.drop_assets(drops)
    if args.date_range is not None:
        panel = panel.slice(args.date_range)
    log.info(
        "backtest: %d dates, %d assets, window %d, cadence %d, method %s",
        panel.n_dates,
        panel.n_assets,
        config.window_days,
        config.reestimate_every,
        config.factorization,
    )
    report = rolling_backtest(panel, config)
    outdir = _outdir(args)
    _write_report(report, outdir)

    print(f"out-of-sample days: {report.dates.size}")
    print(f"rebalances: {report.rebalance_dates.size}")
    for key in _SUMMARY_KEYS:
        print(f"{key}={getattr(report, key):.6g}")
    if report.stats_error is not None:
        print(f"stats_error={report.stats_error}")
    print(f"wrote report to {outdir}")
    return 0


# -- compare --------------------------------------------------------------------

def _pick_column(panel, name: str | None, path) -> np.ndarray:
    if name is None:
        if panel.n_assets != 1:
            raise ValueError(
                f"{path} has columns {list(panel.assets)}; pick one with --col-a/--col-b"
            )
        name = panel.assets[0]
    if name not in panel.assets:
        raise ValueError(f"{path} has no column {name!r}")
    j = panel.assets.index(name)
    if np.any(panel.missing_mask[:, j]):
        raise MissingData(f"column {name!r} in {path} has missing values", asset=name)
    return panel.returns[:, j]


def _cmd_compare(args) -> int:
    panel_a = load_csv(args.file_a)
    panel_b = load_csv(args.file_b)
    series_a = _pick_column(panel_a, args.col_a, args.file_a)
    series_b = _pick_column(panel_b, args.col_b, args.file_b)
    if panel_a.n_dates == panel_b.n_dates:
        differ = np.flatnonzero(panel_a.dates != panel_b.dates)
        if differ.size:
            k = int(differ[0])
            raise LengthMismatch(
                f"the two files cover different dates: data row {k + 1} is "
                f"{panel_a.dates[k]} in {args.file_a} but {panel_b.dates[k]} in {args.file_b}"
            )
    result = jobson_korkie_memmel(series_a - args.rf_daily, series_b - args.rf_daily)
    print(f"sharpe_1={result.sharpe_1:.10g}")
    print(f"sharpe_2={result.sharpe_2:.10g}")
    print(f"rho={result.rho:.10g}")
    print(f"z={result.z:.10g}")
    print(f"p_one_sided={result.p_one_sided:.10g}")
    print(f"p_two_sided={result.p_two_sided:.10g}")
    return 0


# -- parser ---------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equidrift",
        description="Risk-exposure portfolio toolkit: factorizations, optimal "
        "weights, simulation, and rolling backtests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log detail (repeatable)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (default: $EQUIDRIFT_OUTPUT_DIR or '.')",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    method, date_range = map(_flag, (_normalize_method, DateRange.parse))
    real, positive, formats = map(_flag, (_finite, _positive, partial(_one_of, _FORMATS)))
    positive_real, nonzero_real, natural, paths = map(_flag, (
        _positive_real,
        _nonzero,
        _checked(parse_integer, lambda n: n >= 0, "non-negative"),
        _checked(parse_integer, lambda n: n > 1, "at least 2"),  # a sample variance
    ))

    p = sub.add_parser("factor", help="factor a covariance CSV into a volatility matrix")
    p.add_argument("covariance", help="covariance matrix CSV (headerless, square)")
    p.add_argument("--method", type=method, default="sym_sqrt", help=_METHOD_HELP)
    p.add_argument("--target", default=None, help="target matrix CSV for --method rotate")
    p.add_argument("--shrinkage", type=positive_real, default=None, help="diagonal repair delta")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("weights", help="optimal weights from a covariance or volatility CSV")
    p.add_argument("matrix", help="matrix CSV (covariance unless --vol)")
    p.add_argument("--vol", action="store_true", help="input is already a volatility matrix")
    p.add_argument("--method", type=method, default=None, help=_METHOD_HELP)
    p.add_argument("--target", default=None)
    p.add_argument("--shrinkage", type=positive_real, default=None)
    p.add_argument("--exposure", type=nonzero_real, default=1.0, help="weight sum (default 1)")
    p.add_argument(
        "--kappa", type=positive_real, default=None, help="explicit ratio; overrides --exposure"
    )
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("simulate", help="Monte Carlo check of the optimal wealth law")
    p.add_argument(
        "--n", type=positive, default=None, help="asset count (with scaled-identity vol)"
    )
    p.add_argument("--vol", default=None, help="volatility matrix CSV (overrides --n)")
    p.add_argument("--sigma-scale", type=nonzero_real, default=0.2, help="identity vol scale")
    p.add_argument("--lambda", dest="lam", type=real, required=True, help="required rate")
    p.add_argument("--mu", type=real, required=True)
    p.add_argument("--r", type=positive_real, required=True)
    p.add_argument("--w0", type=positive_real, default=1.0)
    p.add_argument("--horizon", type=positive_real, default=1.0)
    p.add_argument("--steps", type=positive, default=252)
    p.add_argument("--paths", type=paths, default=10000)
    p.add_argument("--seed", type=natural, default=0)
    p.add_argument("--save", action="store_true", help="write terminal_wealth.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figure1", help="optimal-wealth density curves per asset count")
    p.add_argument("--lambda", dest="lam", type=real, default=0.1)
    p.add_argument("--mu", type=real, default=0.2)
    p.add_argument("--r", type=real, default=0.03)
    p.add_argument("--w", type=positive_real, default=1.0)
    p.add_argument("--t", type=positive_real, default=1.0)
    counts = _flag(_checked(
        lambda text: [parse_integer(tok) for tok in _split_list(text)],
        lambda ns: 0 < len(ns) == len(set(ns)) and min(ns) > 0,
        "positive integers without repeats",
    ))
    p.add_argument("--n-list", type=counts, default="1,5,25", help="comma-separated asset counts")
    p.add_argument("--grid-min", type=positive_real, default=0.01)
    p.add_argument("--grid-max", type=positive_real, default=3.0)
    p.add_argument("--grid-points", type=positive, default=600)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("backtest", help="rolling out-of-sample backtest on a return panel")
    p.add_argument("returns", help="return panel file")
    p.add_argument("--format", type=formats, default=None, help="csv (default) or french")
    p.add_argument("--config", default=None, help="key=value config file")
    for key, (flag, convert, options) in _SETTINGS.items():
        p.add_argument(flag, dest=key, type=_flag(convert), default=None, **options)
    p.add_argument("--target", default=None)
    p.add_argument(
        "--exclude",
        type=date_range,
        action="append",
        default=None,
        metavar="YYYYMMDD-YYYYMMDD",
        help="extra estimation exclusion window (repeatable)",
    )
    p.add_argument(
        "--no-default-exclusions",
        action="store_true",
        help="do not exclude the 1987-10-19 week from estimation",
    )
    p.add_argument("--drop", action="append", default=None, help="asset to drop (repeatable)")
    p.add_argument("--date-range", type=date_range, default=None, metavar="YYYYMMDD-YYYYMMDD")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("compare", help="Sharpe-difference test between two return CSVs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--col-a", default=None, help="column name in file_a")
    p.add_argument("--col-b", default=None, help="column name in file_b")
    p.add_argument("--rf-daily", type=real, default=0.0)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")

    try:
        return args.func(args)
    except EquidriftError as exc:
        error, kind = exc, exc.EXIT_KIND
    except OSError as exc:
        error, kind = exc, "parse"
    except ValueError as exc:
        error, kind = exc, "usage"
    except Exception as exc:
        log.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CODES["internal"]
    print(f"error: {error}", file=sys.stderr)
    return EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
