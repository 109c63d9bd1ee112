"""Command-line interface.

Subcommands: factor, weights, simulate, figure1, backtest, compare. All
are deterministic given flags plus seed, and no subcommand writes a file
until its computation has fully succeeded, so failed runs leave no partial
output.

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
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (
    BLACK_MONDAY_WEEK,
    BacktestConfig,
    BacktestReport,
    rolling_backtest,
)
from .data import DateRange, load_csv, load_french
from .errors import (
    DegenerateExposure,
    DimensionMismatch,
    EmptyPanel,
    EquidriftError,
    InsufficientHistory,
    InsufficientObservations,
    LengthMismatch,
    MissingData,
    NonMonotonicDates,
    NonPositiveGridPoint,
    NotPositiveDefinite,
    ParseError,
    SingularCovariance,
    SingularMatrix,
    TooFewObservations,
    ZeroVariance,
)
from .factorization import (
    CovMatrix,
    TargetMatrix,
    VolMatrix,
    factor_covariance,
    read_matrix_csv,
    write_matrix_csv,
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

_ERROR_EXITS = (
    ((ParseError,), 3),
    ((NonMonotonicDates, EmptyPanel), 4),
    (
        (
            NotPositiveDefinite,
            SingularMatrix,
            SingularCovariance,
            DimensionMismatch,
            DegenerateExposure,
            NonPositiveGridPoint,
        ),
        5,
    ),
    (
        (
            InsufficientHistory,
            InsufficientObservations,
            MissingData,
            TooFewObservations,
        ),
        6,
    ),
    ((ZeroVariance, LengthMismatch), 7),
    ((ValueError,), 2),
)


def _normalize_method(name: str) -> str:
    return "sym_sqrt" if name == "sqrt" else name


def _outdir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("EQUIDRIFT_OUTPUT_DIR", "."))


def _load_vol(path, method: str, target_path, is_vol: bool, shrinkage):
    """Matrix file -> VolMatrix, factoring covariance input per method."""
    entries = read_matrix_csv(path)
    if is_vol:
        return VolMatrix(entries)
    cov = CovMatrix(entries, shrinkage=shrinkage)
    method = _normalize_method(method)
    target = None
    if method == "rotate":
        if target_path is None:
            raise ValueError("--method rotate requires --target")
        target = TargetMatrix(read_matrix_csv(target_path))
    return factor_covariance(cov, method, target)


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _fmt(x: float) -> str:
    return repr(float(x))


# -- factor -------------------------------------------------------------------

def _cmd_factor(args) -> int:
    vol = _load_vol(args.covariance, args.method, args.target, False, args.shrinkage)
    row_sums = vol.entries.sum(axis=1)
    outdir = _outdir(args)
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(outdir / "volatility.csv", vol.entries)
    _write_lines(
        outdir / "row_sums.csv",
        ["asset,row_sum"]
        + [f"{i + 1},{_fmt(s)}" for i, s in enumerate(row_sums)],
    )
    print(f"method={_normalize_method(args.method)} dim={vol.dim}")
    for i, s in enumerate(row_sums):
        print(f"row_sum[{i + 1}] = {s:.6f}")
    print(f"wrote {outdir / 'volatility.csv'} and {outdir / 'row_sums.csv'}")
    return 0


# -- weights ------------------------------------------------------------------

def _cmd_weights(args) -> int:
    vol = _load_vol(args.matrix, args.method, args.target, args.vol, args.shrinkage)
    if args.kappa is not None:
        wv = pi_star(vol, args.kappa)
    else:
        wv = pi_star_fully_invested(vol, exposure=args.exposure)
    exposures = brownian_exposures(wv, vol)
    outdir = _outdir(args)
    _write_lines(
        outdir / "weights.csv",
        ["asset,weight"]
        + [f"{i + 1},{_fmt(w)}" for i, w in enumerate(wv.weights)],
    )
    print(f"kappa = {wv.kappa:.10g}")
    print(f"sum(weights) = {wv.exposure:.10g}")
    for i, w in enumerate(wv.weights):
        print(f"pi[{i + 1}] = {w:.10g}")
    print(f"driver exposure (equal across drivers) = {exposures.p[0]:.10g}")
    print(f"wrote {outdir / 'weights.csv'}")
    return 0


# -- simulate -------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.paths < 2:
        raise ValueError("--paths must be at least 2: the sample variance needs two paths")
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if not args.horizon > 0.0:
        raise ValueError("--horizon must be positive")
    if not args.w0 > 0.0:
        raise ValueError("--w0 must be positive")
    if args.vol is not None:
        sigma = VolMatrix(read_matrix_csv(args.vol))
        n = sigma.dim
    else:
        n = args.n
        if n is None:
            raise ValueError("provide --n or --vol")
        sigma = VolMatrix(args.sigma_scale * np.eye(n))
    params = ModelParams(sigma=sigma, mu=args.mu, r=args.r)
    if not args.lam > args.r:
        raise ValueError("--lambda must exceed --r")
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
        _write_lines(
            outdir / "terminal_wealth.csv",
            ["path,wealth"] + [f"{i},{_fmt(w)}" for i, w in enumerate(wealth)],
        )
        print(f"wrote {outdir / 'terminal_wealth.csv'}")
    return 0


# -- figure1 --------------------------------------------------------------------

def _cmd_figure1(args) -> int:
    n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    if not n_list or any(n < 1 for n in n_list):
        raise ValueError("--n-list must be positive integers")
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    if args.grid_min <= 0.0:
        raise NonPositiveGridPoint("--grid-min must be positive")

    results = []
    for n in n_list:
        law = WealthLaw.from_rates(args.w, args.lam, args.mu, args.r, n, args.t)
        density = optimal_wealth_density(law, grid)
        _, variance = optimal_wealth_moments(law)
        results.append((n, density, variance))

    outdir = _outdir(args)
    for n, density, variance in results:
        _write_lines(
            outdir / f"density_n{n}.csv",
            ["wealth,density"]
            + [f"{_fmt(x)},{_fmt(d)}" for x, d in zip(grid, density)],
        )
        print(f"n={n} variance={variance:.10g} file={outdir / f'density_n{n}.csv'}")
    return 0


# -- backtest -------------------------------------------------------------------

_CONFIG_KEYS = {
    "window_days",
    "reestimate_every",
    "factorization",
    "exposure",
    "rf_annual",
    "shrinkage",
    "exclude",
    "drop",
    "format",
    "target",
}


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ParseError(f"expected key=value, got {line!r}", line_no)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError(f"unknown config key {key!r}", line_no)
            values[key] = val.strip()
    return values


def _pick(flag_value, file_values: dict, key: str, default, conv):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        return conv(file_values[key])
    return default


def _split_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _write_report(report: BacktestReport, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(
        outdir / "returns.csv",
        ["date,strategy,benchmark"]
        + [
            f"{int(d)},{_fmt(s)},{_fmt(b)}"
            for d, s, b in zip(
                report.dates, report.strategy_returns, report.benchmark_returns
            )
        ],
    )
    _write_lines(
        outdir / "weights.csv",
        ["date," + ",".join(report.assets)]
        + [
            f"{int(d)}," + ",".join(_fmt(w) for w in row)
            for d, row in zip(report.rebalance_dates, report.weight_history)
        ],
    )
    summary = [
        ("sharpe_strategy", report.sharpe_strategy),
        ("sharpe_benchmark", report.sharpe_benchmark),
        ("jk_z", report.jk_z),
        ("jk_p", report.jk_p),
        ("terminal_wealth_ratio", report.terminal_wealth_ratio),
        ("volatility_ratio", report.volatility_ratio),
    ]
    _write_lines(
        outdir / "summary.csv",
        [",".join(key for key, _ in summary), ",".join(_fmt(v) for _, v in summary)],
    )
    lines = [f"{key}={_fmt(v)}" for key, v in summary]
    if report.stats_error is not None:
        lines.append(f"stats_error={report.stats_error}")
    _write_lines(outdir / "summary.txt", lines)


def _cmd_backtest(args) -> int:
    file_values = _read_config_file(args.config) if args.config else {}

    fmt = _pick(args.format, file_values, "format", "csv", str)
    drops = list(args.drop or [])
    if "drop" in file_values:
        drops = _split_list(file_values["drop"]) + drops

    if fmt == "french":
        panel = load_french(args.returns, drop_assets=drops)
    elif fmt == "csv":
        panel = load_csv(args.returns)
        if drops:
            panel = panel.drop_assets(drops)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if args.date_range is not None:
        panel = panel.slice(DateRange.parse(args.date_range))

    excludes: list[DateRange] = []
    if not args.no_default_exclusions:
        excludes.append(BLACK_MONDAY_WEEK)
    if "exclude" in file_values:
        excludes.extend(DateRange.parse(tok) for tok in _split_list(file_values["exclude"]))
    for tok in args.exclude or []:
        excludes.append(DateRange.parse(tok))

    method = _normalize_method(_pick(args.method, file_values, "factorization", "sym_sqrt", str))
    target_path = _pick(args.target, file_values, "target", None, str)
    rotation_target = read_matrix_csv(target_path) if target_path is not None else None

    config = BacktestConfig(
        window_days=_pick(args.window, file_values, "window_days", 1260, int),
        reestimate_every=_pick(args.every, file_values, "reestimate_every", 20, int),
        factorization=method,
        exposure=_pick(args.exposure, file_values, "exposure", 1.0, float),
        rf_annual=_pick(args.rf, file_values, "rf_annual", 0.03, float),
        exclusion_windows=tuple(excludes),
        shrinkage=_pick(args.shrinkage, file_values, "shrinkage", None, float),
        rotation_target=rotation_target,
    )
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
    print(f"sharpe_strategy={report.sharpe_strategy:.6g}")
    print(f"sharpe_benchmark={report.sharpe_benchmark:.6g}")
    print(f"jk_z={report.jk_z:.6g}")
    print(f"jk_p={report.jk_p:.6g}")
    print(f"terminal_wealth_ratio={report.terminal_wealth_ratio:.6g}")
    print(f"volatility_ratio={report.volatility_ratio:.6g}")
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
    if panel_a.n_dates == panel_b.n_dates and not np.array_equal(
        panel_a.dates, panel_b.dates
    ):
        log.warning("the two files cover different dates; comparing by position")
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

    methods = ["cholesky", "sym_sqrt", "sqrt", "rotate"]

    p = sub.add_parser("factor", help="factor a covariance CSV into a volatility matrix")
    p.add_argument("covariance", help="covariance matrix CSV (headerless, square)")
    p.add_argument("--method", choices=methods, default="sym_sqrt")
    p.add_argument("--target", default=None, help="target matrix CSV for --method rotate")
    p.add_argument("--shrinkage", type=float, default=None, help="diagonal repair delta")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("weights", help="optimal weights from a covariance or volatility CSV")
    p.add_argument("matrix", help="matrix CSV (covariance unless --vol)")
    p.add_argument("--vol", action="store_true", help="input is already a volatility matrix")
    p.add_argument("--method", choices=methods, default="sym_sqrt")
    p.add_argument("--target", default=None)
    p.add_argument("--shrinkage", type=float, default=None)
    p.add_argument("--exposure", type=float, default=1.0, help="weight sum (default 1)")
    p.add_argument("--kappa", type=float, default=None, help="explicit ratio; overrides --exposure")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("simulate", help="Monte Carlo check of the optimal wealth law")
    p.add_argument("--n", type=int, default=None, help="asset count (with scaled-identity vol)")
    p.add_argument("--vol", default=None, help="volatility matrix CSV (overrides --n)")
    p.add_argument("--sigma-scale", type=float, default=0.2, help="identity vol scale")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="required rate")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--w0", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=252)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", action="store_true", help="write terminal_wealth.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figure1", help="optimal-wealth density curves per asset count")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--r", type=float, default=0.03)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n-list", default="1,5,25", help="comma-separated asset counts")
    p.add_argument("--grid-min", type=float, default=0.01)
    p.add_argument("--grid-max", type=float, default=3.0)
    p.add_argument("--grid-points", type=int, default=600)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("backtest", help="rolling out-of-sample backtest on a return panel")
    p.add_argument("returns", help="return panel file")
    p.add_argument("--format", choices=["csv", "french"], default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--window", type=int, default=None, help="estimation window days")
    p.add_argument("--every", type=int, default=None, help="re-estimation cadence days")
    p.add_argument("--method", choices=methods, default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--exposure", type=float, default=None)
    p.add_argument("--rf", type=float, default=None, help="annual risk-free rate")
    p.add_argument("--shrinkage", type=float, default=None)
    p.add_argument(
        "--exclude",
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
    p.add_argument("--date-range", default=None, metavar="YYYYMMDD-YYYYMMDD")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("compare", help="Sharpe-difference test between two return CSVs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--col-a", default=None, help="column name in file_a")
    p.add_argument("--col-b", default=None, help="column name in file_b")
    p.add_argument("--rf-daily", type=float, default=0.0)
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
        for classes, code in _ERROR_EXITS:
            if isinstance(exc, classes):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
