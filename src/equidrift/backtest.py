"""Rolling-sample out-of-sample backtest.

Every ``reestimate_every`` trading days the engine estimates a covariance
matrix from the trailing ``window_days`` rows (minus any exclusion windows,
which apply to estimation only), factors it, and computes the optimal and
equal-weight target vectors. Weights are re-fixed to the target every day;
day-t returns use only data through day t-1. Accounting always runs on the
full return series, including excluded dates.

Each rebalance depends only on its own estimation window, so long runs
compute contiguous chunks of rebalances in forked worker processes, one per
CPU the process may run on. Every chunk runs the same public chain, so the
results are bitwise identical at any worker count. A worker stops at its
first rebalance that raises or warns, and the caller computes the rest of
that chunk, so errors and warnings arise in the caller as in a serial run.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import DateRange, ReturnPanel
from .errors import (
    InsufficientHistory,
    InsufficientObservations,
    MissingData,
    NotPositiveDefinite,
    SingularCovariance,
    TooFewObservations,
    ZeroVariance,
)
from .factorization import FACTORIZATIONS, CovMatrix, TargetMatrix, factor_covariance
from .model import TRADING_DAYS_PER_YEAR
from .stats import jobson_korkie_memmel, sharpe
from .strategy import one_over_n, pi_star_fully_invested

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "FACTORIZATIONS",
    "estimate_covariance",
    "estimation_window",
    "rolling_backtest",
]

#: Fewest rebalances worth a worker process of their own. Forking a worker
#: and collecting its weights took 6-28 ms on a 2-CPU Linux host, and the
#: whole fan-out cost 12-63 ms over half the serial time; a rebalance took
#: 0.8 ms at 10 assets and 1.4 ms at 47. At 128 rebalances, the fewest that
#: fork on 2 CPUs, the weights took 65 ms instead of 107 ms at 10 assets.
_MIN_CHUNK = 64

#: Week of 1987-10-19, excluded from covariance estimation by default. A
#: no-op for panels that do not span it.
BLACK_MONDAY_WEEK = DateRange(19871019, 19871023)


@dataclass(frozen=True)
class BacktestConfig:
    """Engine settings; defaults are a 5-year window re-estimated monthly.

    ``exclusion_windows`` removes dates from estimation samples only, never
    from return accounting. ``shrinkage`` (when set) repairs non-PD sample
    covariances instead of failing. ``rotation_target`` is required when
    ``factorization`` is 'rotate'. It may be any square matrix-like and is
    stored as nested tuples of floats, so configs compare and hash by value.
    """

    window_days: int = 1260
    reestimate_every: int = 20
    factorization: str = "sym_sqrt"
    exposure: float = 1.0
    rf_annual: float = 0.03
    exclusion_windows: tuple[DateRange, ...] = (BLACK_MONDAY_WEEK,)
    shrinkage: float | None = None
    rotation_target: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.window_days <= 0 or self.reestimate_every <= 0:
            raise ValueError("window_days and reestimate_every must be positive")
        if self.window_days <= self.reestimate_every:
            raise ValueError("window_days must exceed reestimate_every")
        if not math.isfinite(self.exposure):
            raise ValueError("exposure must be finite")
        if not math.isfinite(self.rf_annual):
            raise ValueError("rf_annual must be finite")
        if self.factorization not in FACTORIZATIONS:
            raise ValueError(
                f"factorization must be one of {FACTORIZATIONS}, "
                f"got {self.factorization!r}"
            )
        if self.factorization == "rotate" and self.rotation_target is None:
            raise ValueError("factorization 'rotate' needs rotation_target")
        if self.rotation_target is not None:
            rows = TargetMatrix(self.rotation_target).entries.tolist()
            object.__setattr__(self, "rotation_target", tuple(map(tuple, rows)))
        if self.shrinkage is not None and not self.shrinkage > 0.0:
            raise ValueError("shrinkage must be positive when set")
        object.__setattr__(self, "exclusion_windows", tuple(self.exclusion_windows))

    @property
    def rf_daily(self) -> float:
        return self.rf_annual / TRADING_DAYS_PER_YEAR


@dataclass(frozen=True)
class BacktestReport:
    """Out-of-sample return series, weight history, and summary statistics.

    When the Sharpe machinery cannot run (degenerate return series) the
    four statistic fields are NaN and ``stats_error`` says why.
    """

    dates: np.ndarray
    strategy_returns: np.ndarray
    benchmark_returns: np.ndarray
    rebalance_dates: np.ndarray
    weight_history: np.ndarray
    assets: tuple[str, ...]
    exposure: float
    sharpe_strategy: float
    sharpe_benchmark: float
    jk_z: float
    jk_p: float
    terminal_wealth_ratio: float
    volatility_ratio: float
    stats_error: str | None = None
    config: BacktestConfig = field(default=None, repr=False)

    def __post_init__(self):
        for name in (
            "dates",
            "strategy_returns",
            "benchmark_returns",
            "rebalance_dates",
            "weight_history",
        ):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.weight_history.ndim != 2 or self.weight_history.shape[1] != len(self.assets):
            raise ValueError("weight_history shape does not match assets")
        sums = self.weight_history.sum(axis=1)
        scale = max(1.0, abs(self.exposure))
        if self.weight_history.size and np.max(np.abs(sums - self.exposure)) > 1e-10 * scale:
            raise ValueError("a stored weight row does not sum to the exposure")


def estimate_covariance(window: ReturnPanel, shrinkage: float | None = None) -> CovMatrix:
    """Unbiased sample covariance (divisor m - 1) of a panel's daily returns.

    Raises MissingData on any masked cell (no imputation, ever) and
    InsufficientObservations below n + 1 rows. Non-PD results raise through
    CovMatrix unless ``shrinkage`` repairs them.
    """
    if np.any(window.missing_mask):
        i, j = np.argwhere(window.missing_mask)[0]
        date = int(window.dates[i])
        asset = window.assets[j]
        raise MissingData(
            f"masked value at date {date}, asset {asset} inside an estimation window",
            date=date,
            asset=asset,
        )
    m, n = window.returns.shape
    if m < n + 1:
        raise InsufficientObservations(
            f"need at least {n + 1} observations for {n} assets, got {m}"
        )
    c = np.cov(window.returns, rowvar=False, ddof=1)
    c = np.atleast_2d(c)
    c = 0.5 * (c + c.T)
    return CovMatrix(c, shrinkage=shrinkage)


def estimation_window(panel: ReturnPanel, end_row: int, config: BacktestConfig) -> ReturnPanel:
    """The estimation sample for weights taking effect at row ``end_row``.

    Trailing ``window_days`` rows strictly before ``end_row``, minus rows
    whose dates fall in an exclusion window. Exposed so callers can
    reproduce the engine's inputs exactly.
    """
    window = panel.take_rows(end_row - config.window_days, end_row)
    if not config.exclusion_windows:
        return window
    keep = np.ones(window.n_dates, dtype=bool)
    for rng in config.exclusion_windows:
        keep &= ~((window.dates >= rng.start) & (window.dates <= rng.end))
    if np.all(keep):
        return window
    return window._rows(keep)


def _rebalance_weights(panel: ReturnPanel, rows, config: BacktestConfig):
    """Yield the weights taking effect at each of ``rows``, in order.

    Each comes from the public chain ``estimation_window`` ->
    ``estimate_covariance`` -> ``factor_covariance`` ->
    ``pi_star_fully_invested``, so callers can reproduce it exactly.
    """
    target = None
    if config.factorization == "rotate":
        target = TargetMatrix(config.rotation_target)
    for t in rows:
        sample = estimation_window(panel, t, config)
        try:
            cov = estimate_covariance(sample, shrinkage=config.shrinkage)
        except NotPositiveDefinite as exc:
            raise SingularCovariance(
                f"estimation window ending before date {int(panel.dates[t])} "
                f"is not factorable: {exc}"
            ) from exc
        vol = factor_covariance(cov, config.factorization, target)
        yield pi_star_fully_invested(vol, exposure=config.exposure).weights


def _weight_block(panel: ReturnPanel, rows, config: BacktestConfig) -> np.ndarray:
    block = np.empty((len(rows), panel.n_assets))
    for k, weights in enumerate(_rebalance_weights(panel, rows, config)):
        block[k] = weights
    return block


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _chunk_worker(writer, panel: ReturnPanel, rows, config: BacktestConfig) -> None:
    """Forked-process body: send back the weights of ``rows``.

    It stops at the first rebalance that raises or warns and sends only what
    came before, so the parent computes that rebalance and the rest of the
    chunk itself, and every exception and warning arises in the caller's
    process from the code a serial run uses.
    """
    block = np.empty((len(rows), panel.n_assets))
    done = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            for weights in _rebalance_weights(panel, rows, config):
                block[done] = weights
                done += 1
        except Exception:  # the parent computes this rebalance again
            pass
    writer.send(block[:done])
    writer.close()


def _all_weights(panel: ReturnPanel, rows: range, config: BacktestConfig) -> np.ndarray:
    """Weights for every rebalance in ``rows``, one row each.

    Contiguous chunks of at least ``_MIN_CHUNK`` rebalances run in parallel,
    one per CPU: this process computes the first and a forked worker each
    of the rest. Forking is skipped where it is unavailable, in a daemonic
    process (which may not have children) and where other threads run,
    since a thread holding a lock at fork time can deadlock the child.
    Whatever a worker did not finish, this process computes, so the earliest
    failing or warning rebalance raises or warns here exactly as in a serial
    run.
    """
    import multiprocessing  # here, so that other commands skip its import time

    lanes = min(_cpus(), len(rows) // _MIN_CHUNK)
    if (
        lanes < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return _weight_block(panel, rows, config)
    ctx = multiprocessing.get_context("fork")
    edges = [len(rows) * k // lanes for k in range(lanes + 1)]
    chunks = [rows[a:b] for a, b in zip(edges, edges[1:])]
    procs, readers = [], []
    try:
        for chunk in chunks[1:]:
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            proc = ctx.Process(
                target=_chunk_worker, args=(writer, panel, chunk, config), daemon=True
            )
            try:
                proc.start()
                procs.append(proc)
            except OSError:  # no process to spare; the chunk is computed here
                pass
            writer.close()
        blocks = [_weight_block(panel, chunks[0], config)]
        for reader, chunk in zip(readers, chunks[1:]):
            try:
                block = reader.recv()
            except EOFError:  # no worker, or it died before sending anything
                block = np.empty((0, panel.n_assets))
            if len(block) < len(chunk):
                rest = _weight_block(panel, chunk[len(block):], config)
                block = np.concatenate([block, rest])
            blocks.append(block)
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for reader in readers:
            reader.close()
        for proc in procs:
            proc.join()
    return np.concatenate(blocks)


def rolling_backtest(panel: ReturnPanel, config: BacktestConfig | None = None) -> BacktestReport:
    """Run the rolling out-of-sample protocol over a full return panel."""
    if config is None:
        config = BacktestConfig()
    complete = int(np.sum(~np.any(panel.missing_mask, axis=1)))
    needed = config.window_days + config.reestimate_every
    if complete < needed:
        raise InsufficientHistory(
            f"panel has {complete} complete rows; need at least {needed} "
            f"(window {config.window_days} + cadence {config.reestimate_every})"
        )

    start, every = config.window_days, config.reestimate_every
    rows = range(start, panel.n_dates, every)
    masked = np.flatnonzero(np.any(panel.missing_mask[start:], axis=1))
    if masked.size:
        # A serial run fails at the earliest bad row, and a rebalance on a
        # row comes before that row's accounting.
        t = start + int(masked[0])
        _all_weights(panel, rows[: (t - start) // every + 1], config)
        j = int(np.flatnonzero(panel.missing_mask[t])[0])
        raise MissingData(
            f"masked return on accounting date {int(panel.dates[t])}, "
            f"asset {panel.assets[j]}",
            date=int(panel.dates[t]),
            asset=panel.assets[j],
        )
    weight_history = _all_weights(panel, rows, config)

    rf_daily = config.rf_daily
    held = panel.returns[start:]
    strat = np.empty(held.shape[0])
    for weights, t0 in zip(weight_history, range(0, held.shape[0], every)):
        cash = 1.0 - float(weights.sum())
        strat[t0 : t0 + every] = held[t0 : t0 + every] @ weights + cash * rf_daily
    bench = one_over_n(panel.n_assets, exposure=config.exposure).weights
    bench_series = held @ bench + (1.0 - float(bench.sum())) * rf_daily
    dates = panel.dates[start:]

    stats_error = None
    s_strat = s_bench = jk_z = jk_p = math.nan
    try:
        s_strat = sharpe(strat, rf_daily).ratio
        s_bench = sharpe(bench_series, rf_daily).ratio
        jk = jobson_korkie_memmel(strat - rf_daily, bench_series - rf_daily)
        jk_z, jk_p = jk.z, jk.p_one_sided
    except (ZeroVariance, TooFewObservations) as exc:
        stats_error = f"{type(exc).__name__}: {exc}"
        s_strat = s_bench = jk_z = jk_p = math.nan

    wealth_ratio = float(np.prod(1.0 + strat) / np.prod(1.0 + bench_series))
    sd_strat = float(strat.std(ddof=1)) if strat.size > 1 else math.nan
    sd_bench = float(bench_series.std(ddof=1)) if bench_series.size > 1 else math.nan
    vol_ratio = sd_strat / sd_bench if sd_bench and not math.isnan(sd_bench) else math.nan

    return BacktestReport(
        dates=dates,
        strategy_returns=strat,
        benchmark_returns=bench_series,
        rebalance_dates=panel.dates[start::every],
        weight_history=weight_history,
        assets=panel.assets,
        exposure=config.exposure,
        sharpe_strategy=s_strat,
        sharpe_benchmark=s_bench,
        jk_z=jk_z,
        jk_p=jk_p,
        terminal_wealth_ratio=wealth_ratio,
        volatility_ratio=vol_ratio,
        stats_error=stats_error,
        config=config,
    )
