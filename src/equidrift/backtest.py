"""Rolling-sample out-of-sample backtest in three stages: weights, accounting, summary.

Every ``reestimate_every`` trading days the engine estimates a covariance
matrix from the trailing ``window_days`` rows (minus any exclusion windows,
which apply to estimation only), factors it, and computes the optimal and
equal-weight target vectors. Weights are re-fixed to the target every day;
day-t returns use only data through day t-1. Accounting always runs on the
full return series, including excluded dates, as one batched product. The
summary's Sharpe ratios come from its one Jobson-Korkie-Memmel test.

Rebalance weights have one source, the stacked kernels, in two passes over
a block of windows. The first fills a stack of n x n covariances, one window
at a time, with the kernel :func:`estimate_covariance` uses, each reading a
column slice of the asset-major panel with excluded rows removed once. The
second runs the rest of the chain on the whole stack: ``eigh`` with the
``shrinkage`` repair, the factor, the refined solve and the weight checks,
one LAPACK call per step with vectorized verdicts. The public functions are
the same kernels on a batch of one that raise from their verdicts, so the
weights are bitwise equal to the public chain
``estimation_window`` -> ``estimate_covariance`` -> ``factor_covariance`` ->
``pi_star_fully_invested``. A block on which a LAPACK call fails is
re-stacked in halves, down to single windows. The stacked pass never warns
or raises on data; it stops at the first window the public chain would
reject.

Each rebalance depends only on its own estimation window, so long runs
split the rebalances into contiguous chunks, one per CPU the process may run
on, and map the stacked pass over them with the package's one fork helper
(the simulator's paths and the CSV panel's rows use it too), which returns
each chunk's weights, kappas and whether it stopped, in order. The calling
process takes them up to the first stop, warns once per negative kappa from
one source line, and runs the public chain on the rejected window, where it
raises, so errors and warnings arise as in a serial run. The results, and
the warnings' source line, are identical at any worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._fanout import fan_out, split
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
from .factorization import (
    FACTORIZATIONS,
    CovMatrix,
    TargetMatrix,
    _check_shrinkage,
    _factors,
    _positive_eig,
    _require_target_dim,
    factor_covariance,
)
from .model import TRADING_DAYS_PER_YEAR
from .stats import jobson_korkie_memmel
from .strategy import NEGATIVE_KAPPA, _pi_star, _solved, one_over_n

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "estimate_covariance",
    "estimation_window",
    "rolling_backtest",
]

#: Fewest rebalances worth a worker process of their own. On a 2-CPU Linux
#: host with one BLAS thread, a stacked rebalance took 0.12-0.13 ms at 10
#: assets (daily rotate) and 0.7-1 ms at 47 (sym_sqrt), and two lanes of the
#: direct fork broke even near 40 rebalances each at 10 assets (80 took 10.6
#: ms serially, 10.4 ms on two lanes) and 12 each at 47 (24 took 16.9 and
#: 17.1 ms), in medians of 41 alternated runs. The value of 80 dates from the
#: earlier helper's 7-12 ms round trip.
_MIN_CHUNK = 80

#: Bytes of one n x n stack in a block of stacked rebalances: 163 windows at
#: 10 assets, 7 at 47. A 1 MiB budget raised a 10-asset daily run's peak
#: RSS by 13%; at 128 KiB it rose about 1% and kept the speed.
_STACK_BYTES = 128 * 1024

#: Week of 1987-10-19, excluded from covariance estimation by default. A
#: no-op for panels that do not span it.
BLACK_MONDAY_WEEK = DateRange(19871019, 19871023)


@dataclass(frozen=True)
class BacktestConfig:
    """Engine settings; defaults are a 5-year window re-estimated monthly.

    ``exclusion_windows`` removes dates from estimation samples only, never
    from return accounting. ``shrinkage`` (when set) repairs non-PD sample
    covariances instead of failing. ``rotation_target`` is required when
    ``factorization`` is 'rotate' and rejected otherwise. It may be any
    square matrix-like and is stored as nested tuples of floats, so configs
    compare and hash by value; ``_target`` keeps the validated TargetMatrix.
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
        if not (math.isfinite(self.exposure) and self.exposure != 0.0):
            raise ValueError("exposure must be finite and non-zero")
        if not math.isfinite(self.rf_annual):
            raise ValueError("rf_annual must be finite")
        if self.factorization not in FACTORIZATIONS:
            raise ValueError(
                f"factorization must be one of {FACTORIZATIONS}, "
                f"got {self.factorization!r}"
            )
        if self.factorization == "rotate" and self.rotation_target is None:
            raise ValueError("factorization 'rotate' needs rotation_target")
        if self.factorization != "rotate" and self.rotation_target is not None:
            raise ValueError("rotation_target needs factorization 'rotate'")
        target = None if self.rotation_target is None else TargetMatrix(self.rotation_target)
        object.__setattr__(self, "_target", target)
        if target is not None:
            object.__setattr__(self, "rotation_target", tuple(map(tuple, target.entries.tolist())))
        _check_shrinkage(self.shrinkage)
        object.__setattr__(self, "exclusion_windows", tuple(self.exclusion_windows))

    @property
    def rf_daily(self) -> float:
        return self.rf_annual / TRADING_DAYS_PER_YEAR


@dataclass(frozen=True)
class BacktestReport:
    """Out-of-sample return series, weight history, and summary statistics.

    ``weight_history`` holds the weights as the engine built them, through
    the public chain's checks. When the Sharpe test cannot run (fewer than 3
    days, or a constant series) the four statistic fields are NaN and
    ``stats_error`` says why.
    """

    dates: np.ndarray
    strategy_returns: np.ndarray
    benchmark_returns: np.ndarray
    rebalance_dates: np.ndarray
    weight_history: np.ndarray
    assets: tuple[str, ...]
    sharpe_strategy: float
    sharpe_benchmark: float
    jk_z: float
    jk_p: float
    terminal_wealth_ratio: float
    volatility_ratio: float
    stats_error: str | None = None

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


def estimate_covariance(window: ReturnPanel, shrinkage: float | None = None) -> CovMatrix:
    """Unbiased sample covariance (divisor m - 1) of a panel's daily returns.

    Raises MissingData on any masked cell (no imputation, ever) and
    InsufficientObservations below n + 1 rows. A covariance that overflows
    raises NotPositiveDefinite, as do non-PD results through CovMatrix
    unless ``shrinkage`` repairs them.
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
    with np.errstate(over="ignore", invalid="ignore"):
        c = _covariance(window.returns.T, [0], [m])[0]
    if not np.all(np.isfinite(c)):
        raise NotPositiveDefinite("sample covariance overflows: it has non-finite entries")
    return CovMatrix(c, shrinkage=shrinkage)


def _covariance(x: np.ndarray, lo, hi) -> np.ndarray:
    """Sample covariances (divisor m - 1) of the windows ``x[:, lo[k]:hi[k]]``,
    centred in one reused buffer. Each row of ``x`` must be contiguous; the row
    stride may be anything, so a column slice of the asset-major panel gives the
    same bits as its copy. numpy runs ``xc @ xc.T`` as ``syrk`` and mirrors the
    triangle, so each slice is exactly symmetric."""
    n, m = x.shape[0], np.subtract(hi, lo)
    c, means, work = np.empty((m.size, n, n)), np.empty(n), np.empty((n, m.max(initial=0)))
    for k, (a, b) in enumerate(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist())):
        np.add.reduce(x[:, a:b], axis=1, out=means)
        means /= b - a
        xc = np.subtract(x[:, a:b], means[:, None], out=work[:, : b - a])
        np.matmul(xc, xc.T, out=c[k])
    c /= (m - 1)[:, None, None]
    return c


def estimation_window(panel: ReturnPanel, end_row: int, config: BacktestConfig) -> ReturnPanel:
    """The estimation sample for weights taking effect at row ``end_row``.

    Trailing ``window_days`` rows strictly before ``end_row``, minus rows
    whose dates fall in an exclusion window. Exposed so callers can
    reproduce the engine's inputs exactly.
    """
    window = panel.take_rows(end_row - config.window_days, end_row)
    keep = _outside_exclusions(window.dates, config)
    if np.all(keep):
        return window
    return window._rows(keep)


def _outside_exclusions(dates: np.ndarray, config: BacktestConfig) -> np.ndarray:
    """True for each date outside every exclusion window."""
    keep = np.ones(dates.size, dtype=bool)
    for rng in config.exclusion_windows:
        keep &= ~((dates >= rng.start) & (dates <= rng.end))
    return keep


def _rejected(panel: ReturnPanel, t: int, config: BacktestConfig) -> None:
    """Run the public chain ``estimation_window`` -> ``estimate_covariance`` ->
    ``factor_covariance`` -> ``_solved`` on the window for row ``t``, which the
    stacked kernels rejected, so that it raises there as a serial run of the
    chain would. The engine's one call of that chain."""
    try:
        cov = estimate_covariance(estimation_window(panel, t, config), shrinkage=config.shrinkage)
    except NotPositiveDefinite as exc:
        raise SingularCovariance(
            f"estimation window ending before date {int(panel.dates[t])} "
            f"is not factorable: {exc}"
        ) from exc
    _solved(factor_covariance(cov, config.factorization, config._target), config.exposure)


def _leading(ok: np.ndarray) -> int:
    """How many entries of ``ok`` are True before the first False."""
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else ok.size


def _stack(kept: np.ndarray, lo: np.ndarray, hi: np.ndarray, config: BacktestConfig):
    """``(weights, kappas)`` for the windows ``kept[:, lo[k]:hi[k]]`` from the
    stacked kernels, ``shrinkage`` repair included, up to the first window
    the public chain would reject. Raises LinAlgError if a LAPACK call fails
    on the stack; never warns or raises on data."""
    with np.errstate(all="ignore"):  # a failing window only ends the stack
        c = _covariance(kept, lo, hi)
        c = c[: _leading(np.all(np.isfinite(c), axis=(1, 2)))]  # symmetric by construction
        c, w, v = _positive_eig(c, config.shrinkage)
        k = _leading(w[:, 0] > 0.0)
        sigma, pivots, floor, singular = _factors(
            c[:k], w[:k], v[:k], config.factorization, config._target
        )
        k = _leading(~(singular | np.any(pivots <= floor[:, None], axis=1)))
        weights, kappa, _, *fails = _pi_star(sigma[:k], config.exposure)
    k = _leading(~np.any(fails, axis=0))
    return weights[:k], kappa[:k]


def _stacked_weights(panel: ReturnPanel, rows: range, config: BacktestConfig):
    """``(weights, kappas, stop)`` for the rebalances in ``rows``, in order:
    the stacked weights and kappas of the windows up to the first that the
    public chain would reject, and whether there is one (a masked row or too
    few rows are rejected before any arithmetic; a window that ``shrinkage``
    repairs is not). A block holds as many n x n stacks as fit
    ``_STACK_BYTES``; a block on which a LAPACK call fails is re-stacked in
    halves, down to single windows, so the weights keep their bits and a
    single window it fails on is rejected. Never warns or raises on data."""
    n = panel.n_assets
    first = rows[0] - config.window_days
    span = slice(first, rows[-1])
    keep = _outside_exclusions(panel.dates[span], config)
    kept = panel.returns[span].T
    if not np.all(keep):
        kept = kept.compress(keep, axis=1)
    pos = np.concatenate(([0], np.cumsum(keep)))
    masked = np.concatenate(([0], np.cumsum(np.any(panel.missing_mask[span][keep], axis=1))))
    ends = np.asarray(rows) - first
    lo, hi = pos[ends - config.window_days], pos[ends]
    fits = (hi - lo > n) & (masked[hi] == masked[lo])
    size = max(1, _STACK_BYTES // (8 * n * n))
    blocks = [range(i, min(i + size, len(rows))) for i in range(0, len(rows), size)][::-1]
    stacked, stop = [(np.empty((0, n)), np.empty(0))], False  # empty if the first window fails
    while blocks and not stop:  # the next block is the last
        block = blocks.pop()
        a, b = block.start, block.start + _leading(fits[block.start : block.stop])
        try:
            stacked.append(_stack(kept, lo[a:b], hi[a:b], config))
            stop = len(stacked[-1][0]) < len(block)
        except np.linalg.LinAlgError:  # re-stack in halves, down to single windows
            stop = len(block) == 1  # the public chain fails on this window too
            blocks += [block[len(block) // 2 :], block[: len(block) // 2]]
    return *map(np.concatenate, zip(*stacked)), stop


def _all_weights(panel: ReturnPanel, rows: range, config: BacktestConfig) -> np.ndarray:
    """Weights for every rebalance in ``rows``, one row each: chunks of at
    least ``_MIN_CHUNK`` rebalances are stacked in parallel, then this
    process takes them in order up to the first window a chunk rejected,
    warns once per negative kappa, always from one line, and runs the public
    chain on that window, where it raises as in a serial run."""
    parts = fan_out(split(rows, _MIN_CHUNK), lambda chunk: _stacked_weights(panel, chunk, config))
    taken = []
    for weights, kappas, stop in parts:
        taken.append((weights, kappas))
        if stop:
            break
    weights, kappas = map(np.concatenate, zip(*taken))
    for _ in range(np.count_nonzero(kappas < 0.0)):
        warnings.warn(NEGATIVE_KAPPA)
    if stop:
        _rejected(panel, rows[len(weights)], config)
    return weights


def rolling_backtest(panel: ReturnPanel, config: BacktestConfig | None = None) -> BacktestReport:
    """Run the rolling out-of-sample protocol over a full return panel: checks,
    then the weights, then :func:`_account`, then :func:`_summary`."""
    if config is None:
        config = BacktestConfig()
    complete = int(np.sum(~np.any(panel.missing_mask, axis=1)))
    needed = config.window_days + config.reestimate_every
    if complete < needed:
        raise InsufficientHistory(
            f"panel has {complete} complete rows; need at least {needed} "
            f"(window {config.window_days} + cadence {config.reestimate_every})"
        )
    if config._target is not None:
        _require_target_dim(panel.n_assets, config._target)

    start, every = config.window_days, config.reestimate_every
    rows = range(start, panel.n_dates, every)
    masked = np.flatnonzero(np.any(panel.missing_mask[start:], axis=1))
    # A serial run fails at the earliest masked accounting row, and a
    # rebalance on a row comes before that row's accounting.
    cut = int(masked[0]) // every + 1 if masked.size else len(rows)
    weight_history = _all_weights(panel, rows[:cut], config)
    if masked.size:
        t = start + int(masked[0])
        j = int(np.flatnonzero(panel.missing_mask[t])[0])
        raise MissingData(
            f"masked return on accounting date {int(panel.dates[t])}, "
            f"asset {panel.assets[j]}",
            date=int(panel.dates[t]),
            asset=panel.assets[j],
        )

    strategy, benchmark = _account(panel, weight_history, config)
    return BacktestReport(
        dates=panel.dates[start:],
        strategy_returns=strategy,
        benchmark_returns=benchmark,
        rebalance_dates=panel.dates[start::every],
        weight_history=weight_history,
        assets=panel.assets,
        **_summary(strategy, benchmark, config.rf_daily),
    )


def _account(panel: ReturnPanel, weight_history: np.ndarray, config: BacktestConfig):
    """Daily (strategy, 1/n) returns from the first rebalance on. Each
    rebalance's weights hold for its block of ``reestimate_every`` days, the
    last block possibly short, and the rest of the exposure earns rf."""
    start, every = config.window_days, config.reestimate_every
    rf_daily = config.rf_daily
    held = panel.returns[start:]
    k = held.shape[0] // every  # full blocks; each view slice strides as held[t0 : t0 + every]
    cash = (1.0 - weight_history.sum(axis=1)) * rf_daily
    full = np.matmul(held[: k * every].reshape(k, every, -1), weight_history[:k, :, None])
    tail = held[k * every :] @ weight_history[-1] + cash[-1]  # empty unless the last block is short
    strat = np.concatenate(((full[..., 0] + cash[:k, None]).ravel(), tail))
    bench = one_over_n(panel.n_assets, exposure=config.exposure).weights
    bench_series = held @ bench + (1.0 - float(bench.sum())) * rf_daily
    return strat, bench_series


#: The report's summary statistics, in the order they are written and printed.
_SUMMARY_KEYS = ("sharpe_strategy", "sharpe_benchmark", "jk_z", "jk_p",
                 "terminal_wealth_ratio", "volatility_ratio")


def _summary(strategy: np.ndarray, benchmark: np.ndarray, rf_daily: float) -> dict:
    """The ``_SUMMARY_KEYS`` values and ``stats_error`` of two return series. One
    Jobson-Korkie-Memmel test on the excess returns gives the first four, or NaN and
    ``stats_error`` when it cannot run (fewer than 3 days, a constant series or an overflow)."""
    try:
        jk = jobson_korkie_memmel(strategy - rf_daily, benchmark - rf_daily)
        tested, stats_error = (jk.sharpe_1, jk.sharpe_2, jk.z, jk.p_one_sided), None
    except (ZeroVariance, TooFewObservations) as exc:
        tested, stats_error = (math.nan,) * 4, f"{type(exc).__name__}: {exc}"
    with np.errstate(over="ignore", invalid="ignore"):
        wealth_ratio = float(np.prod(1.0 + strategy) / np.prod(1.0 + benchmark))
        sd_strat = float(strategy.std(ddof=1)) if strategy.size > 1 else math.nan
        sd_bench = float(benchmark.std(ddof=1)) if benchmark.size > 1 else math.nan
    values = (*tested, wealth_ratio, sd_strat / sd_bench if sd_bench else math.nan)
    return dict(zip(_SUMMARY_KEYS, values), stats_error=stats_error)
