"""Reference results computed with numpy alone; nothing here imports equidrift.

The backtest oracle recomputes the rolling protocol from the values the
benchmark itself wrote: trailing-window sample covariance, a factor
(``eigh`` symmetric root, ``np.linalg.cholesky``, or Cholesky rotated toward
a target by Procrustes), one refined ``solve`` for the equal-exposure
weights, block-wise daily returns, and the six summary values. It agrees
with the engine to about 1e-14 relative, so the tolerances below leave
several orders of magnitude of room while still catching any real change
of a stored number.

The Monte Carlo oracle is the closed-form lognormal law of optimal
terminal wealth, with standard errors for the sample mean and variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUMMARY_KEYS = (
    "sharpe_strategy",
    "sharpe_benchmark",
    "jk_z",
    "jk_p",
    "terminal_wealth_ratio",
    "volatility_ratio",
)

#: Weights may differ from the oracle by this much, relative to the row's
#: largest |weight|.
WEIGHT_RTOL = 1e-9
#: Daily returns may differ from the oracle by this much (absolute).
RETURN_ATOL = 1e-12
#: Summary values: relative and absolute tolerance.
SUMMARY_RTOL = 1e-9
SUMMARY_ATOL = 1e-12
#: Monte Carlo moments must sit within this many standard errors of theory.
MC_SIGMAS = 5.0


@dataclass(frozen=True)
class BacktestSpec:
    window: int
    every: int
    method: str
    exposure: float
    rf_annual: float
    excluded: tuple[tuple[int, int], ...]
    target: np.ndarray | None = None


@dataclass(frozen=True)
class BacktestReference:
    rebalance_dates: np.ndarray
    weights: np.ndarray
    dates: np.ndarray
    strategy: np.ndarray
    benchmark: np.ndarray
    summary: dict[str, float]


def _factor(c: np.ndarray, spec: BacktestSpec) -> np.ndarray:
    if spec.method == "sym_sqrt":
        w, v = np.linalg.eigh(c)
        s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        return 0.5 * (s + s.T)
    lower = np.linalg.cholesky(c)
    if spec.method == "cholesky":
        return lower
    u, _, wt = np.linalg.svd(lower.T @ spec.target)
    return lower @ (u @ wt)


def _weights(factor: np.ndarray, exposure: float) -> np.ndarray:
    a = factor.T
    ones = np.ones(a.shape[0])
    x = np.linalg.solve(a, ones)
    x = x - np.linalg.solve(a, a @ x - ones)
    return exposure * x / x.sum()


def backtest(dates: np.ndarray, returns: np.ndarray, spec: BacktestSpec) -> BacktestReference:
    """The rolling out-of-sample protocol on a complete (no missing) panel."""
    n_dates, n = returns.shape
    rf_daily = spec.rf_annual / 252
    keep_all = np.ones(n_dates, dtype=bool)
    for start, end in spec.excluded:
        keep_all &= ~((dates >= start) & (dates <= end))

    starts = list(range(spec.window, n_dates, spec.every))
    weights = np.empty((len(starts), n))
    strategy = np.empty(n_dates - spec.window)
    for k, t0 in enumerate(starts):
        rows = slice(t0 - spec.window, t0)
        sample = returns[rows][keep_all[rows]]
        c = np.cov(sample, rowvar=False, ddof=1)
        w = _weights(_factor(0.5 * (c + c.T), spec), spec.exposure)
        weights[k] = w
        t1 = min(t0 + spec.every, n_dates)
        strategy[t0 - spec.window:t1 - spec.window] = (
            returns[t0:t1] @ w + (1.0 - w.sum()) * rf_daily
        )
    bench_w = np.full(n, spec.exposure / n)
    benchmark = returns[spec.window:] @ bench_w + (1.0 - bench_w.sum()) * rf_daily
    return BacktestReference(
        rebalance_dates=dates[starts],
        weights=weights,
        dates=dates[spec.window:],
        strategy=strategy,
        benchmark=benchmark,
        summary=_summary(strategy, benchmark, rf_daily),
    )


def _summary(strat: np.ndarray, bench: np.ndarray, rf_daily: float) -> dict[str, float]:
    a = strat - rf_daily
    b = bench - rf_daily
    sd_a = a.std(ddof=1)
    sd_b = b.std(ddof=1)
    s1 = a.mean() / sd_a
    s2 = b.mean() / sd_b
    rho = min(1.0, max(-1.0, np.cov(a, b, ddof=1)[0, 1] / (sd_a * sd_b)))
    theta = (2.0 * (1.0 - rho) + 0.5 * (s1**2 + s2**2 - 2.0 * s1 * s2 * rho**2)) / a.size
    z = (s1 - s2) / math.sqrt(theta)
    return {
        "sharpe_strategy": float(s1),
        "sharpe_benchmark": float(s2),
        "jk_z": float(z),
        "jk_p": 0.5 * math.erfc(z / math.sqrt(2.0)),
        "terminal_wealth_ratio": float(np.prod(1.0 + strat) / np.prod(1.0 + bench)),
        "volatility_ratio": float(strat.std(ddof=1) / bench.std(ddof=1)),
    }


def compare_backtest(
    ref: BacktestReference,
    rebalance_dates,
    weights,
    dates,
    strategy,
    benchmark,
    summary: dict[str, float],
) -> list[str]:
    """Problems found comparing a backtest result with the reference."""
    problems = []
    weights = np.asarray(weights, dtype=float)
    if not np.array_equal(np.asarray(rebalance_dates), ref.rebalance_dates):
        problems.append("rebalance dates differ from the oracle")
    elif weights.shape != ref.weights.shape:
        problems.append(f"weights have shape {weights.shape}, oracle {ref.weights.shape}")
    else:
        scale = np.maximum(1.0, np.abs(ref.weights).max(axis=1, keepdims=True))
        err = float((np.abs(weights - ref.weights) / scale).max())
        if not err <= WEIGHT_RTOL:
            problems.append(f"weights differ from the oracle by {err:.3e} relative")
    if not np.array_equal(np.asarray(dates), ref.dates):
        problems.append("return dates differ from the oracle")
    else:
        for name, got, want in (
            ("strategy", strategy, ref.strategy),
            ("benchmark", benchmark, ref.benchmark),
        ):
            err = float(np.abs(np.asarray(got, dtype=float) - want).max())
            if not err <= RETURN_ATOL:
                problems.append(f"{name} returns differ from the oracle by {err:.3e}")
    for key in SUMMARY_KEYS:
        got, want = summary.get(key, math.nan), ref.summary[key]
        if not abs(got - want) <= SUMMARY_ATOL + SUMMARY_RTOL * abs(want):
            problems.append(f"{key} is {got!r}, oracle {want!r}")
    return problems


@dataclass(frozen=True)
class WealthReference:
    mean: float
    variance: float
    se_mean: float
    se_variance: float


def wealth_moments(lam: float, mu: float, r: float, n: int, t: float, w0: float, paths: int) -> WealthReference:
    """Closed-form mean and variance of optimal terminal wealth, with the
    standard errors of their Monte Carlo estimates over ``paths`` draws.

    log W ~ Normal(m, s2) with s2 = kappa^2 t / n; the sample variance has
    variance var^2 (excess kurtosis + 2) / paths for a lognormal.
    """
    kappa = (lam - r) / (mu - r)
    s2 = kappa**2 * t / n
    mean = w0 * math.exp(lam * t)
    variance = mean**2 * math.expm1(s2)
    kurt = math.exp(4 * s2) + 2 * math.exp(3 * s2) + 3 * math.exp(2 * s2) - 6
    return WealthReference(
        mean=mean,
        variance=variance,
        se_mean=math.sqrt(variance / paths),
        se_variance=variance * math.sqrt((kurt + 2) / paths),
    )


def compare_wealth(ref: WealthReference, mc_mean: float, mc_var: float) -> list[str]:
    problems = []
    if not abs(mc_mean - ref.mean) <= MC_SIGMAS * ref.se_mean:
        problems.append(f"MC mean {mc_mean} is more than {MC_SIGMAS} se from {ref.mean}")
    if not abs(mc_var - ref.variance) <= MC_SIGMAS * ref.se_variance:
        problems.append(f"MC variance {mc_var} is more than {MC_SIGMAS} se from {ref.variance}")
    return problems
