"""Performance statistics: Sharpe ratios and a paired Sharpe-difference test.

The difference test is the Jobson-Korkie statistic with Memmel's variance
correction, applied to two excess-return series observed over the same
dates. Its null is equal Sharpe ratios; the reported one-sided p-value is
the upper tail, so small values favor the first series.

Everything here is per-period (daily in, daily out). Annualization is a
formatting concern and never enters the test statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, TooFewObservations, ZeroVariance

__all__ = [
    "SharpeResult",
    "JKTestResult",
    "sharpe",
    "jobson_korkie_memmel",
    "normal_upper_tail",
]

#: Sample standard deviations at or below this are treated as degenerate.
ZERO_SD_TOL = 1e-15


@dataclass(frozen=True)
class SharpeResult:
    """Per-period Sharpe ratio with the excess-return moments behind it."""

    mean_excess: float
    sd_excess: float
    ratio: float
    n_obs: int


@dataclass(frozen=True)
class JKTestResult:
    """Sharpe-difference test between two same-length excess return series.

    z is oriented as sharpe_1 - sharpe_2, so positive z favors the first
    series and p_one_sided is the upper-tail probability P(Z > z).
    """

    z: float
    p_one_sided: float
    rho: float
    sharpe_1: float
    sharpe_2: float

    @property
    def p_two_sided(self) -> float:
        return math.erfc(abs(self.z) / math.sqrt(2.0))


def _as_series(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _excess_moments(excess: np.ndarray, min_obs: int) -> tuple[float, float]:
    t = excess.size
    if t < min_obs:
        raise TooFewObservations(
            f"need at least {min_obs} observations, got {t}"
        )
    mean = float(excess.mean())
    sd = float(excess.std(ddof=1))
    if sd <= ZERO_SD_TOL:
        raise ZeroVariance(
            f"sample standard deviation {sd:.3e} is at or below {ZERO_SD_TOL:.0e}"
        )
    return mean, sd


def sharpe(returns, rf_daily: float) -> SharpeResult:
    """Per-period Sharpe ratio: mean(r - rf) / sd(r - rf), sd with ddof 1.

    No annualization. Raises TooFewObservations below two points and
    ZeroVariance when the excess returns are effectively constant.
    """
    r = _as_series(returns, "returns")
    mean, sd = _excess_moments(r - rf_daily, min_obs=2)
    return SharpeResult(mean_excess=mean, sd_excess=sd, ratio=mean / sd, n_obs=r.size)


def normal_upper_tail(z: float) -> float:
    """P(Z > z) for standard normal Z, stable in both tails."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def jobson_korkie_memmel(r1, r2) -> JKTestResult:
    """Jobson-Korkie test of equal Sharpe ratios, Memmel's correction.

    Inputs are excess-return series (already net of the risk-free rate).
    z = (s1 - s2) / sqrt(theta) with
    theta = (1/T) [2 (1 - rho) + (s1^2 + s2^2 - 2 s1 s2 rho^2) / 2],
    rho the sample correlation of the series. When theta vanishes (the
    series are effectively identical) z is 0 and p is 0.5. A constant
    series, or moments that overflow, raise ZeroVariance.
    """
    a = _as_series(r1, "r1")
    b = _as_series(r2, "r2")
    if a.size != b.size:
        raise LengthMismatch(f"series lengths differ: {a.size} vs {b.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is judged below
        mean_a, sd_a = _excess_moments(a, min_obs=3)
        mean_b, sd_b = _excess_moments(b, min_obs=3)
        cov = float(np.cov(a, b, ddof=1)[0, 1])
    if not all(map(math.isfinite, (mean_a, mean_b, sd_a, sd_b, cov))):
        raise ZeroVariance(f"sample moments overflow: sd {sd_a:.3e} and {sd_b:.3e}, cov {cov:.3e}")
    t = a.size

    rho = cov / (sd_a * sd_b)
    rho = min(1.0, max(-1.0, rho))

    s1 = mean_a / sd_a
    s2 = mean_b / sd_b
    theta = (2.0 * (1.0 - rho) + 0.5 * (s1 ** 2 + s2 ** 2 - 2.0 * s1 * s2 * rho ** 2)) / t
    z = 0.0 if theta <= 0.0 else (s1 - s2) / math.sqrt(theta)
    return JKTestResult(
        z=z,
        p_one_sided=normal_upper_tail(z),
        rho=rho,
        sharpe_1=s1,
        sharpe_2=s2,
    )
