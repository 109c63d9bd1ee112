"""Parameters of the equal-drift stock model and the returns they imply.

Each asset i follows a geometric Brownian motion driven by n independent
Brownian motions that all carry the same positive drift mu - r.  The
volatility matrix therefore fixes not just the covariance structure but the
expected returns: the continuously compounded rate of asset i is
``r + (mu - r) * sum_j sigma_ij``.

Rates are stored per year; daily quantities use the 252-trading-day
convention throughout the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factorization import VolMatrix

__all__ = ["TRADING_DAYS_PER_YEAR", "ModelParams", "ReturnProfile", "expected_returns"]

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class ModelParams:
    """Volatility matrix, drift parameter and risk-free rate.

    ``mu`` and ``r`` are annual rates; the fully-invested strategy never
    needs them, but simulation and explicit required-rate strategies do.
    Prices start at 1: weights, wealth and returns are price ratios, so the
    initial prices cancel out of all of them.
    """

    sigma: VolMatrix
    mu: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.r < math.inf:
            raise ValueError("risk-free rate r must be finite and positive")
        if not self.r < self.mu < math.inf:
            raise ValueError("drift parameter mu must be finite and exceed r")

    @property
    def n(self) -> int:
        return self.sigma.dim


@dataclass(frozen=True)
class ReturnProfile:
    """Expected returns and market prices of risk implied by the model.

    ``mu_c[i]`` is the continuously compounded expected rate of asset i,
    ``nu[i]`` its excess return per unit of return standard deviation, and
    ``row_sums[i]`` the volatility-matrix row sum that drives both.
    """

    mu_c: np.ndarray
    nu: np.ndarray
    row_sums: np.ndarray

    def __post_init__(self):
        for name in ("mu_c", "nu", "row_sums"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        if not (self.mu_c.shape == self.nu.shape == self.row_sums.shape):
            raise ValueError("profile vectors must share one length")


def expected_returns(params: ModelParams) -> ReturnProfile:
    """Expected returns and market prices of risk for the model parameters.

    With C = sigma sigma', asset i has continuously compounded rate
    ``mu_c_i = r + (mu - r) * sum_j sigma_ij`` and market price of risk
    ``nu_i = (mu - r) * sum_j sigma_ij / sqrt(C_ii)``.
    """
    sig = params.sigma.entries
    row_sums = sig.sum(axis=1)
    excess = params.mu - params.r
    mu_c = params.r + excess * row_sums
    vol_i = np.sqrt((sig ** 2).sum(axis=1))
    nu = excess * row_sums / vol_i
    return ReturnProfile(mu_c=mu_c, nu=nu, row_sums=row_sums)
