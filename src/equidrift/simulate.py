"""Monte Carlo simulation of the stock model and the optimal-wealth law.

Stock paths are sampled from the exact lognormal transition of the model
(no Euler bias), and wealth follows the exact exponential wealth equation
with piecewise-constant driver exposures. There are two entry points:

- ``simulate_paths`` keeps the prices and the Brownian increments of every
  path in a ``PathSet``; ``replay_wealth`` folds a policy over those
  retained increments, so competing strategies are compared on common
  noise. Memory is O(paths x steps x assets).
- ``simulate_terminal_wealth`` streams the paths in blocks and keeps only
  terminal wealth. Memory is O(block) plus the wealth vector. Large runs
  split the paths into contiguous chunks, one per CPU, and map the fold
  over them with the package's one fork helper: forked workers fold all but
  the first and return only their log-wealth, which is joined in order.

Both share one noise kernel, in which path i's increments depend only on
(seed, i), and one wealth fold whose per-path result does not depend on
the block size or on where a chunk starts. So for the same arguments
``simulate_terminal_wealth`` is bitwise equal to
``replay_wealth(simulate_paths(...))`` at any lane count. ``simulate_paths``
and ``replay_wealth`` stay serial.

The closed-form law of the optimal wealth is lognormal:
``log W(t) ~ Normal(log w + (lambda - kappa^2 / (2n)) t, kappa^2 t / n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fanout import fan_out
from .errors import DimensionMismatch, NonPositiveGridPoint
from .model import ModelParams
from .strategy import PolicySource, WeightVector

__all__ = [
    "PathSet",
    "WealthLaw",
    "simulate_paths",
    "replay_wealth",
    "simulate_terminal_wealth",
    "optimal_wealth_moments",
    "optimal_wealth_density",
]


@dataclass(frozen=True)
class PathSet:
    """Simulated stock paths plus the Brownian increments that drove them.

    ``prices`` has shape (paths, steps + 1, assets) including the t = 0
    row; ``driver_increments`` has shape (paths, steps, drivers) and is
    retained so wealth replay runs on identical randomness.
    """

    times: np.ndarray
    prices: np.ndarray
    driver_increments: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("times", "prices", "driver_increments"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.prices.ndim != 3 or self.driver_increments.ndim != 3:
            raise ValueError("prices and driver_increments must be 3-d arrays")
        if not np.all(self.prices > 0.0):
            raise ValueError("prices must be strictly positive")

    @property
    def n_paths(self) -> int:
        return self.prices.shape[0]

    @property
    def n_steps(self) -> int:
        return self.driver_increments.shape[1]

    @property
    def n_assets(self) -> int:
        return self.prices.shape[2]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


#: numpy's ``PCG64.jumped`` step, (phi - 1) * 2**128 rounded up to an odd
#: number: ``advance(_JUMP * i)`` from the seed state is ``jumped(i)``.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

#: Bytes of working memory per block of paths.
_BLOCK_BYTES = 8 << 20

#: Fewest normal draws (paths x steps x assets) worth a worker process of
#: their own in ``simulate_terminal_wealth``. On a 2-CPU Linux host with one
#: BLAS thread, forking a worker, returning its log-wealth and joining it
#: cost 5-8 ms, and a path at 5 assets and 252 steps took 55 us (0.22 us a
#: draw), about 10% more while a second lane ran. Two lanes broke even near
#: 0.8-1M draws (600-800 paths at 5 assets, 60 at 47); 1,000 paths at 5
#: assets took 51 ms, not 56 ms, and 20,000 took 0.58 s, not 1.01 s.
_MIN_LANE_WORK = 500_000


def _block_rows(steps: int, n: int) -> int:
    """Paths per block: a block of increments plus two (paths, steps)
    temporaries fit in ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * steps * (n + 2)))


def _per_path_increments(seed: int, start: int, out: np.ndarray, dt: float) -> None:
    """Fill ``out`` with the Brownian increments of paths ``start``,
    ``start + 1``, ... (one path per leading row), one substream per path.

    Path i draws from the seed stream jumped i times, so path i's noise
    depends only on (seed, i): results do not change however the paths are
    split into blocks.
    """
    bit_gen = np.random.PCG64(seed)
    gen = np.random.Generator(bit_gen)
    origin = bit_gen.state
    for i, row in enumerate(out, start):
        bit_gen.state = origin
        bit_gen.advance(_JUMP * i)
        gen.standard_normal(out=row)
    out *= math.sqrt(dt)


def _check_run(horizon: float, steps: int, n_paths: int) -> None:
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("horizon must be finite and positive")
    if steps < 1 or n_paths < 1:
        raise ValueError("steps and n_paths must be >= 1")


def _check_w0(w0: float) -> None:
    if not (math.isfinite(w0) and w0 > 0.0):
        raise ValueError("initial wealth must be finite and positive")


def simulate_paths(
    params: ModelParams,
    horizon: float,
    steps: int,
    n_paths: int,
    seed: int,
) -> PathSet:
    """Sample stock paths on a uniform grid over [0, horizon].

    Sampling is exact in distribution: per-step log increments are
    ``(r - 0.5 sum_j sigma_ij^2 + (mu - r) sum_j sigma_ij) dt
    + sum_j sigma_ij dB_j``, so moment tests carry no discretization bias.
    Deterministic for a fixed seed.
    """
    _check_run(horizon, steps, n_paths)
    sig = params.sigma.entries
    n = params.n
    dt = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)

    row_sq = (sig ** 2).sum(axis=1)
    row_sum = sig.sum(axis=1)
    drift = (params.r - 0.5 * row_sq + (params.mu - params.r) * row_sum) * dt

    increments = np.empty((n_paths, steps, n))
    _per_path_increments(seed, 0, increments, dt)
    # Log-prices are built in place a block of paths at a time, so the only
    # temporary is one block of log increments.
    log_prices = np.empty((n_paths, steps + 1, n))
    log_prices[:, 0] = 0.0
    rows = _block_rows(steps, n)
    for start in range(0, n_paths, rows):
        block = slice(start, start + rows)
        log_steps = increments[block] @ sig.T
        log_steps += drift
        np.cumsum(log_steps, axis=1, out=log_prices[block, 1:])
    log_prices += np.log(params.s0)
    return PathSet(
        times=times,
        prices=np.exp(log_prices, out=log_prices),
        driver_increments=increments,
        seed=seed,
    )


def _policy_weights(policy: PolicySource, step: int, n: int) -> np.ndarray:
    pi = policy(step) if callable(policy) else policy
    if not isinstance(pi, WeightVector):
        raise TypeError("policy must yield WeightVector instances")
    if pi.n != n:
        raise DimensionMismatch(
            f"policy weights have length {pi.n}, expected {n}"
        )
    return pi.weights


def _step_exposures(
    policy: PolicySource, params: ModelParams, steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step driver exposures ``p_k = sigma' pi_k`` (steps, n) and the
    log-wealth drift of each step; the policy is called once per step."""
    sig = params.sigma.entries
    excess = params.mu - params.r
    exposures = np.empty((steps, params.n))
    drifts = np.empty(steps)
    for k in range(steps):
        p = sig.T @ _policy_weights(policy, k, params.n)
        exposures[k] = p
        drifts[k] = (p.sum() * excess - 0.5 * (p ** 2).sum() + params.r) * dt
    return exposures, drifts


def _fold_wealth(
    log_w: np.ndarray,
    increments: np.ndarray,
    exposures: np.ndarray,
    drifts: np.ndarray,
) -> None:
    """Add each step's log-wealth change to ``log_w``, one row per path.

    The driver sum is an elementwise multiply-accumulate rather than a
    matrix product, whose rounding can depend on the row count, so every
    row's result is independent of how paths are split into blocks.
    """
    step_sums = increments[:, :, 0] * exposures[:, 0]
    for j in range(1, increments.shape[2]):
        step_sums += increments[:, :, j] * exposures[:, j]
    for k, drift in enumerate(drifts):
        log_w += drift
        log_w += step_sums[:, k]


def replay_wealth(
    paths: PathSet,
    policy: PolicySource,
    params: ModelParams,
    w0: float,
) -> np.ndarray:
    """Terminal wealth per path under a (possibly per-step) weight policy.

    Wealth follows the exact exponential wealth equation with the driver
    exposures p = sigma' pi held constant within each step, driven by the
    path set's retained increments; every terminal wealth is therefore
    strictly positive.
    """
    _check_w0(w0)
    n = params.n
    if paths.n_assets != n:
        raise DimensionMismatch(
            f"path set has {paths.n_assets} assets but parameters have {n}"
        )
    exposures, drifts = _step_exposures(policy, params, paths.n_steps, paths.dt)
    log_w = np.zeros(paths.n_paths)
    rows = _block_rows(paths.n_steps, n)
    for start in range(0, paths.n_paths, rows):
        block = slice(start, start + rows)
        _fold_wealth(log_w[block], paths.driver_increments[block], exposures, drifts)
    return w0 * np.exp(log_w)


def _stream_wealth(
    seed: int, paths: range, dt: float, exposures: np.ndarray, drifts: np.ndarray
) -> np.ndarray:
    """Log-wealth of each of ``paths``, drawing and folding a block of paths
    at a time into one reused buffer."""
    steps, n = exposures.shape
    log_w = np.zeros(len(paths))
    rows = min(log_w.size, _block_rows(steps, n))
    buffer = np.empty((rows, steps, n))
    for a in range(0, log_w.size, rows):
        block = buffer[: min(rows, log_w.size - a)]
        _per_path_increments(seed, paths.start + a, block, dt)
        _fold_wealth(log_w[a : a + rows], block, exposures, drifts)
    return log_w


def simulate_terminal_wealth(
    params: ModelParams,
    policy: PolicySource,
    horizon: float,
    steps: int,
    n_paths: int,
    seed: int,
    w0: float,
) -> np.ndarray:
    """Terminal wealth per path, streamed in blocks of paths.

    Bitwise equal to ``replay_wealth(simulate_paths(params, horizon, steps,
    n_paths, seed), policy, params, w0)``, but no price path or full
    increment tensor is kept: each block's noise is drawn into one reused
    buffer and folded straight into log-wealth, so memory is O(block) plus
    the wealth vector. Runs of at least ``2 * _MIN_LANE_WORK`` draws split
    the paths into contiguous chunks, one per CPU, and fold all but the
    first in forked workers, which return only their log-wealth.
    """
    _check_run(horizon, steps, n_paths)
    _check_w0(w0)
    dt = horizon / steps
    exposures, drifts = _step_exposures(policy, params, steps, dt)
    np.random.PCG64(seed)  # a bad seed raises here, not in a worker
    chunks = fan_out(
        range(n_paths),
        -(-_MIN_LANE_WORK // (steps * params.n)),
        lambda paths: _stream_wealth(seed, paths, dt, exposures, drifts),
    )
    return w0 * np.exp(np.concatenate(chunks))


@dataclass(frozen=True)
class WealthLaw:
    """Closed-form lognormal law of the optimal wealth at horizon t.

    ``kappa`` is (lambda - r)/(mu - r); the law depends on the volatility
    matrix only through kappa and the asset count n.
    """

    w: float
    lam: float
    kappa: float
    n: int
    t: float

    def __post_init__(self):
        if self.w <= 0.0:
            raise ValueError("initial wealth must be positive")
        if self.n < 1:
            raise ValueError("asset count must be >= 1")
        if self.t < 0.0:
            raise ValueError("horizon must be nonnegative")
        if not self.kappa >= 0.0:
            raise ValueError("kappa must be nonnegative")

    @classmethod
    def from_rates(cls, w: float, lam: float, mu: float, r: float, n: int, t: float) -> "WealthLaw":
        """Build the law from explicit rates; kappa = (lam - r)/(mu - r)."""
        if mu <= r:
            raise ValueError("mu must exceed r")
        if lam < r:
            raise ValueError("lambda must be >= r")
        return cls(w=w, lam=lam, kappa=(lam - r) / (mu - r), n=n, t=t)

    @property
    def log_mean(self) -> float:
        return math.log(self.w) + (self.lam - self.kappa ** 2 / (2 * self.n)) * self.t

    @property
    def log_sd(self) -> float:
        return self.kappa * math.sqrt(self.t / self.n)


def optimal_wealth_moments(law: WealthLaw) -> tuple[float, float]:
    """Mean and variance of the optimal terminal wealth.

    mean = w e^{lam t};  variance = w^2 e^{2 lam t} (e^{kappa^2 t / n} - 1).
    """
    mean = law.w * math.exp(law.lam * law.t)
    variance = law.w ** 2 * math.exp(2 * law.lam * law.t) * math.expm1(
        law.kappa ** 2 * law.t / law.n
    )
    return mean, variance


def optimal_wealth_density(law: WealthLaw, grid) -> np.ndarray:
    """Lognormal density of the optimal wealth evaluated on a grid of levels."""
    x = np.asarray(grid, dtype=float)
    if np.any(x <= 0.0):
        raise NonPositiveGridPoint("wealth levels must be strictly positive")
    s = law.log_sd
    if s <= 0.0:
        raise ValueError("law is degenerate (zero log-sd); density undefined")
    z = (np.log(x) - law.log_mean) / s
    return np.exp(-0.5 * z ** 2) / (x * s * math.sqrt(2.0 * math.pi))
