"""Monte Carlo simulation of the stock model and the optimal-wealth law.

Stock paths are sampled from the exact lognormal transition of the model
(no Euler bias), and wealth follows the exact exponential wealth equation
with piecewise-constant driver exposures. Path i's Brownian increments depend
only on (seed, i), so a set of paths is fully described by its seed, its
grid and the model. ``synthetic_panel``'s one path is the only price path
the package builds.

There is one wealth engine. ``simulate_terminal_wealth`` streams the paths in
blocks, drawing each block's noise into one reused buffer and folding it
straight into log-wealth, so memory is O(block) plus the wealth vector.
Policies run at the same seed see common noise; each run redraws it. The
fold's per-path result does not depend on the block size or on where a chunk
starts, so a large run splits into contiguous chunks of paths, one per CPU,
that the package's one fork helper maps over; forked workers return only
their chunk's log-wealth, which is joined in order, with the same bits at any
lane count. ``simulate_paths`` and ``replay_wealth`` remain for the
benchmark's imports: the first validates a run and returns its recipe as a
``PathSet``, and the second runs the engine on that recipe.

The closed-form law of the optimal wealth is lognormal:
``log W(t) ~ Normal(log w + (lambda - kappa^2 / (2n)) t, kappa^2 t / n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fanout import fan_out, split
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
    """The recipe of ``n_paths`` paths of ``n_assets`` stocks on the grid
    ``times``, drawn from ``seed``; :func:`replay_wealth` redraws them."""

    times: np.ndarray
    n_paths: int
    seed: int
    n_assets: int

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


#: numpy's ``PCG64.jumped`` step, (phi - 1) * 2**128 rounded up to an odd
#: number: ``advance(_JUMP * i)`` from the seed state is ``jumped(i)``.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

#: Bytes of working memory per block of paths: its increments and the fold's
#: terms, 74 paths at 5 assets and 252 steps, 10 at 47. On a 2-CPU Xeon host
#: with 2 MiB of L2 per core, the fold missed the cache on 8 MiB blocks (594
#: paths took 4.3 ms, 2.2 ms in 1 MiB slabs; 85 at 47 assets 7.5, then 5.8 ms).
#: In 1 MiB blocks it took 5.9 us a path at 5 assets and 45 us at 47, against
#: 7.3 and 110 us in slabs, and ``simulate``'s peak fell from 45.1 to 38.8 MB.
_BLOCK_BYTES = 1 << 20

#: Fewest normal draws (paths x steps x assets) worth a worker process of
#: their own in the wealth engine. On a 2-CPU Linux host with one BLAS
#: thread, forking a worker, returning its log-wealth and joining it cost
#: 5-8 ms, and a path at 5 assets and 252 steps took 55 us (0.22 us a draw),
#: about 10% more while a second lane ran. Two lanes broke even near 0.8-1M
#: draws (600-800 paths at 5 assets, 60 at 47); 1,000 paths at 5 assets took
#: 51 ms, not 56 ms, and 20,000 took 0.58 s, not 1.01 s.
_MIN_LANE_WORK = 500_000


def _block_rows(steps: int, n: int) -> int:
    """Paths per block: a block of increments plus the fold's
    (paths, 2 * steps) terms fit in ``_BLOCK_BYTES``."""
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


def _check_run(horizon: float, steps: int, n_paths: int, seed: int) -> None:
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("horizon must be finite and positive")
    if steps < 1 or n_paths < 1:
        raise ValueError("steps and n_paths must be >= 1")
    np.random.PCG64(seed)  # a bad seed raises here, not in a worker


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
    """Stock paths on a uniform grid over [0, horizon], as the ``PathSet``
    recipe; nothing is drawn here."""
    _check_run(horizon, steps, n_paths, seed)
    return PathSet(np.linspace(0.0, horizon, steps + 1), n_paths, seed, params.n)


def _one_path_prices(params: ModelParams, horizon: float, steps: int, seed: int) -> np.ndarray:
    """Prices (steps + 1, assets) of path 0 at ``seed`` on a uniform grid
    over [0, horizon], starting at 1.

    Sampling is exact in distribution: per-step log increments are
    ``(r - 0.5 sum_j sigma_ij^2 + (mu - r) sum_j sigma_ij) dt
    + sum_j sigma_ij dB_j``, so moment tests carry no discretization bias.
    Raises ``ValueError`` if a price underflows to 0.
    """
    sig = params.sigma.entries
    dt = horizon / steps
    increments = np.empty((1, steps, params.n))
    _per_path_increments(seed, 0, increments, dt)
    log_steps = increments[0] @ sig.T
    row_sq = (sig ** 2).sum(axis=1)
    row_sum = sig.sum(axis=1)
    log_steps += (params.r - 0.5 * row_sq + (params.mu - params.r) * row_sum) * dt
    prices = np.empty((steps + 1, params.n))
    prices[0] = 0.0
    np.cumsum(log_steps, axis=0, out=prices[1:])
    np.exp(prices, out=prices)
    if not prices.min() > 0.0:
        raise ValueError("prices must be strictly positive")
    return prices


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
    terms: np.ndarray,
) -> None:
    """Add each path's log-wealth change to ``log_w``; ``increments`` is
    overwritten. Row i of ``terms`` (paths, 2 * steps) takes path i's drift
    and driver sum of each step in turn, and one running sum along the row
    adds them in that order. The driver sum is an elementwise
    multiply-accumulate rather than a matrix product, whose rounding can
    depend on the row count, so every row's result is independent of how
    paths are split into blocks.
    """
    increments *= exposures
    sums = terms[:, 1::2]
    np.copyto(sums, increments[:, :, 0])
    for j in range(1, increments.shape[2]):
        sums += increments[:, :, j]
    terms[:, ::2] = drifts
    np.add.accumulate(terms, axis=1, out=terms)
    log_w += terms[:, -1]


def _stream_wealth(
    seed: int, paths: range, dt: float, exposures: np.ndarray, drifts: np.ndarray
) -> np.ndarray:
    """Log-wealth of each of ``paths``, drawing each block of paths into one
    reused buffer and folding it in one reused array of terms."""
    steps, n = exposures.shape
    rows = min(len(paths), _block_rows(steps, n))
    buffer = np.empty((rows, steps, n))
    terms = np.empty((rows, 2 * steps))
    log_w = np.zeros(len(paths))
    for a in range(0, len(paths), rows):
        block = buffer[: len(paths) - a]
        _per_path_increments(seed, paths.start + a, block, dt)
        _fold_wealth(log_w[a : a + rows], block, exposures, drifts, terms[: len(block)])
    return log_w


def replay_wealth(
    paths: PathSet,
    policy: PolicySource,
    params: ModelParams,
    w0: float,
) -> np.ndarray:
    """Terminal wealth per path of ``paths`` under a (possibly per-step)
    weight policy.

    Wealth follows the exact exponential wealth equation with the driver
    exposures p = sigma' pi held constant within each step; every terminal
    wealth is therefore strictly positive. The paths' noise is redrawn from
    their seed by :func:`simulate_terminal_wealth`.
    """
    if paths.n_assets != params.n:
        raise DimensionMismatch(
            f"path set has {paths.n_assets} assets but parameters have {params.n}"
        )
    horizon = float(paths.times[-1])
    return simulate_terminal_wealth(
        params, policy, horizon, paths.n_steps, paths.n_paths, paths.seed, w0
    )


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

    No price path or full increment tensor is kept: each block's noise is
    drawn into one reused buffer and folded straight into log-wealth, so
    memory is O(block) plus the wealth vector.
    Runs of at least ``2 * _MIN_LANE_WORK`` draws split the paths into
    contiguous chunks, one per CPU, and fold all but the first in forked
    workers, which return only their log-wealth.
    """
    _check_run(horizon, steps, n_paths, seed)
    _check_w0(w0)
    dt = horizon / steps
    exposures, drifts = _step_exposures(policy, params, steps, dt)
    chunks = fan_out(
        split(range(n_paths), -(-_MIN_LANE_WORK // (steps * params.n))),
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
        if not 0.0 < self.w < math.inf:
            raise ValueError("initial wealth w must be finite and positive")
        if not math.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and nonnegative")
        if self.n < 1:
            raise ValueError("asset count must be >= 1")
        if not 0.0 <= self.t < math.inf:
            raise ValueError("horizon t must be finite and nonnegative")

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
