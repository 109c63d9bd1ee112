"""Monte Carlo simulation of the stock model and the optimal-wealth law.

Stock paths are sampled from the exact lognormal transition of the model
(no Euler bias), and wealth follows the exact exponential wealth equation
with piecewise-constant driver exposures. There are two entry points:

- ``simulate_paths`` keeps the prices and the Brownian increments of every
  path in a ``PathSet``; ``replay_wealth`` folds a policy over those
  retained increments, so competing strategies are compared on common
  noise. Memory is O(paths x steps x assets).
- ``simulate_terminal_wealth`` streams the paths in blocks and keeps only
  terminal wealth. Memory is O(block) plus the wealth vector.

Both share one noise kernel, in which path i's increments depend only on
(seed, i), and one wealth fold whose per-path result does not depend on
the block size or on where a chunk starts. So ``simulate_paths``,
``replay_wealth`` and ``simulate_terminal_wealth`` each split a large run
into contiguous chunks of paths, one per CPU, and map over them with the
package's one fork helper, with the same bits at any lane count. Forked
workers of ``simulate_paths`` write their paths into arrays the helper
shares with the caller; those of the other two return only their chunk's
log-wealth, which is joined in order. For the same arguments
``simulate_terminal_wealth`` is bitwise equal to
``replay_wealth(simulate_paths(...))``.

The closed-form law of the optimal wealth is lognormal:
``log W(t) ~ Normal(log w + (lambda - kappa^2 / (2n)) t, kappa^2 t / n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fanout import empty, fan_out, split
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

#: Bytes of increments per slab of the wealth fold's driver sum, whose
#: strided reads of a whole 8 MiB block missed the cache. On a 2-CPU Xeon host
#: with 2 MiB of L2 per core, a 594-path block at 5 assets and 252 steps
#: folded in 4.3 ms, and in 2.2 ms in slabs of 1 MiB; 85 paths at 47 assets
#: took 7.5 ms, then 5.8 ms.
_SLAB_BYTES = 1 << 20

#: Fewest normal draws (paths x steps x assets) worth a worker process of
#: their own in ``simulate_terminal_wealth`` and ``simulate_paths``. On a
#: 2-CPU Linux host with one BLAS thread, forking a worker, returning its
#: log-wealth and joining it cost 5-8 ms, and a path at 5 assets and 252
#: steps took 55 us (0.22 us a draw), about 10% more while a second lane ran.
#: Two lanes broke even near 0.8-1M draws (600-800 paths at 5 assets, 60 at
#: 47); 1,000 paths at 5 assets took 51 ms, not 56 ms, and 20,000 took
#: 0.58 s, not 1.01 s. ``simulate_paths`` also writes its paths into shared
#: pages, and broke even at about the same size: in medians of 21 calls, 1M
#: draws took 46 ms on two lanes and 53 ms on one at 5 assets, and 41 ms
#: against 43 ms at 47; 0.5M draws took 26 against 31 ms at 5 assets and
#: 24 against 22 ms at 47.
_MIN_LANE_WORK = 500_000

#: Fewest retained increments worth a worker process of their own in
#: ``replay_wealth``, whose fold costs about a seventh of a draw: 10 ms for
#: 2M increments on one lane, 21 ms on two. On the same host two lanes broke
#: even near 4M (22 ms on either at 5 assets, 30 against 31 ms at 47) and
#: won from 8M (41 against 33 ms); 25M took 120 ms on one lane, 75 on two.
_MIN_REPLAY_WORK = 2_000_000


def _block_rows(steps: int, n: int) -> int:
    """Paths per block: a block of increments plus two (paths, steps)
    temporaries fit in ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * steps * (n + 2)))


def _lanes(n_paths: int, steps: int, n: int, min_work: int) -> list[range]:
    """The chunks of paths a run maps over: one per CPU, each of at least
    ``min_work`` increments, or all of them when the run stays serial."""
    return split(range(n_paths), -(-min_work // (steps * n)))


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
    """Sample stock paths on a uniform grid over [0, horizon].

    Sampling is exact in distribution: per-step log increments are
    ``(r - 0.5 sum_j sigma_ij^2 + (mu - r) sum_j sigma_ij) dt
    + sum_j sigma_ij dB_j``, so moment tests carry no discretization bias.
    Deterministic for a fixed seed.
    """
    _check_run(horizon, steps, n_paths, seed)
    sig = params.sigma.entries
    n = params.n
    dt = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)

    row_sq = (sig ** 2).sum(axis=1)
    row_sum = sig.sum(axis=1)
    drift = (params.r - 0.5 * row_sq + (params.mu - params.r) * row_sum) * dt
    log_s0 = np.log(params.s0)

    chunks = _lanes(n_paths, steps, n, _MIN_LANE_WORK)
    increments = empty((n_paths, steps, n), chunks)
    prices = empty((n_paths, steps + 1, n), chunks)
    rows = _block_rows(steps, n)

    def build(paths: range) -> None:
        # Each block's noise is drawn into its rows of ``increments`` and its
        # log-prices are built in place in its rows of ``prices``, so the only
        # temporary is one block of log increments.
        for start in range(paths.start, paths.stop, rows):
            block = slice(start, min(start + rows, paths.stop))
            _per_path_increments(seed, start, increments[block], dt)
            log_steps = increments[block] @ sig.T
            log_steps += drift
            out = prices[block]
            out[:, 0] = 0.0
            np.cumsum(log_steps, axis=1, out=out[:, 1:])
            out += log_s0
            np.exp(out, out=out)

    fan_out(chunks, build)
    return PathSet(times=times, prices=prices, driver_increments=increments, seed=seed)


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
    row's result is independent of how paths are split into blocks. It runs
    on slabs of ``_SLAB_BYTES`` of increments, whose strided reads stay in
    cache, and lands step-major, so that each step adds one contiguous row.
    """
    rows, steps, n = increments.shape
    step_sums = np.empty((steps, rows))
    slab = max(1, _SLAB_BYTES // (8 * steps * n))
    for a in range(0, rows, slab):
        part = increments[a : a + slab]
        sums = part[:, :, 0] * exposures[:, 0]
        for j in range(1, n):
            sums += part[:, :, j] * exposures[:, j]
        step_sums[:, a : a + slab] = sums.T
    for drift, step in zip(drifts, step_sums):
        log_w += drift
        log_w += step


def _fold_paths(
    paths: range, increments, exposures: np.ndarray, drifts: np.ndarray
) -> np.ndarray:
    """Log-wealth of each of ``paths``, folded a block of paths at a time;
    ``increments(block)`` gives the Brownian increments of the paths in the
    slice ``block``."""
    steps, n = exposures.shape
    log_w = np.zeros(len(paths))
    rows = _block_rows(steps, n)
    for a in range(0, log_w.size, rows):
        block = slice(paths.start + a, min(paths.start + a + rows, paths.stop))
        _fold_wealth(log_w[a : a + rows], increments(block), exposures, drifts)
    return log_w


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
    strictly positive. Large path sets split into contiguous chunks, one per
    CPU, and forked workers return the log-wealth of all but the first.
    """
    _check_w0(w0)
    n = params.n
    if paths.n_assets != n:
        raise DimensionMismatch(
            f"path set has {paths.n_assets} assets but parameters have {n}"
        )
    exposures, drifts = _step_exposures(policy, params, paths.n_steps, paths.dt)
    retained = paths.driver_increments.__getitem__
    chunks = fan_out(
        _lanes(paths.n_paths, paths.n_steps, n, _MIN_REPLAY_WORK),
        lambda chunk: _fold_paths(chunk, retained, exposures, drifts),
    )
    return w0 * np.exp(np.concatenate(chunks))


def _stream_wealth(
    seed: int, paths: range, dt: float, exposures: np.ndarray, drifts: np.ndarray
) -> np.ndarray:
    """Log-wealth of each of ``paths``, drawing each block of paths into one
    reused buffer."""
    steps, n = exposures.shape
    buffer = np.empty((min(len(paths), _block_rows(steps, n)), steps, n))

    def draw(block: slice) -> np.ndarray:
        out = buffer[: block.stop - block.start]
        _per_path_increments(seed, block.start, out, dt)
        return out

    return _fold_paths(paths, draw, exposures, drifts)


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
    _check_run(horizon, steps, n_paths, seed)
    _check_w0(w0)
    dt = horizon / steps
    exposures, drifts = _step_exposures(policy, params, steps, dt)
    chunks = fan_out(
        _lanes(n_paths, steps, params.n, _MIN_LANE_WORK),
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
