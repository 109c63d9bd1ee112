"""Optimal portfolio weights for the equal-drift model.

The variance-minimizing strategy holds an equal exposure to every Brownian
driver: its weights solve ``sigma' pi = (kappa / n) * 1`` where
``kappa = (lambda - r) / (mu - r)``.  Choosing the total fraction of wealth
invested in stocks pins down kappa without estimating mu, r or lambda, which
is how the fully-invested variant is used in practice.  The classical 1/n
allocation is provided as the benchmark.

Both solves run on one private kernel, :func:`_pi_star`, which takes a stack
of factors (a leading batch axis) and returns per-slice weights and
verdicts. The public functions are that kernel on a batch of one, raising
from its verdicts; the backtest engine runs it on a batch of many, so its
weights are bitwise equal to the public ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExposure, DimensionMismatch, SingularMatrix
from .factorization import VolMatrix

__all__ = [
    "WeightVector",
    "ExposureVector",
    "pi_star",
    "pi_star_fully_invested",
    "one_over_n",
    "brownian_exposures",
]

#: Max-norm residual allowed on the driver-exposure equations, relative to kappa.
RESIDUAL_RTOL = 1e-10

#: Warned once per weight vector whose kappa is negative.
NEGATIVE_KAPPA = (
    "requested exposure implies a negative kappa; the optimality argument "
    "assumes nonnegative total driver exposure"
)


@dataclass(frozen=True)
class WeightVector:
    """Fractions of wealth per asset; negatives allowed.

    ``kappa`` is the composite ratio (lambda - r)/(mu - r) associated with
    the weights, or ``None`` for strategies (like 1/n) where the ratio is
    not applicable.  ``exposure`` is the sum of the weights.
    """

    weights: np.ndarray
    kappa: float | None
    exposure: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        scale = max(1.0, float(np.abs(w).sum()))
        if abs(self.exposure - float(w.sum())) > 1e-12 * scale:
            raise ValueError("exposure does not equal the sum of the weights")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ExposureVector:
    """Portfolio loadings on the Brownian drivers: p_j = sum_i pi_i sigma_ij."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or not np.all(np.isfinite(p)):
            raise ValueError("exposures must be a finite vector")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


def _solve_unit_exposures(a: np.ndarray) -> np.ndarray:
    """Solve ``a x = 1`` for a stack ``a`` (B, n, n) of transposed factors,
    with one step of iterative refinement; returns x as (B, n).

    The refinement step keeps the residual near machine precision even for
    moderately ill-conditioned factors. Raises LinAlgError on an exactly
    singular slice.
    """
    ones = np.ones(a.shape[:2] + (1,))
    x = np.linalg.solve(a, ones)
    return (x - np.linalg.solve(a, a @ x - ones))[:, :, 0]


def _pi_star(sigma: np.ndarray, exposure: float | None, kappa: np.ndarray | None = None):
    """:func:`pi_star` over a stack of factors (B, n, n) with ``kappa`` (B,)
    given, or :func:`pi_star_fully_invested` for a non-zero ``exposure``.

    Returns the weights, their kappas, the max-norm residuals of the
    driver-exposure equations and three per-slice verdicts, in the order the
    public functions raise on them: the unit solve is not finite, its sum is
    too close to 0 to reach ``exposure`` (never, given kappa), and the
    weights are not finite or miss the residual contract. Numpy warns of
    nothing. Raises LinAlgError on an exactly singular slice.
    """
    a = sigma.transpose(0, 2, 1)
    with np.errstate(all="ignore"):  # a failing slice gets a verdict
        x = _solve_unit_exposures(a)
        if kappa is None:
            s = x.sum(axis=1)
            kappa = x.shape[1] * exposure / s
            degenerate = np.abs(s) <= 1e-12 * np.abs(x).sum(axis=1)
        else:
            degenerate = np.zeros(len(x), dtype=bool)
        target = kappa / a.shape[1]
        pi = target[:, None] * x
        residual = np.abs((a @ pi[:, :, None])[:, :, 0] - target[:, None]).max(axis=1)
        unmet = (residual > RESIDUAL_RTOL * np.abs(kappa)) | ~np.all(np.isfinite(pi), axis=1)
    return pi, kappa, residual, ~np.all(np.isfinite(x), axis=1), degenerate, unmet


def _solved(sigma: VolMatrix, exposure: float | None, kappa: np.ndarray | None = None):
    """:func:`_pi_star` on a batch of one, raising on its verdicts in order."""
    try:
        pi, kappa, residual, unsolved, degenerate, unmet = (
            x[0] for x in _pi_star(sigma.entries[None], exposure, kappa)
        )
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"volatility matrix solve failed: {exc}") from exc
    if unsolved:
        raise SingularMatrix("volatility matrix solve produced non-finite weights")
    if degenerate:
        raise DegenerateExposure(
            "unnormalized optimal weights sum to ~0; no finite kappa reaches "
            "the requested exposure"
        )
    if unmet:  # non-finite weights give a non-finite residual
        raise SingularMatrix(
            f"driver-exposure residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * kappa; matrix too ill-conditioned"
            if np.isfinite(residual)
            else f"weights overflow: kappa {kappa:.3e} is too large for this volatility matrix"
        )
    return WeightVector(weights=pi, kappa=float(kappa), exposure=float(pi.sum()))


def pi_star(sigma: VolMatrix, kappa: float) -> WeightVector:
    """Weights equalizing every Brownian-driver exposure at kappa / n.

    Solves ``sigma' pi = (kappa / n) * 1`` and verifies the residual; a
    solve that cannot meet the residual contract, or whose weights
    overflow, raises SingularMatrix.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    return _solved(sigma, None, np.array([float(kappa)]))


def pi_star_fully_invested(sigma: VolMatrix, exposure: float) -> WeightVector:
    """Optimal weights scaled so the fractions of wealth sum to ``exposure``.

    The total-exposure constraint determines kappa = n * exposure / (1'
    (sigma')^-1 1), so no drift or rate parameters are needed.  Negative
    exposure requests are honored but flagged, since the optimality
    argument assumes a nonnegative total driver exposure: the weights it
    returns warn of a negative kappa; weights it rejects raise without one.
    """
    if exposure == 0.0:
        raise ValueError("exposure must be nonzero")
    weights = _solved(sigma, exposure)
    if weights.kappa < 0.0:
        warnings.warn(NEGATIVE_KAPPA, stacklevel=2)
    return weights


def one_over_n(n: int, exposure: float = 1.0) -> WeightVector:
    """Classical benchmark: equal capital weight exposure / n in every asset.

    The kappa field is None; the ratio is not defined for this strategy.
    """
    if n < 1:
        raise ValueError("asset count must be >= 1")
    weights = np.full(n, exposure / n)
    return WeightVector(weights=weights, kappa=None, exposure=float(weights.sum()))


def brownian_exposures(pi: WeightVector, sigma: VolMatrix) -> ExposureVector:
    """Driver loadings p_j = sum_i pi_i sigma_ij of a weight vector."""
    if pi.n != sigma.dim:
        raise DimensionMismatch(
            f"weights have length {pi.n} but volatility matrix is {sigma.dim}x{sigma.dim}"
        )
    return ExposureVector(p=sigma.entries.T @ pi.weights)

