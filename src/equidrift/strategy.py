"""Optimal portfolio weights for the equal-drift model.

The variance-minimizing strategy holds an equal exposure to every Brownian
driver: its weights solve ``sigma' pi = (kappa / n) * 1`` where
``kappa = (lambda - r) / (mu - r)``.  Choosing the total fraction of wealth
invested in stocks pins down kappa without estimating mu, r or lambda, which
is how the fully-invested variant is used in practice.  The classical 1/n
allocation is provided as the benchmark.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

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


PolicySource = Union[WeightVector, Callable[[int], WeightVector]]


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


def _scale_unit_solution(a: np.ndarray, x: np.ndarray, kappa: np.ndarray):
    """Weights ``(kappa / n) x`` per slice of a stack and the max-norm
    residual of ``a pi = kappa / n``, the driver-exposure equations."""
    target = kappa / a.shape[1]
    pi = target[:, None] * x
    residual = np.abs((a @ pi[:, :, None])[:, :, 0] - target[:, None]).max(axis=1)
    return pi, residual


def _kappa(x: np.ndarray, exposure: float):
    """Per slice of unit solutions x (B, n): the kappa that scales x to
    ``exposure``, and whether ``sum x`` is too close to 0 to give one."""
    s = x.sum(axis=1)
    with np.errstate(divide="ignore"):  # s == 0 is degenerate
        kappa = x.shape[1] * exposure / s
    return kappa, np.abs(s) <= 1e-12 * np.abs(x).sum(axis=1)


def _fully_invested(sigma: np.ndarray, exposure: float):
    """:func:`pi_star_fully_invested` over a stack of factors (B, n, n), for
    a non-zero ``exposure``.

    Returns the weights and, per slice, whether ``pi_star_fully_invested``
    would return them without raising and whether it would warn that kappa
    is negative. Raises LinAlgError on an exactly singular slice.
    """
    a = sigma.transpose(0, 2, 1)
    x = _solve_unit_exposures(a)
    kappa, degenerate = _kappa(x, exposure)
    pi, residual = _scale_unit_solution(a, x, kappa)
    ok = (
        np.all(np.isfinite(x), axis=1)
        & ~degenerate
        & ~(residual > RESIDUAL_RTOL * np.abs(kappa))
        & np.all(np.isfinite(pi), axis=1)
    )
    return pi, ok, kappa < 0.0


def _unit_solution(sigma: VolMatrix) -> np.ndarray:
    """sigma' x = 1 for one factor, as a batch of one."""
    try:
        x = _solve_unit_exposures(sigma.entries.T[None])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"volatility matrix solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("volatility matrix solve produced non-finite weights")
    return x


def _weights(sigma: VolMatrix, x: np.ndarray, kappa: np.ndarray) -> WeightVector:
    """The weights of a batch of one, checked against the residual contract."""
    pi, residual = _scale_unit_solution(sigma.entries.T[None], x, kappa)
    if residual[0] > RESIDUAL_RTOL * abs(kappa[0]):
        raise SingularMatrix(
            f"driver-exposure residual {residual[0]:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * kappa; matrix too ill-conditioned"
        )
    return WeightVector(weights=pi[0], kappa=float(kappa[0]), exposure=float(pi[0].sum()))


def pi_star(sigma: VolMatrix, kappa: float) -> WeightVector:
    """Weights equalizing every Brownian-driver exposure at kappa / n.

    Solves ``sigma' pi = (kappa / n) * 1`` and verifies the residual; a
    solve that cannot meet the residual contract raises SingularMatrix.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    return _weights(sigma, _unit_solution(sigma), np.array([float(kappa)]))


def _unit_kappa(sigma: VolMatrix, exposure: float) -> tuple[np.ndarray, np.ndarray]:
    """The unit solution and kappa of :func:`pi_star_fully_invested`, with
    every check it makes before it may warn that kappa is negative."""
    if exposure == 0.0:
        raise ValueError("exposure must be nonzero")
    x = _unit_solution(sigma)
    kappa, degenerate = _kappa(x, exposure)
    if degenerate[0]:
        raise DegenerateExposure(
            "unnormalized optimal weights sum to ~0; no finite kappa reaches "
            "the requested exposure"
        )
    return x, kappa


def pi_star_fully_invested(sigma: VolMatrix, exposure: float) -> WeightVector:
    """Optimal weights scaled so the fractions of wealth sum to ``exposure``.

    The total-exposure constraint determines kappa = n * exposure / (1'
    (sigma')^-1 1), so no drift or rate parameters are needed.  Negative
    exposure requests are honored but flagged, since the optimality
    argument assumes a nonnegative total driver exposure.
    """
    x, kappa = _unit_kappa(sigma, exposure)
    if kappa[0] < 0.0:
        warnings.warn(NEGATIVE_KAPPA, stacklevel=2)
    return _weights(sigma, x, kappa)


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

