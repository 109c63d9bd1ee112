"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import settings

from equidrift import CovMatrix, random_rotation

# Property suites are deterministic: a fixed example sequence, no example
# database and no per-example deadline. Each test sets its own max_examples.
settings.register_profile("equidrift", derandomize=True, database=None, deadline=None)
settings.load_profile("equidrift")


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Well-conditioned random symmetric positive-definite matrix."""
    a = rng.standard_normal((n, n))
    c = a @ a.T / n + 0.25 * np.eye(n)
    return scale * 0.5 * (c + c.T)


def random_cov(rng: np.random.Generator, n: int, scale: float = 1.0) -> CovMatrix:
    return CovMatrix(random_spd(rng, n, scale))


def conditioned_cov(n: int, seed: int, log_cond: float, scale: float) -> CovMatrix:
    """Covariance with largest eigenvalue ``scale`` and condition number
    10**log_cond, in a Haar-random eigenbasis."""
    lam = scale * np.logspace(0.0, -log_cond, n)
    q = random_rotation(n, seed).entries
    c = (q * lam) @ q.T
    return CovMatrix(0.5 * (c + c.T))
