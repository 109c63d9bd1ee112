"""Shared helpers for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

from equidrift import (
    CovMatrix,
    TargetMatrix,
    _fanout,
    estimate_covariance,
    estimation_window,
    factor_covariance,
    pi_star_fully_invested,
    random_rotation,
)

# Property suites are deterministic: a fixed example sequence, no example
# database and no per-example deadline. Each test sets its own max_examples.
settings.register_profile("equidrift", derandomize=True, database=None, deadline=None)
settings.load_profile("equidrift")

#: The pytest process. A forked child that returned into a test's stack
#: instead of exiting is not it, and must not go on to run more tests.
_SESSION_PID = os.getpid()


def pytest_runtest_teardown(item):
    if os.getpid() != _SESSION_PID:
        os._exit(1)


@pytest.fixture
def pin_lanes(monkeypatch):
    """``pin_lanes(k)`` makes the fork helper see k CPUs, so a large enough
    run splits into k chunks whatever the host has."""
    return lambda k: monkeypatch.setattr(_fanout, "_cpus", lambda: k)


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


def public_chain(panel, rows, config) -> list:
    """The weights taking effect at each of ``rows`` from the public chain
    ``estimation_window`` -> ``estimate_covariance`` -> ``factor_covariance``
    -> ``pi_star_fully_invested``."""
    target = TargetMatrix(config.rotation_target) if config.factorization == "rotate" else None
    weights = []
    for t in rows:
        cov = estimate_covariance(estimation_window(panel, t, config), shrinkage=config.shrinkage)
        vol = factor_covariance(cov, config.factorization, target)
        weights.append(pi_star_fully_invested(vol, config.exposure).weights)
    return weights
