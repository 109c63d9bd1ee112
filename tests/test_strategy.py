import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conditioned_cov, random_cov
from equidrift import (
    CovMatrix,
    TargetMatrix,
    VolMatrix,
    WeightVector,
    brownian_exposures,
    cholesky,
    one_over_n,
    pi_star,
    pi_star_fully_invested,
    procrustes_rotate,
    random_rotation,
    sym_sqrt,
)
from equidrift.errors import DegenerateExposure, DimensionMismatch, SingularMatrix
from equidrift.strategy import RESIDUAL_RTOL

TWO_ASSET = [[4.0, 2.0], [2.0, 5.0]]
TRIANGULAR = [[2.0, 0.0], [1.0, 2.0]]


def ill_conditioned() -> VolMatrix:
    """A factor with singular values 1 down to 1e-12: its unit solution is
    near 1e12 in size, so the solve's rounding, small as it is, exceeds
    RESIDUAL_RTOL * kappa (at seed 2 the fully invested kappa is positive)."""
    rng = np.random.default_rng(2)
    u, v = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
    return VolMatrix(u @ np.diag(np.logspace(0, -12, 4)) @ v)


class TestWeightVector:
    def test_exposure_must_match_sum(self):
        with pytest.raises(ValueError):
            WeightVector(weights=[0.5, 0.5], kappa=1.0, exposure=0.9)

    def test_kappa_sentinel_allows_none(self):
        wv = WeightVector(weights=[0.5, 0.5], kappa=None, exposure=1.0)
        assert wv.kappa is None


class TestPiStar:
    def test_identity_gives_equal_weights(self):
        wv = pi_star(VolMatrix(np.eye(4)), kappa=1.0)
        np.testing.assert_array_equal(wv.weights, np.full(4, 0.25))
        assert wv.kappa == 1.0

    def test_diagonal_inverse_scaling(self):
        s = np.array([0.5, 1.0, 2.0, 4.0])
        wv = pi_star(VolMatrix(np.diag(s)), kappa=1.0)
        np.testing.assert_allclose(wv.weights, 1.0 / (4 * s), rtol=1e-15)

    def test_triangular_hand_solve(self):
        wv = pi_star(VolMatrix(TRIANGULAR), kappa=8.0 / 3.0)
        np.testing.assert_array_equal(wv.weights, np.array([1.0 / 3.0, 2.0 / 3.0]))

    def test_column_sums_hit_target(self):
        rng = np.random.default_rng(301)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            sigma = sym_sqrt(random_cov(rng, n))
            kappa = float(rng.uniform(0.1, 5.0))
            wv = pi_star(sigma, kappa)
            p = sigma.entries.T @ wv.weights
            assert np.abs(p - kappa / n).max() <= 1e-10 * kappa

    def test_scaling_by_powers_of_two_is_exact(self):
        sigma = sym_sqrt(CovMatrix(TWO_ASSET))
        base = pi_star(sigma, 1.25)
        for a in (0.5, 2.0, 8.0):
            np.testing.assert_array_equal(
                pi_star(sigma, a * 1.25).weights, a * base.weights
            )

    def test_scaling_by_general_factor(self):
        sigma = sym_sqrt(CovMatrix(TWO_ASSET))
        base = pi_star(sigma, 1.25)
        for a in (0.3, 1.7, 2.9):
            np.testing.assert_allclose(
                pi_star(sigma, a * 1.25).weights, a * base.weights, rtol=1e-15
            )

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            pi_star(VolMatrix(np.eye(2)), kappa=0.0)
        with pytest.raises(ValueError):
            pi_star(VolMatrix(np.eye(2)), kappa=-1.0)

    def test_non_finite_solve_is_singular(self):
        # subnormal entries pass VolMatrix's checks, and the solve overflows
        with pytest.raises(SingularMatrix, match="solve produced non-finite weights"):
            pi_star(VolMatrix(1e-310 * np.eye(3)), 1.0)

    @pytest.mark.parametrize("kappa", [1e-3, 1.0, 1e3])
    def test_residual_beyond_the_contract_is_singular(self, kappa):
        with pytest.raises(SingularMatrix, match=r"driver-exposure residual .* exceeds 1e-10"):
            pi_star(ill_conditioned(), kappa)

    def test_overflowing_weights_are_singular(self):
        # the unit solution is 1000 * 1, so (kappa / 3) * 1000 overflows
        with pytest.raises(SingularMatrix, match="^weights overflow: kappa 1.000e[+]308 is too"):
            pi_star(VolMatrix(0.001 * np.eye(3)), 1e308)


class TestPiStarFullyInvested:
    def test_identity(self):
        wv = pi_star_fully_invested(VolMatrix(np.eye(5)), exposure=1.0)
        np.testing.assert_array_equal(wv.weights, np.full(5, 0.2))
        assert wv.kappa == pytest.approx(1.0, abs=0)

    def test_triangular_hand_solve(self):
        wv = pi_star_fully_invested(VolMatrix(TRIANGULAR), exposure=1.0)
        np.testing.assert_array_equal(wv.weights, np.array([1.0 / 3.0, 2.0 / 3.0]))
        assert wv.kappa == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_two_asset_symmetric_root_closed_form(self):
        # for the reference covariance the symmetric root is (C + 4I)/sqrt(17),
        # so the unnormalized solution is proportional to (7, 6)
        wv = pi_star_fully_invested(sym_sqrt(CovMatrix(TWO_ASSET)), exposure=1.0)
        np.testing.assert_allclose(wv.weights, [7.0 / 13.0, 6.0 / 13.0], rtol=1e-14)
        assert wv.kappa == pytest.approx(136.0 / (13.0 * math.sqrt(17.0)), rel=1e-14)

    def test_agrees_with_explicit_kappa_call_exactly(self):
        rng = np.random.default_rng(302)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            sigma = sym_sqrt(random_cov(rng, n))
            wv = pi_star_fully_invested(sigma, exposure=1.0)
            direct = pi_star(sigma, wv.kappa)
            np.testing.assert_array_equal(wv.weights, direct.weights)

    def test_matches_constrained_variance_grid(self):
        # grid over pi1 with pi2 = 1 - pi1; the closed-form variance of the
        # terminal wealth is minimized, among fully invested weights whose
        # expected terminal wealth is at least the optimum's, exactly at the
        # optimal weights
        sigma = sym_sqrt(CovMatrix(TWO_ASSET))
        wv = pi_star_fully_invested(sigma, exposure=1.0)
        kappa = wv.kappa

        pi1 = np.arange(-2.0, 3.0 + 1e-9, 1e-4)
        pi = np.stack([pi1, 1.0 - pi1], axis=1)
        p = pi @ sigma.entries
        p_sum = p.sum(axis=1)
        p_sq = (p ** 2).sum(axis=1)
        feasible = p_sum >= kappa - 1e-12
        variance = np.where(feasible, np.expm1(p_sq), np.inf)
        best = pi1[int(np.argmin(variance))]
        assert abs(best - wv.weights[0]) <= 1e-3

    def test_covariance_scale_invariance(self):
        rng = np.random.default_rng(303)
        cov = random_cov(rng, 6)
        base = pi_star_fully_invested(sym_sqrt(cov), exposure=1.0)
        for c in (0.25, 4.0, 10.0):
            scaled = pi_star_fully_invested(
                sym_sqrt(CovMatrix(c * cov.entries)), exposure=1.0
            )
            np.testing.assert_allclose(scaled.weights, base.weights, rtol=0, atol=1e-10)
            assert scaled.kappa == pytest.approx(base.kappa * math.sqrt(c), rel=1e-9)

    def test_degenerate_exposure(self):
        # sigma' = [[1,0],[2,1]] maps x = (1,-1) to ones, so the unnormalized
        # solution sums to zero and no finite kappa reaches any exposure
        sigma_t = np.array([[1.0, 0.0], [2.0, 1.0]])
        x = np.linalg.solve(sigma_t, np.ones(2))
        assert abs(x.sum()) <= 1e-12
        with pytest.raises(DegenerateExposure):
            pi_star_fully_invested(VolMatrix(sigma_t.T), exposure=1.0)

    def test_negative_exposure_warns_but_scales(self):
        sigma = VolMatrix(np.eye(3))
        with pytest.warns(UserWarning):
            wv = pi_star_fully_invested(sigma, exposure=-1.0)
        np.testing.assert_allclose(wv.weights, np.full(3, -1.0 / 3.0), rtol=1e-15)

    def test_rejects_zero_exposure(self):
        with pytest.raises(ValueError):
            pi_star_fully_invested(VolMatrix(np.eye(2)), exposure=0.0)

    def test_non_finite_solve_is_singular(self):
        # subnormal entries pass VolMatrix's checks, and the solve overflows
        with pytest.raises(SingularMatrix, match="solve produced non-finite weights"):
            pi_star_fully_invested(VolMatrix(1e-310 * np.eye(3)), exposure=1.0)

    def test_residual_beyond_the_contract_is_singular(self):
        # kappa is tiny, since the unit solution is near 1e12 in size
        with pytest.raises(SingularMatrix, match=r"driver-exposure residual .* exceeds 1e-10"):
            pi_star_fully_invested(ill_conditioned(), exposure=1.0)

    def test_overflowing_weights_are_singular(self):
        # n * exposure overflows, so kappa is inf and so are the weights
        with pytest.raises(SingularMatrix, match="^weights overflow: kappa inf is too"):
            pi_star_fully_invested(VolMatrix(0.001 * np.eye(3)), exposure=1e308)


def _factor(kind: str, n: int, seed: int, log_cond: float, scale: float) -> VolMatrix:
    """A factor of a covariance with condition number 10**log_cond.

    'upper' is the transpose of the Cholesky factor and 'dense' a product
    U diag(s) V' of random orthogonal matrices, both supplied as user
    matrices; the others come from the library's own factorizations.
    """
    cov = conditioned_cov(n, seed, log_cond, scale)
    if kind == "cholesky":
        return cholesky(cov)
    if kind == "upper":
        return VolMatrix(cholesky(cov).entries.T)
    if kind == "sym_sqrt":
        return sym_sqrt(cov)
    if kind == "rotated":
        target = np.random.default_rng(seed).standard_normal((n, n))
        return procrustes_rotate(cholesky(cov), TargetMatrix(target))[0]
    w, v = cov._eig
    return VolMatrix((v * np.sqrt(w)) @ random_rotation(n, seed + 1).entries)


factors = st.builds(
    _factor,
    kind=st.sampled_from(["cholesky", "upper", "sym_sqrt", "rotated", "dense"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    # covariance condition numbers up to 1e11; near 1e13 the solve's
    # residual reaches RESIDUAL_RTOL and pi_star raises SingularMatrix
    log_cond=st.floats(0.0, 11.0),
    scale=st.floats(1e-6, 1e2),
)


class TestEqualExposureProperties:
    """Every factor shape the solve serves equalizes the driver exposures."""

    @settings(max_examples=300)
    @given(sigma=factors, kappa=st.floats(1e-3, 1e3))
    def test_pi_star(self, sigma, kappa):
        wv = pi_star(sigma, kappa)
        p = brownian_exposures(wv, sigma).p
        assert np.abs(p - kappa / sigma.dim).max() <= RESIDUAL_RTOL * kappa

    @settings(max_examples=300)
    @given(
        sigma=factors,
        exposure=st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
    )
    def test_pi_star_fully_invested(self, sigma, exposure):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a negative kappa only warns
            wv = pi_star_fully_invested(sigma, exposure)
        p = brownian_exposures(wv, sigma).p
        assert np.abs(p - wv.kappa / sigma.dim).max() <= RESIDUAL_RTOL * abs(wv.kappa)
        assert wv.exposure == pytest.approx(exposure, rel=1e-12)


class TestOneOverN:
    def test_four_assets(self):
        wv = one_over_n(4, exposure=1.0)
        np.testing.assert_array_equal(wv.weights, np.full(4, 0.25))
        assert wv.kappa is None

    def test_single_asset(self):
        np.testing.assert_array_equal(one_over_n(1, exposure=1.0).weights, [1.0])

    def test_partial_exposure(self):
        np.testing.assert_array_equal(
            one_over_n(2, exposure=0.5).weights, [0.25, 0.25]
        )

    def test_rejects_zero_assets(self):
        with pytest.raises(ValueError):
            one_over_n(0)


class TestBrownianExposures:
    def test_optimal_weights_equalize_drivers(self):
        sigma = VolMatrix(TRIANGULAR)
        wv = pi_star(sigma, kappa=8.0 / 3.0)
        p = brownian_exposures(wv, sigma).p
        np.testing.assert_array_equal(p, np.array([4.0 / 3.0, 4.0 / 3.0]))

    def test_unit_weight_identity(self):
        wv = WeightVector(weights=[1.0, 0.0, 0.0], kappa=None, exposure=1.0)
        p = brownian_exposures(wv, VolMatrix(np.eye(3))).p
        np.testing.assert_array_equal(p, [1.0, 0.0, 0.0])

    def test_equal_capital_weights_do_not_equalize_drivers(self):
        sigma = sym_sqrt(CovMatrix(TWO_ASSET))
        p = brownian_exposures(one_over_n(2), sigma).p
        assert abs(p[0] - p[1]) > 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            brownian_exposures(one_over_n(3), VolMatrix(np.eye(2)))

    def test_exposure_spread_sweep(self):
        rng = np.random.default_rng(304)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            sigma = cholesky(random_cov(rng, n))
            kappa = float(rng.uniform(0.05, 8.0))
            p = brownian_exposures(pi_star(sigma, kappa), sigma).p
            assert p.max() - p.min() <= 1e-10 * kappa / n


class TestOversizedPositions:
    def test_flags_but_never_alters(self):
        wv = WeightVector(weights=[1.5, -0.9, 0.4], kappa=None, exposure=1.0)
        np.testing.assert_array_equal(wv.weights, [1.5, -0.9, 0.4])
