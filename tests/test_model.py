import math

import numpy as np
import pytest

from conftest import random_cov
from equidrift import (
    CovMatrix,
    ModelParams,
    VolMatrix,
    cholesky,
    expected_returns,
    random_rotation,
    sym_sqrt,
    synthetic_panel,
)

TWO_ASSET = [[4.0, 2.0], [2.0, 5.0]]


class TestModelParams:
    def test_defaults_unit_prices(self):
        params = ModelParams(sigma=VolMatrix(np.eye(3)), mu=0.2, r=0.03)
        np.testing.assert_array_equal(params.s0, np.ones(3))
        assert params.n == 3

    def test_rejects_mu_not_above_r(self):
        with pytest.raises(ValueError):
            ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.03, r=0.03)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mu", math.nan),
            ("mu", math.inf),
            ("r", math.nan),
            ("r", math.inf),
            ("s0", [1.0, math.inf]),
            ("s0", [math.nan, 1.0]),
        ],
        ids=["mu-nan", "mu-inf", "r-nan", "r-inf", "s0-inf", "s0-nan"],
    )
    def test_rejects_non_finite_inputs_naming_the_field(self, field, value):
        # a nan mu would make simulated wealth nan and fail synthetic_panel
        # with a message about prices
        good = dict(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03)
        with pytest.raises(ValueError, match=rf"\b{field} must"):
            ModelParams(**{**good, field: value})

    def test_rejects_bad_prices(self):
        with pytest.raises(ValueError):
            ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03, s0=[1.0, 0.0])
        with pytest.raises(ValueError):
            ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03, s0=[1.0, 1.0, 1.0])


class TestExpectedReturns:
    def test_symmetric_root_reference_coefficients(self):
        sigma = sym_sqrt(CovMatrix(TWO_ASSET))
        profile = expected_returns(ModelParams(sigma=sigma, mu=0.2, r=0.03))
        np.testing.assert_allclose(profile.row_sums, [2.425, 2.668], rtol=0, atol=5e-4)
        np.testing.assert_allclose(
            profile.mu_c, 0.03 + 0.17 * profile.row_sums, rtol=1e-14
        )

    def test_triangular_factor_coefficients(self):
        sigma = cholesky(CovMatrix(TWO_ASSET))
        profile = expected_returns(ModelParams(sigma=sigma, mu=0.2, r=0.03))
        np.testing.assert_array_equal(profile.row_sums, [2.0, 3.0])
        np.testing.assert_allclose(
            profile.mu_c, [0.03 + 2 * 0.17, 0.03 + 3 * 0.17], rtol=1e-14
        )
        # the triangular factor spreads the rates further apart than the
        # symmetric root of the same covariance
        sym_profile = expected_returns(
            ModelParams(sigma=sym_sqrt(CovMatrix(TWO_ASSET)), mu=0.2, r=0.03)
        )
        assert profile.mu_c[1] - profile.mu_c[0] > sym_profile.mu_c[1] - sym_profile.mu_c[0]

    def test_zero_excess_drift_limit(self):
        # mu must exceed r strictly, so approach the boundary instead
        sigma = VolMatrix(np.eye(4))
        profile = expected_returns(ModelParams(sigma=sigma, mu=0.03 + 1e-15, r=0.03))
        np.testing.assert_allclose(profile.mu_c, np.full(4, 0.03), rtol=0, atol=1e-14)
        np.testing.assert_allclose(profile.nu, np.zeros(4), rtol=0, atol=1e-14)

    def test_market_price_of_risk_formula(self):
        rng = np.random.default_rng(201)
        sigma = sym_sqrt(random_cov(rng, 5))
        params = ModelParams(sigma=sigma, mu=0.12, r=0.02)
        profile = expected_returns(params)
        c_diag = np.diag(sigma.cov())
        np.testing.assert_allclose(
            profile.nu, 0.10 * profile.row_sums / np.sqrt(c_diag), rtol=1e-13
        )
        # consistency of the two routes to the expected return
        np.testing.assert_allclose(
            profile.mu_c, 0.02 + profile.nu * np.sqrt(c_diag), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_rate_equals_rate_from_price_of_risk(self, seed):
        # mu_c_i = r + nu_i * sqrt(C_ii), for any volatility matrix
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 9))
        cov = random_cov(rng, n, scale=float(rng.uniform(0.01, 4.0)))
        q = random_rotation(n, seed=seed)
        user = VolMatrix(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
        r = float(rng.uniform(0.001, 0.1))
        mu = r + float(rng.uniform(0.001, 0.5))
        rotated = VolMatrix(cholesky(cov).entries @ q.entries)
        for sigma in (sym_sqrt(cov), cholesky(cov), rotated, user):
            profile = expected_returns(ModelParams(sigma=sigma, mu=mu, r=r))
            vol_i = np.sqrt((sigma.entries ** 2).sum(axis=1))
            gap = np.max(np.abs(profile.mu_c - (r + profile.nu * vol_i)))
            assert gap <= 1e-12 * max(1.0, np.max(np.abs(profile.mu_c)))

    def test_excess_scaling_linearity(self):
        rng = np.random.default_rng(202)
        sigma = sym_sqrt(random_cov(rng, 4))
        base = expected_returns(ModelParams(sigma=sigma, mu=0.08, r=0.03))
        scaled = expected_returns(ModelParams(sigma=sigma, mu=0.13, r=0.03))
        # mu - r doubles from 0.05 to 0.10
        np.testing.assert_allclose(
            scaled.mu_c - 0.03, 2.0 * (base.mu_c - 0.03), rtol=1e-13
        )
        np.testing.assert_allclose(scaled.nu, 2.0 * base.nu, rtol=1e-13)

    def test_rotated_factor_stays_internally_consistent(self):
        rng = np.random.default_rng(203)
        cov = random_cov(rng, 4)
        base = cholesky(cov)
        q = random_rotation(4, seed=9)
        rotated = VolMatrix(base.entries @ q.entries)
        profile = expected_returns(ModelParams(sigma=rotated, mu=0.2, r=0.03))
        # rates change with the rotation by design, but the published
        # relation between rate, price of risk, and per-asset volatility
        # must hold for the rotated matrix too
        c_diag = np.diag(rotated.cov())
        np.testing.assert_allclose(
            profile.mu_c, 0.03 + profile.nu * np.sqrt(c_diag), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            profile.mu_c, 0.03 + 0.17 * rotated.entries.sum(axis=1), rtol=1e-13
        )


class TestMeanPriceIdentity:
    def test_monte_carlo_price_mean(self):
        # E[S(t + dt) / S(t)] = exp(mu_c dt), with mu_c = r + (mu - r) sum_j sigma_ij,
        # checked on one asset's daily gross returns at dt = 1/252
        params = ModelParams(sigma=VolMatrix([[0.2]]), mu=0.2, r=0.03)
        mu_c = expected_returns(params).mu_c[0]
        assert mu_c == pytest.approx(0.03 + 0.17 * 0.2, rel=1e-14)
        gross = 1.0 + synthetic_panel(params, days=100_000, seed=5).returns[:, 0]
        se = gross.std(ddof=1) / math.sqrt(gross.size)
        assert abs(gross.mean() - math.exp(mu_c / 252)) <= 4 * se
