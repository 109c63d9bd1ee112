import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equidrift.errors import LengthMismatch, TooFewObservations, ZeroVariance
from equidrift.stats import (
    ZERO_SD_TOL,
    jobson_korkie_memmel,
    normal_upper_tail,
    sharpe,
)

mpmath = pytest.importorskip("mpmath")

#: Pairs of finite daily returns, 3 to 60 days long.
return_pairs = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=3, max_size=60
)

_rng = np.random.default_rng(3)
SEED_3_A = _rng.normal(0.0008, 0.012, size=400)
SEED_3_B = 0.6 * SEED_3_A + _rng.normal(0.0002, 0.009, size=400)


class TestSharpe:
    def test_hand_example(self):
        res = sharpe([0.01, 0.02, 0.03], rf_daily=0.0)
        assert res.mean_excess == pytest.approx(0.02, rel=1e-15)
        assert res.sd_excess == pytest.approx(0.01, rel=1e-12)
        assert res.ratio == pytest.approx(2.0, rel=1e-12)
        assert res.n_obs == 3

    def test_riskfree_shift(self):
        res = sharpe([0.02, 0.03, 0.04], rf_daily=0.01)
        assert res.mean_excess == pytest.approx(0.02, rel=1e-14)
        assert res.ratio == pytest.approx(2.0, rel=1e-12)

    def test_location_free_of_common_shift_in_excess(self):
        rng = np.random.default_rng(0)
        r = rng.normal(0.001, 0.01, size=500)
        base = sharpe(r, rf_daily=0.0)
        shifted = sharpe(r + 0.005, rf_daily=0.005)
        assert shifted.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        r = rng.normal(0.001, 0.01, size=500)
        base = sharpe(r, rf_daily=0.0)
        scaled = sharpe(3.0 * r, rf_daily=0.0)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVariance):
            sharpe([0.01, 0.01, 0.01], rf_daily=0.0)

    def test_too_short(self):
        with pytest.raises(TooFewObservations):
            sharpe([0.01], rf_daily=0.0)

    def test_overflowing_moments_rejected(self):
        # numpy warned of an overflow in square, and the ratio read 0
        r = np.random.default_rng(4).normal(0.001, 0.01, size=50)
        r[17] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroVariance, match="^sample moments overflow: sd inf, "):
                sharpe(r, rf_daily=0.0)


class TestNormalUpperTail:
    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 50
        for z in np.linspace(-8.0, 8.0, 161):
            want = float(mpmath.ncdf(-mpmath.mpf(float(z))))
            got = normal_upper_tail(float(z))
            assert got == pytest.approx(want, rel=1e-10)

    def test_symmetry(self):
        for z in (0.3, 1.7, 4.2):
            assert normal_upper_tail(z) + normal_upper_tail(-z) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_center(self):
        assert normal_upper_tail(0.0) == 0.5


class TestJobsonKorkieMemmel:
    def test_identical_series(self):
        rng = np.random.default_rng(2)
        r = rng.normal(0.001, 0.01, size=300)
        res = jobson_korkie_memmel(r, r)
        assert res.z == 0.0
        assert res.p_one_sided == 0.5
        assert res.rho == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=150)
    @given(pairs=return_pairs)
    @example(pairs=list(zip(SEED_3_A, SEED_3_B)))
    def test_swap_negates_z_bitwise(self, pairs):
        a, b = np.array(pairs).T
        assume(a.std(ddof=1) > ZERO_SD_TOL and b.std(ddof=1) > ZERO_SD_TOL)
        fwd = jobson_korkie_memmel(a, b)
        rev = jobson_korkie_memmel(b, a)
        assert rev.z == -fwd.z
        assert abs(fwd.p_one_sided + rev.p_one_sided - 1.0) <= 1e-15
        assert rev.p_two_sided == fwd.p_two_sided

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            jobson_korkie_memmel([0.01, 0.02, 0.03], [0.01, 0.02])

    def test_too_short(self):
        with pytest.raises(TooFewObservations):
            jobson_korkie_memmel([0.01, 0.02], [0.03, 0.01])

    def test_common_rescale_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.001, 0.01, size=250)
        b = rng.normal(0.0005, 0.008, size=250)
        base = jobson_korkie_memmel(a, b)
        scaled = jobson_korkie_memmel(100.0 * a, 100.0 * b)
        assert scaled.z == pytest.approx(base.z, rel=1e-12)
        assert scaled.rho == pytest.approx(base.rho, rel=1e-12)

    def test_higher_first_sharpe_gives_positive_z(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(0.0, 0.01, size=2000)
        good = 0.004 + noise
        bad = 0.0001 + noise + rng.normal(0.0, 0.005, size=2000)
        res = jobson_korkie_memmel(good, bad)
        assert res.sharpe_1 > res.sharpe_2
        assert res.z > 0.0
        assert res.p_one_sided < 0.05

    def test_p_monotone_decreasing_in_z(self):
        zs = np.linspace(-4.0, 4.0, 81)
        ps = [normal_upper_tail(z) for z in zs]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_degenerate_variance_estimate_maps_to_even_odds(self):
        # two equal-Sharpe, perfectly correlated series drive theta to ~0;
        # the guard pins z = 0 rather than dividing by a vanishing sd
        a = np.array([0.01, 0.03, 0.02, 0.04, 0.015])
        res = jobson_korkie_memmel(a, a.copy())
        assert res.z == 0.0
        assert res.p_one_sided == 0.5

    def test_null_size_small_study(self):
        # equal-Sharpe independent normals: one-sided rejection at 5%
        # should land near nominal even in a short study
        rng = np.random.default_rng(6)
        trials, t_obs, hits = 400, 500, 0
        for _ in range(trials):
            a = rng.normal(0.05, 1.0, size=t_obs)
            b = rng.normal(0.05, 1.0, size=t_obs)
            if jobson_korkie_memmel(a, b).p_one_sided < 0.05:
                hits += 1
        rate = hits / trials
        assert 0.02 <= rate <= 0.09
