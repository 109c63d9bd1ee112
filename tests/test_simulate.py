import errno
import hashlib
import math
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import random_cov
from equidrift import (
    ModelParams,
    VolMatrix,
    WealthLaw,
    WeightVector,
    one_over_n,
    optimal_wealth_density,
    optimal_wealth_moments,
    pi_star,
    replay_wealth,
    simulate_paths,
    simulate_terminal_wealth,
    sym_sqrt,
)
from equidrift import _fanout, simulate
from equidrift.errors import DimensionMismatch, NonPositiveGridPoint

FIG_LEFT = dict(w=1.0, lam=0.1, mu=0.2, r=0.03, t=1.0)


def fig_left_kappa() -> float:
    return (FIG_LEFT["lam"] - FIG_LEFT["r"]) / (FIG_LEFT["mu"] - FIG_LEFT["r"])


class TestSimulatePaths:
    def test_single_asset_price_mean(self):
        # all wealth in the one asset tracks its price, S(t) / S(0), so
        # E[W(t)] = W(0) exp(mu_c t) with mu_c = 0.03 + 0.17 * 0.2
        params = ModelParams(sigma=VolMatrix([[0.2]]), mu=0.2, r=0.03)
        all_in = WeightVector(weights=[1.0], kappa=None, exposure=1.0)
        ratios = simulate_terminal_wealth(params, all_in, 1.0, 1, 100_000, 5, 1.0)
        se = ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(ratios.mean() - math.exp(0.064)) <= 4 * se

    def test_deterministic_per_seed(self):
        params = ModelParams(sigma=sym_sqrt(random_cov(np.random.default_rng(1), 3)), mu=0.2, r=0.03)
        policy = pi_star(params.sigma, 0.4)
        a = simulate_terminal_wealth(params, policy, 1.0, 12, 50, 99, 1.0)
        b = simulate_terminal_wealth(params, policy, 1.0, 12, 50, 99, 1.0)
        assert a.tobytes() == b.tobytes()
        other = simulate_terminal_wealth(params, policy, 1.0, 12, 50, 100, 1.0)
        assert not np.array_equal(a, other)

    def test_path_count_does_not_change_earlier_paths(self):
        # per-path substreams: path i depends only on (seed, i), so asking
        # for more paths must not reshuffle the ones already drawn
        params, policy = _engine_case(2)
        small = simulate_terminal_wealth(params, policy, 1.0, 6, 3, 17, 1.0)
        large = simulate_terminal_wealth(params, policy, 1.0, 6, 8, 17, 1.0)
        assert large[:3].tobytes() == small.tobytes()

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_underflow_raises_on_the_first_prices_read(self, monkeypatch, pin_lanes, capfd, lanes):
        # At 5000% volatility seed 0 path 0's one-step log price is about
        # -1235, below exp's underflow point near -745.1. Wealth never builds
        # prices, so the same model still simulates a 1% holding, on two and
        # three lanes in forked workers too; building the prices raises,
        # every time, and no worker raises or prints.
        monkeypatch.setattr(simulate, "_MIN_LANE_WORK", 1)
        pin_lanes(lanes)
        params = ModelParams(sigma=VolMatrix([[50.0]]), mu=0.2, r=0.03)
        small = WeightVector(weights=[0.01], kappa=None, exposure=0.01)
        assert np.all(simulate_terminal_wealth(params, small, 1.0, 1, 3, 0, 1.0) > 0.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="prices must be strictly positive"):
                simulate._one_path_prices(params, 1.0, 1, 0)
        assert capfd.readouterr().err == ""

    def test_rejects_bad_grid(self, monkeypatch):
        def no_noise(*args):
            raise AssertionError("noise drawn before the inputs were checked")

        monkeypatch.setattr(simulate, "_per_path_increments", no_noise)
        params = ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03)
        cash = WeightVector(weights=[0.0, 0.0], kappa=None, exposure=0.0)
        for horizon, steps, n_paths in (
            (0.0, 2, 2),
            (math.nan, 2, 2),
            (math.inf, 2, 2),
            (1.0, 0, 2),
            (1.0, 2, 0),
        ):
            with pytest.raises(ValueError):
                simulate_paths(params, horizon, steps, n_paths, seed=0)
            with pytest.raises(ValueError):
                simulate_terminal_wealth(params, cash, horizon, steps, n_paths, 0, 1.0)


class TestReplayWealth:
    """Wealth replayed along simulated paths. ``simulate_terminal_wealth`` is
    the one engine, so the model's properties are checked on it;
    ``replay_wealth``, kept for the benchmark's imports, runs that engine on
    a ``PathSet`` recipe."""

    def test_replay_is_the_streaming_engine(self):
        params, policy = _engine_case(3)
        paths = simulate_paths(params, 1.5, 9, 23, seed=31)
        assert (paths.n_steps, paths.n_paths, paths.seed, paths.n_assets) == (9, 23, 31, 3)
        want = simulate_terminal_wealth(params, policy, 1.5, 9, 23, 31, 2.0)
        assert replay_wealth(paths, policy, params, 2.0).tobytes() == want.tobytes()
        other = ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03)
        cash = WeightVector(weights=[0.0, 0.0], kappa=None, exposure=0.0)
        with pytest.raises(DimensionMismatch):
            replay_wealth(paths, cash, other, 1.0)

    def test_all_cash_grows_at_r_exactly(self):
        params = ModelParams(sigma=VolMatrix(0.5 * np.eye(2)), mu=0.2, r=0.03)
        cash = WeightVector(weights=[0.0, 0.0], kappa=None, exposure=0.0)
        wealth = simulate_terminal_wealth(params, cash, 1.0, 8, 20, 2, w0=2.0)
        np.testing.assert_array_equal(wealth, np.full(20, 2.0 * math.exp(0.03)))

    def test_optimal_policy_moments(self):
        n = 5
        rng = np.random.default_rng(42)
        sigma = sym_sqrt(random_cov(rng, n, scale=0.1))
        params = ModelParams(sigma=sigma, mu=FIG_LEFT["mu"], r=FIG_LEFT["r"])
        kappa = fig_left_kappa()
        wv = pi_star(sigma, kappa)
        wealth = simulate_terminal_wealth(params, wv, FIG_LEFT["t"], 16, 40_000, 7, FIG_LEFT["w"])

        law = WealthLaw(w=FIG_LEFT["w"], lam=FIG_LEFT["lam"], kappa=kappa, n=n, t=FIG_LEFT["t"])
        mean_th, var_th = optimal_wealth_moments(law)
        se = wealth.std(ddof=1) / math.sqrt(wealth.size)
        assert abs(wealth.mean() - mean_th) <= 4 * se
        assert abs(wealth.var(ddof=1) - var_th) <= 0.05 * var_th

    def test_wealth_strictly_positive_under_leverage(self):
        params = ModelParams(sigma=VolMatrix(0.4 * np.eye(3)), mu=0.2, r=0.03)
        heavy = WeightVector(weights=[3.0, -1.0, 2.0], kappa=None, exposure=4.0)
        wealth = simulate_terminal_wealth(params, heavy, 2.0, 40, 500, 21, w0=1.0)
        assert np.all(wealth > 0.0)

    def test_dimension_mismatch(self):
        params = ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03)
        wrong = WeightVector(weights=[1.0, 0.0, 0.0], kappa=None, exposure=1.0)
        with pytest.raises(DimensionMismatch):
            simulate_terminal_wealth(params, wrong, 1.0, 2, 2, 0, 1.0)

    def test_policy_is_one_weight_vector(self):
        # the weights are held for the whole horizon; a per-step callable
        # or a bare array is refused
        params = ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03)
        half = WeightVector(weights=[0.5, 0.5], kappa=None, exposure=1.0)
        for policy in (lambda step: half, half.weights):
            with pytest.raises(TypeError, match="policy must be a WeightVector"):
                simulate_terminal_wealth(params, policy, 1.0, 2, 2, 0, 1.0)

    def test_variance_floor_among_equal_mean_exposures(self):
        # any constant driver-exposure vector with the same coordinate sum
        # has terminal-wealth variance at least the equalized one
        n = 3
        sigma = VolMatrix(np.eye(n))
        params = ModelParams(sigma=sigma, mu=FIG_LEFT["mu"], r=FIG_LEFT["r"])
        kappa = fig_left_kappa()
        law = WealthLaw(w=1.0, lam=FIG_LEFT["lam"], kappa=kappa, n=n, t=1.0)
        _, var_opt = optimal_wealth_moments(law)

        rng = np.random.default_rng(55)
        for _ in range(10):
            p = rng.normal(loc=kappa / n, scale=0.3, size=n)
            p += (kappa - p.sum()) / n
            pi = np.linalg.solve(sigma.entries.T, p)
            wv = WeightVector(weights=pi, kappa=None, exposure=float(pi.sum()))
            wealth = simulate_terminal_wealth(params, wv, 1.0, 8, 30_000, 13, 1.0)
            var_hat = wealth.var(ddof=1)
            centered = wealth - wealth.mean()
            se_var = math.sqrt(
                ((centered ** 4).mean() - var_hat ** 2) / wealth.size
            )
            assert var_hat >= var_opt - 2 * se_var

    def test_rejects_nonpositive_initial_wealth(self, monkeypatch):
        # a non-finite w0 is rejected too: inf gave inf wealth, nan gave nan
        params = ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03)
        policy = WeightVector([0.5, 0.5], None, 1.0)

        def no_noise(*args):
            raise AssertionError("noise drawn before the inputs were checked")

        monkeypatch.setattr(simulate, "_per_path_increments", no_noise)
        for w0 in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="initial wealth"):
                simulate_terminal_wealth(params, policy, 1.0, 2, 2, 0, w0)


def _folded(params, policy, horizon, steps, n_paths, seed, w0):
    """Terminal wealth from one ``_fold_wealth`` call over the whole
    increment tensor, drawn by one ``_per_path_increments`` call: a row's
    result does not depend on how the paths are split, so this reference
    shares no block or chunk loop with the engine."""
    dt = horizon / steps
    increments = np.empty((n_paths, steps, params.n))
    simulate._per_path_increments(seed, 0, increments, dt)
    p, drift = simulate._exposure_drift(policy, params, dt)
    log_w = np.zeros(n_paths)
    terms = np.empty((n_paths, 2 * steps))
    simulate._fold_wealth(log_w, increments, p, drift, terms)
    return w0 * np.exp(log_w)


def _engine_case(n: int):
    """Model and optimal weights on an n-asset random vol."""
    sigma = sym_sqrt(random_cov(np.random.default_rng(n), n, scale=0.05))
    return ModelParams(sigma=sigma, mu=0.2, r=0.03), pi_star(sigma, 0.4)


class TestTerminalWealthEngine:
    STEPS, PATHS = 9, 23

    @pytest.mark.parametrize("n", [5, 47])
    @pytest.mark.parametrize("policy_kind", ["constant", "one_over_n"])
    @pytest.mark.parametrize("rows", [1, 7, "budget", PATHS, PATHS + 5])
    def test_bitwise_equal_to_replay(self, monkeypatch, n, policy_kind, rows):
        # the optimal weights, and the 1/n benchmark they are tested against
        params, optimal = _engine_case(n)
        policy = optimal if policy_kind == "constant" else one_over_n(n)
        expected = _folded(params, policy, 1.5, self.STEPS, self.PATHS, 31, 2.0)

        if rows == "budget":
            # The real row formula, on a budget small enough to split the paths.
            monkeypatch.setattr(simulate, "_BLOCK_BYTES", 12 * 8 * self.STEPS * (n + 1))
            assert 1 < simulate._block_rows(self.STEPS, n) < self.PATHS
        else:
            monkeypatch.setattr(simulate, "_block_rows", lambda steps, n: rows)
        got = simulate_terminal_wealth(params, policy, 1.5, self.STEPS, self.PATHS, 31, 2.0)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("start", [0, 1, 2, 19_999, 10**6, 2**40 + 3])
    def test_noise_kernel_matches_jumped_substreams(self, start):
        steps, n, dt = 6, 3, 0.25
        out = np.empty((2, steps, n))
        simulate._per_path_increments(1234, start, out, dt)
        for row, i in enumerate((start, start + 1)):
            gen = np.random.Generator(np.random.PCG64(1234).jumped(i))
            want = math.sqrt(dt) * gen.standard_normal((steps, n))
            assert out[row].tobytes() == want.tobytes()

    def test_memory_stays_within_block_budget(self, pin_lanes):
        # The full increment tensor would be 50 MB at 5 assets and 9.5 MB at
        # 47, where a block holds 10 paths, so both runs span many blocks.
        # Besides the block and the wealth vector the engine holds only
        # things of fixed size: the driver exposures (40 B at 5 assets, 376 B
        # at 47), a numpy ufunc iteration buffer (64 KiB) and interpreter
        # objects. On two lanes the worker's half arrives as one pickled
        # array after the caller's half is folded and its block freed. The
        # first call imports numpy.random, which is interpreter state and not
        # engine memory, so it runs before tracing starts.
        for n, n_paths in ((5, 5_000), (47, 100)):
            params = ModelParams(sigma=VolMatrix(0.2 * np.eye(n)), mu=0.2, r=0.03)
            policy = pi_star(params.sigma, 0.4)
            assert n_paths > 4 * simulate._block_rows(252, n)
            for lanes in (1, 2):
                pin_lanes(lanes)
                simulate_terminal_wealth(params, policy, 1.0, 252, n_paths, 3, 1.0)
                tracemalloc.start()
                try:
                    wealth = simulate_terminal_wealth(params, policy, 1.0, 252, n_paths, 3, 1.0)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= simulate._BLOCK_BYTES + wealth.nbytes + (128 << 10)


class TestParallelPaths:
    """The fan-out of paths to forked workers, forced on by pinning the lane
    count. ``MIN`` is the fewest paths a lane takes at this size."""

    STEPS, N = 252, 5
    MIN = -(-simulate._MIN_LANE_WORK // (STEPS * N))
    LANES = (1, 2, 3)

    @staticmethod
    def spy_parent_paths(monkeypatch):
        """The (first path, path count) of each chunk this process folds."""
        folded = []
        stream = simulate._stream_wealth

        def spy(seed, paths, *args):
            folded.append((paths.start, len(paths)))
            return stream(seed, paths, *args)

        monkeypatch.setattr(simulate, "_stream_wealth", spy)
        return folded

    def run(self, n_paths):
        params, policy = _engine_case(self.N)
        return simulate_terminal_wealth(params, policy, 1.0, self.STEPS, n_paths, 11, 1.5)

    def reference(self, n_paths):
        params, policy = _engine_case(self.N)
        return _folded(params, policy, 1.0, self.STEPS, n_paths, 11, 1.5)

    @pytest.mark.parametrize("share", ["below", "at", "indivisible"])
    def test_bitwise_equal_across_lane_counts(self, monkeypatch, pin_lanes, share):
        n_paths = {"below": 2 * self.MIN - 1, "at": 2 * self.MIN, "indivisible": 3 * self.MIN + 2}[share]
        if share == "indivisible":
            assert n_paths % 2 and n_paths % 3
        folded = self.spy_parent_paths(monkeypatch)
        want = self.reference(n_paths)
        for lanes in self.LANES:
            folded.clear()
            pin_lanes(lanes)
            assert self.run(n_paths).tobytes() == want.tobytes()
            used = min(lanes, n_paths // self.MIN)
            # this process folds only the first chunk; workers fold the rest
            assert folded == [(0, n_paths // used if used > 1 else n_paths)]

    def test_dead_worker_is_folded_here(self, monkeypatch, pin_lanes):
        n_paths = 3 * self.MIN
        want = self.reference(n_paths)
        folded = self.spy_parent_paths(monkeypatch)
        pin_lanes(3)

        def dies_mid_message(fd, part, paths):
            # only the first half of the pickled log-wealth
            message = pickle.dumps(part(paths), pickle.HIGHEST_PROTOCOL)
            os.write(fd, message[: len(message) // 2])
            os._exit(1)

        for worker in (lambda *args: os._exit(1), dies_mid_message):
            folded.clear()
            monkeypatch.setattr(_fanout, "_worker", worker)
            assert self.run(n_paths).tobytes() == want.tobytes()
            assert folded == [(0, self.MIN), (self.MIN, self.MIN), (2 * self.MIN, self.MIN)]

    def test_failed_fork_is_folded_here(self, monkeypatch, pin_lanes):
        n_paths = 3 * self.MIN

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        want = self.reference(n_paths)
        folded = self.spy_parent_paths(monkeypatch)
        monkeypatch.setattr(os, "fork", no_fork)
        pin_lanes(3)
        assert self.run(n_paths).tobytes() == want.tobytes()
        assert folded == [(0, self.MIN), (self.MIN, self.MIN), (2 * self.MIN, self.MIN)]

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_bad_seed_raises_before_any_fork(self, monkeypatch, pin_lanes, capfd, seed):
        with pytest.raises((ValueError, TypeError)) as expected:
            np.random.PCG64(seed)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        pin_lanes(2)
        params, policy = _engine_case(self.N)
        with pytest.raises(expected.type) as exc_info:
            simulate_terminal_wealth(params, policy, 1.0, self.STEPS, 2 * self.MIN, seed, 1.0)
        assert str(exc_info.value) == str(expected.value)
        assert forks == []
        assert capfd.readouterr().err == ""


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestParallelSimulator:
    """Wealth under the optimal weights at 1, 2 and 3 lanes, and the
    increments it folds, against digests recorded with the serial simulator
    that kept every path in one private array: SHA-256 of the output's bytes
    (numpy 2.4, x86-64).

    ``small`` patches the minimum chunk to ``MIN`` paths; ``full`` runs the
    real constants on three lanes' worth of work.
    """

    MIN = 10
    CASES = {
        "small": dict(steps=12, n=3, n_paths=3 * MIN + 2),
        "full": dict(steps=252, n=5, n_paths=3 * -(-simulate._MIN_LANE_WORK // 1260) + 2),
    }
    DIGESTS = {
        "small": {
            "increments": "56d6ca6180dfac60cd9993be7859e2ca4daeb730e2881be7889f92bbf3e2255c",
            "wealth": "943c14db782c08e36a0373eb79c94ef3a2fa5bc72830fdb41cf3de73a8e2b501",
        },
        "full": {
            "increments": "42aa3c3bde2019cc2bafbc60aea70dbf675a6a62f02ba54388f170a568ea4965",
            "wealth": "88fbb773eaf609b54578e96132f5bfe44b03feff6cc730c871204c77158058f8",
        },
    }

    @pytest.mark.parametrize("case", ["small", "full"])
    def test_outputs_match_the_serial_simulator(self, monkeypatch, pin_lanes, case):
        steps, n, n_paths = (self.CASES[case][k] for k in ("steps", "n", "n_paths"))
        if case == "small":
            monkeypatch.setattr(simulate, "_MIN_LANE_WORK", self.MIN * steps * n)
        increments = np.empty((n_paths, steps, n))
        simulate._per_path_increments(11, 0, increments, 1.0 / steps)
        assert _digest(increments) == self.DIGESTS[case]["increments"]
        params, policy = _engine_case(n)
        for lanes in (1, 2, 3):
            pin_lanes(lanes)
            wealth = simulate_terminal_wealth(params, policy, 1.0, steps, n_paths, 11, 1.5)
            assert _digest(wealth) == self.DIGESTS[case]["wealth"]


class TestWealthLaw:
    def test_zero_horizon_moments(self):
        law = WealthLaw(w=3.0, lam=0.1, kappa=0.5, n=4, t=0.0)
        assert optimal_wealth_moments(law) == (3.0, 0.0)

    def test_reference_moment_values(self):
        law = WealthLaw(w=1.0, lam=0.1, kappa=1.0, n=1, t=1.0)
        mean, var = optimal_wealth_moments(law)
        assert mean == pytest.approx(math.exp(0.1), rel=1e-15)
        assert var == pytest.approx(math.exp(0.2) * (math.e - 1.0), rel=1e-14)

    def test_variance_strictly_decreasing_in_asset_count(self):
        variances = [
            optimal_wealth_moments(WealthLaw(w=1.0, lam=0.1, kappa=0.8, n=n, t=1.0))[1]
            for n in (1, 2, 5, 25, 100, 10_000)
        ]
        assert all(a > b for a, b in zip(variances, variances[1:]))
        assert variances[-1] < 1e-4 * variances[0]

    def test_from_rates(self):
        law = WealthLaw.from_rates(w=1.0, lam=0.1, mu=0.2, r=0.03, n=5, t=1.0)
        assert law.kappa == pytest.approx(0.07 / 0.17, rel=1e-15)
        with pytest.raises(ValueError):
            WealthLaw.from_rates(w=1.0, lam=0.1, mu=0.05, r=0.05, n=5, t=1.0)

    def test_validation(self):
        # a non-finite field would make the moments nan or inf
        good = dict(w=1.0, lam=0.1, kappa=1.0, n=1, t=1.0)
        for field, value in (
            ("w", 0.0),
            ("w", math.nan),
            ("w", math.inf),
            ("lam", math.nan),
            ("lam", -math.inf),
            ("kappa", -0.2),
            ("kappa", math.nan),
            ("kappa", math.inf),
            ("t", -1.0),
            ("t", math.nan),
            ("t", math.inf),
        ):
            with pytest.raises(ValueError, match=rf"\b{field} must"):
                WealthLaw(**{**good, field: value})


class TestWealthDensity:
    def test_mode_value_matches_closed_form(self):
        law = WealthLaw(w=1.0, lam=0.1, kappa=0.9, n=3, t=1.0)
        m, s = law.log_mean, law.log_sd
        mode = math.exp(m - s * s)
        peak = math.exp(s * s / 2.0 - m) / (s * math.sqrt(2.0 * math.pi))
        got = optimal_wealth_density(law, [mode])[0]
        assert got == pytest.approx(peak, rel=1e-12)

    def test_integrates_to_one(self):
        law = WealthLaw(w=1.0, lam=0.1, kappa=1.2, n=2, t=1.0)
        m, s = law.log_mean, law.log_sd
        grid = np.exp(np.linspace(m - 6.5 * s, m + 6.5 * s, 400_000))
        total = np.trapezoid(optimal_wealth_density(law, grid), grid)
        assert abs(total - 1.0) <= 1e-6

    def test_wide_fixed_grid_captures_mass(self):
        # at kappa = 2 the log-sd is 2.0 and the upper tail beyond 20
        # still holds ~0.7% of the mass, so the threshold drops there
        grid = np.linspace(1e-4, 20.0, 200_000)
        for kappa, floor in ((0.5, 0.999), (1.0, 0.999), (2.0, 0.99)):
            law = WealthLaw(w=1.0, lam=0.1, kappa=kappa, n=1, t=1.0)
            total = np.trapezoid(optimal_wealth_density(law, grid), grid)
            assert total >= floor

    def test_curves_tighten_with_asset_count(self):
        kappa = fig_left_kappa()
        grid = np.linspace(0.01, 3.0, 2000)
        peaks = []
        for n in (1, 5, 25):
            law = WealthLaw(
                w=FIG_LEFT["w"], lam=FIG_LEFT["lam"], kappa=kappa, n=n, t=FIG_LEFT["t"]
            )
            peaks.append(optimal_wealth_density(law, grid).max())
        assert peaks[0] < peaks[1] < peaks[2]

    def test_huge_asset_count_concentrates_near_growth_level(self):
        kappa = fig_left_kappa()
        law = WealthLaw(w=1.0, lam=0.1, kappa=kappa, n=10**6, t=1.0)
        center = math.exp(0.1)
        grid = np.linspace(0.99 * center, 1.01 * center, 50_000)
        total = np.trapezoid(optimal_wealth_density(law, grid), grid)
        assert total >= 0.99

    def test_rejects_nonpositive_grid(self):
        law = WealthLaw(w=1.0, lam=0.1, kappa=1.0, n=1, t=1.0)
        with pytest.raises(NonPositiveGridPoint):
            optimal_wealth_density(law, [0.5, 0.0, 1.0])
        with pytest.raises(NonPositiveGridPoint):
            optimal_wealth_density(law, [-1.0])
