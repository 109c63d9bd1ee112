import errno
import hashlib
import math
import multiprocessing
import os
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import random_cov, shared
from equidrift import (
    CovMatrix,
    ModelParams,
    VolMatrix,
    WealthLaw,
    WeightVector,
    optimal_wealth_density,
    optimal_wealth_moments,
    pi_star,
    replay_wealth,
    simulate_paths,
    simulate_terminal_wealth,
    sym_sqrt,
    synthetic_panel,
)
from equidrift import _fanout, simulate
from equidrift.errors import DimensionMismatch, NonPositiveGridPoint

FIG_LEFT = dict(w=1.0, lam=0.1, mu=0.2, r=0.03, t=1.0)


def fig_left_kappa() -> float:
    return (FIG_LEFT["lam"] - FIG_LEFT["r"]) / (FIG_LEFT["mu"] - FIG_LEFT["r"])


class TestSimulatePaths:
    def test_vanishing_volatility_grows_at_r(self):
        params = ModelParams(sigma=VolMatrix(1e-12 * np.eye(2)), mu=0.2, r=0.03)
        paths = simulate_paths(params, horizon=1.0, steps=4, n_paths=3, seed=0)
        ratios = paths.prices[:, -1, :] / paths.prices[:, 0, :]
        np.testing.assert_allclose(ratios, math.exp(0.03), rtol=1e-9)

    def test_single_asset_price_mean(self):
        params = ModelParams(sigma=VolMatrix([[0.2]]), mu=0.2, r=0.03)
        paths = simulate_paths(params, horizon=1.0, steps=1, n_paths=100_000, seed=5)
        ratios = paths.prices[:, -1, 0] / paths.prices[:, 0, 0]
        se = ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(ratios.mean() - math.exp(0.064)) <= 4 * se

    def test_deterministic_per_seed(self):
        params = ModelParams(sigma=sym_sqrt(random_cov(np.random.default_rng(1), 3)), mu=0.2, r=0.03)
        a = simulate_paths(params, 1.0, 12, 50, seed=99)
        b = simulate_paths(params, 1.0, 12, 50, seed=99)
        np.testing.assert_array_equal(a.prices, b.prices)
        np.testing.assert_array_equal(a.driver_increments, b.driver_increments)
        np.testing.assert_array_equal(a.times, b.times)

    def test_path_count_does_not_change_earlier_paths(self):
        # per-path substreams: path i depends only on (seed, i), so asking
        # for more paths must not reshuffle the ones already drawn
        params = ModelParams(sigma=VolMatrix(0.3 * np.eye(2)), mu=0.2, r=0.03)
        small = simulate_paths(params, 1.0, 6, 3, seed=17)
        large = simulate_paths(params, 1.0, 6, 8, seed=17)
        np.testing.assert_array_equal(large.prices[:3], small.prices)

    def test_increment_variance_matches_grid(self):
        params = ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03)
        paths = simulate_paths(params, horizon=2.0, steps=8, n_paths=4000, seed=3)
        dt = paths.dt
        assert dt == 0.25
        sample_var = paths.driver_increments.var(ddof=1)
        assert abs(sample_var - dt) <= 0.05 * dt

    def test_initial_prices_respected(self):
        params = ModelParams(
            sigma=VolMatrix(0.2 * np.eye(2)), mu=0.2, r=0.03, s0=[5.0, 7.0]
        )
        paths = simulate_paths(params, 1.0, 3, 2, seed=0)
        np.testing.assert_allclose(paths.prices[:, 0, :], [[5.0, 7.0]] * 2, rtol=1e-15)

    @pytest.mark.parametrize("rows", [1, 7, 23, 30])
    def test_prices_match_whole_tensor_build(self, monkeypatch, rows):
        # Prices are built a block of paths at a time; the reference is the
        # whole-tensor formula applied to the returned increments.
        sigma = sym_sqrt(random_cov(np.random.default_rng(2), 4, scale=0.05))
        params = ModelParams(sigma=sigma, mu=0.2, r=0.03, s0=[1.0, 2.0, 30.0, 0.5])
        monkeypatch.setattr(simulate, "_block_rows", lambda steps, n: rows)
        paths = simulate_paths(params, 1.5, 9, 23, seed=5)
        sig = sigma.entries
        excess = params.mu - params.r
        drift = (params.r - 0.5 * (sig ** 2).sum(axis=1) + excess * sig.sum(axis=1)) * (1.5 / 9)
        log_paths = np.cumsum(paths.driver_increments @ sig.T + drift, axis=1)
        want = np.exp(np.concatenate([np.zeros((23, 1, 4)), log_paths], axis=1) + np.log(params.s0))
        assert paths.prices.tobytes() == want.tobytes()

    def test_prices_strictly_positive(self):
        params = ModelParams(sigma=VolMatrix(2.0 * np.eye(2)), mu=0.2, r=0.03)
        paths = simulate_paths(params, 5.0, 50, 200, seed=8)
        assert np.all(paths.prices > 0.0)

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
    def test_all_cash_grows_at_r_exactly(self):
        params = ModelParams(sigma=VolMatrix(0.5 * np.eye(2)), mu=0.2, r=0.03)
        paths = simulate_paths(params, horizon=1.0, steps=8, n_paths=20, seed=2)
        cash = WeightVector(weights=[0.0, 0.0], kappa=None, exposure=0.0)
        wealth = replay_wealth(paths, cash, params, w0=2.0)
        np.testing.assert_array_equal(wealth, np.full(20, 2.0 * math.exp(0.03)))

    def test_optimal_policy_moments(self):
        n = 5
        rng = np.random.default_rng(42)
        sigma = sym_sqrt(random_cov(rng, n, scale=0.1))
        params = ModelParams(sigma=sigma, mu=FIG_LEFT["mu"], r=FIG_LEFT["r"])
        kappa = fig_left_kappa()
        wv = pi_star(sigma, kappa)
        paths = simulate_paths(params, FIG_LEFT["t"], 16, 40_000, seed=7)
        wealth = replay_wealth(paths, wv, params, FIG_LEFT["w"])

        law = WealthLaw(w=FIG_LEFT["w"], lam=FIG_LEFT["lam"], kappa=kappa, n=n, t=FIG_LEFT["t"])
        mean_th, var_th = optimal_wealth_moments(law)
        se = wealth.std(ddof=1) / math.sqrt(wealth.size)
        assert abs(wealth.mean() - mean_th) <= 4 * se
        assert abs(wealth.var(ddof=1) - var_th) <= 0.05 * var_th

    def test_wealth_strictly_positive_under_leverage(self):
        params = ModelParams(sigma=VolMatrix(0.4 * np.eye(3)), mu=0.2, r=0.03)
        heavy = WeightVector(weights=[3.0, -1.0, 2.0], kappa=None, exposure=4.0)
        paths = simulate_paths(params, 2.0, 40, 500, seed=21)
        wealth = replay_wealth(paths, heavy, params, w0=1.0)
        assert np.all(wealth > 0.0)

    def test_per_step_policy_callable(self):
        params = ModelParams(sigma=VolMatrix(0.2 * np.eye(2)), mu=0.2, r=0.03)
        paths = simulate_paths(params, 1.0, 4, 10, seed=4)
        all_a = WeightVector(weights=[1.0, 0.0], kappa=None, exposure=1.0)
        all_b = WeightVector(weights=[0.0, 1.0], kappa=None, exposure=1.0)

        def alternating(step):
            return all_a if step % 2 == 0 else all_b

        wealth = replay_wealth(paths, alternating, params, 1.0)
        assert np.all(wealth > 0.0)
        assert not np.array_equal(wealth, replay_wealth(paths, all_a, params, 1.0))

    def test_dimension_mismatch(self):
        params = ModelParams(sigma=VolMatrix(np.eye(2)), mu=0.2, r=0.03)
        paths = simulate_paths(params, 1.0, 2, 2, seed=0)
        wrong = WeightVector(weights=[1.0, 0.0, 0.0], kappa=None, exposure=1.0)
        with pytest.raises(DimensionMismatch):
            replay_wealth(paths, wrong, params, 1.0)

    def test_variance_floor_among_equal_mean_exposures(self):
        # any constant driver-exposure vector with the same coordinate sum
        # has terminal-wealth variance at least the equalized one
        n = 3
        sigma = VolMatrix(np.eye(n))
        params = ModelParams(sigma=sigma, mu=FIG_LEFT["mu"], r=FIG_LEFT["r"])
        kappa = fig_left_kappa()
        paths = simulate_paths(params, 1.0, 8, 30_000, seed=13)
        law = WealthLaw(w=1.0, lam=FIG_LEFT["lam"], kappa=kappa, n=n, t=1.0)
        _, var_opt = optimal_wealth_moments(law)

        rng = np.random.default_rng(55)
        for _ in range(10):
            p = rng.normal(loc=kappa / n, scale=0.3, size=n)
            p += (kappa - p.sum()) / n
            pi = np.linalg.solve(sigma.entries.T, p)
            wv = WeightVector(weights=pi, kappa=None, exposure=float(pi.sum()))
            wealth = replay_wealth(paths, wv, params, 1.0)
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
        paths = simulate_paths(params, 1.0, 2, 2, seed=0)

        def no_noise(*args):
            raise AssertionError("noise drawn before the inputs were checked")

        monkeypatch.setattr(simulate, "_per_path_increments", no_noise)
        for w0 in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="initial wealth"):
                replay_wealth(paths, policy, params, w0)
            with pytest.raises(ValueError, match="initial wealth"):
                simulate_terminal_wealth(params, policy, 1.0, 2, 2, 0, w0)


def _engine_case(n: int):
    """Model, constant policy and per-step policy on an n-asset random vol."""
    sigma = sym_sqrt(random_cov(np.random.default_rng(n), n, scale=0.05))
    params = ModelParams(sigma=sigma, mu=0.2, r=0.03)
    base = pi_star(sigma, 0.4)

    def per_step(step):
        w = base.weights * (1.0 + 0.25 * math.sin(step))
        return WeightVector(weights=w, kappa=None, exposure=float(w.sum()))

    return params, base, per_step


class TestTerminalWealthEngine:
    STEPS, PATHS = 9, 23

    @pytest.mark.parametrize("n", [5, 47])
    @pytest.mark.parametrize("policy_kind", ["constant", "per_step"])
    @pytest.mark.parametrize("rows", [1, 7, "budget", PATHS, PATHS + 5])
    def test_bitwise_equal_to_replay(self, monkeypatch, n, policy_kind, rows):
        params, constant, per_step = _engine_case(n)
        policy = constant if policy_kind == "constant" else per_step
        paths = simulate_paths(params, 1.5, self.STEPS, self.PATHS, seed=31)
        expected = replay_wealth(paths, policy, params, 2.0)

        if rows == "budget":
            # The real row formula, on a budget small enough to split the paths.
            monkeypatch.setattr(simulate, "_BLOCK_BYTES", 12 * 8 * self.STEPS * (n + 1))
            assert 1 < simulate._block_rows(self.STEPS, n) < self.PATHS
        else:
            monkeypatch.setattr(simulate, "_block_rows", lambda steps, n: rows)
        got = simulate_terminal_wealth(params, policy, 1.5, self.STEPS, self.PATHS, 31, 2.0)
        assert got.tobytes() == expected.tobytes()
        # replay_wealth folds in blocks of the same size; its rows must not move either.
        assert replay_wealth(paths, policy, params, 2.0).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("start", [0, 1, 2, 19_999, 10**6, 2**40 + 3])
    def test_noise_kernel_matches_jumped_substreams(self, start):
        steps, n, dt = 6, 3, 0.25
        out = np.empty((2, steps, n))
        simulate._per_path_increments(1234, start, out, dt)
        for row, i in enumerate((start, start + 1)):
            gen = np.random.Generator(np.random.PCG64(1234).jumped(i))
            want = math.sqrt(dt) * gen.standard_normal((steps, n))
            assert out[row].tobytes() == want.tobytes()

    def test_policy_called_once_per_step(self, monkeypatch):
        params, _, per_step = _engine_case(5)
        calls = []

        def counted(step):
            calls.append(step)
            return per_step(step)

        monkeypatch.setattr(simulate, "_block_rows", lambda steps, n: 4)
        simulate_terminal_wealth(params, counted, 1.0, self.STEPS, self.PATHS, 0, 1.0)
        assert calls == list(range(self.STEPS))
        calls.clear()
        replay_wealth(simulate_paths(params, 1.0, self.STEPS, self.PATHS, 0), counted, params, 1.0)
        assert calls == list(range(self.STEPS))

    def test_memory_stays_within_block_budget(self, pin_lanes):
        # The full increment tensor at this size would be 50 MB. Besides the
        # block and the wealth vector the engine holds only things of fixed
        # size: the per-step tables (12 kB here), numpy's ufunc iteration
        # buffer (64 KiB) and interpreter objects. On two lanes the worker's
        # half arrives as one pickled array after the caller's half is folded
        # and its block freed. The first call imports numpy.random and
        # multiprocessing, which is interpreter state and not engine memory,
        # so it runs before tracing starts.
        params = ModelParams(sigma=VolMatrix(0.2 * np.eye(5)), mu=0.2, r=0.03)
        policy = pi_star(params.sigma, 0.4)
        for lanes in (1, 2):
            pin_lanes(lanes)
            simulate_terminal_wealth(params, policy, 1.0, 252, 5_000, 3, 1.0)
            tracemalloc.start()
            try:
                wealth = simulate_terminal_wealth(params, policy, 1.0, 252, 5_000, 3, 1.0)
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
        params, _, per_step = _engine_case(self.N)
        return simulate_terminal_wealth(params, per_step, 1.0, self.STEPS, n_paths, 11, 1.5)

    def reference(self, n_paths):
        params, _, per_step = _engine_case(self.N)
        paths = simulate_paths(params, 1.0, self.STEPS, n_paths, 11)
        return replay_wealth(paths, per_step, params, 1.5)

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

        def dies_mid_message(writer, part, paths):
            # a length header and the first 8 of the bytes it announces
            os.write(writer.fileno(), struct.pack("!i", 8 * len(paths)) + bytes(8))
            os._exit(1)

        for worker in (lambda *args: os._exit(1), dies_mid_message):
            folded.clear()
            monkeypatch.setattr(_fanout, "_worker", worker)
            assert self.run(n_paths).tobytes() == want.tobytes()
            assert folded == [(0, self.MIN), (self.MIN, self.MIN), (2 * self.MIN, self.MIN)]

    def test_failed_fork_is_folded_here(self, monkeypatch, pin_lanes):
        n_paths = 3 * self.MIN

        def no_fork(process_obj):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        want = self.reference(n_paths)
        folded = self.spy_parent_paths(monkeypatch)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "_Popen", staticmethod(no_fork))
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
        params, constant, _ = _engine_case(self.N)
        with pytest.raises(expected.type) as exc_info:
            simulate_terminal_wealth(params, constant, 1.0, self.STEPS, 2 * self.MIN, seed, 1.0)
        assert str(exc_info.value) == str(expected.value)
        assert forks == []
        assert capfd.readouterr().err == ""


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestParallelSimulator:
    """``simulate_paths`` and ``replay_wealth`` fanned out over pinned lanes.

    ``small`` patches both minimum chunks to ``MIN`` paths and splits each
    chunk into several blocks and fold slabs; ``full`` runs the real
    constants on three lanes' worth of ``simulate_paths`` work, which
    ``replay_wealth`` folds serially. Each digest is SHA-256 of the
    output's bytes, recorded with the serial simulator that kept every path
    in one private array, so the fan-out moves no bit (numpy 2.4, x86-64).
    """

    MIN = 10
    CASES = {
        "small": dict(steps=12, n=3, n_paths=3 * MIN + 2),
        "full": dict(steps=252, n=5, n_paths=3 * -(-simulate._MIN_LANE_WORK // 1260) + 2),
    }
    DIGESTS = {
        "small": {
            "prices": "5011dfc430ee78e327fa6501d1cebbdb9f9ad5c6b84d04d5f9ba711af6497895",
            "increments": "56d6ca6180dfac60cd9993be7859e2ca4daeb730e2881be7889f92bbf3e2255c",
            "wealth": "6dea3bdc487c7011f9d576097b4df15ba6255e5890828f6f82f5e6e2fe9971ef",
        },
        "full": {
            "prices": "d0c3365abdf769d63e43411dd9f5375e48c5fc783e32f5f7b8a97dee09423824",
            "increments": "42aa3c3bde2019cc2bafbc60aea70dbf675a6a62f02ba54388f170a568ea4965",
            "wealth": "ed1bf31a313a1759d0643ab0b92e32bba8ac61a265f8c1737526493950cc7a04",
        },
    }

    @pytest.fixture
    def small(self, monkeypatch):
        """The small case's patches: chunks of at least ``MIN`` paths,
        blocks of 4 paths and fold slabs of 3."""
        steps, n = self.CASES["small"]["steps"], self.CASES["small"]["n"]
        monkeypatch.setattr(simulate, "_MIN_LANE_WORK", self.MIN * steps * n)
        monkeypatch.setattr(simulate, "_MIN_REPLAY_WORK", self.MIN * steps * n)
        monkeypatch.setattr(simulate, "_block_rows", lambda steps, n: 4)
        monkeypatch.setattr(simulate, "_SLAB_BYTES", 3 * 8 * steps * n)

    @staticmethod
    def spy_parent_draws(monkeypatch):
        """The (first path, path count) of each block this process draws."""
        drawn, caller = [], os.getpid()
        draw = simulate._per_path_increments

        def spy(seed, start, out, dt):
            if os.getpid() == caller:
                drawn.append((start, len(out)))
            return draw(seed, start, out, dt)

        monkeypatch.setattr(simulate, "_per_path_increments", spy)
        return drawn

    def run(self, case):
        steps, n, n_paths = (self.CASES[case][k] for k in ("steps", "n", "n_paths"))
        params, _, per_step = _engine_case(n)
        paths = simulate_paths(params, 1.0, steps, n_paths, 11)
        wealth = replay_wealth(paths, per_step, params, 1.5)
        return paths, wealth

    @pytest.mark.parametrize("case", ["small", "full"])
    def test_outputs_match_the_serial_simulator(self, request, pin_lanes, case):
        if case == "small":
            request.getfixturevalue("small")
        steps, n, n_paths = (self.CASES[case][k] for k in ("steps", "n", "n_paths"))
        params, _, per_step = _engine_case(n)
        for lanes in (1, 2, 3):
            pin_lanes(lanes)
            paths, wealth = self.run(case)
            got = {"prices": paths.prices, "increments": paths.driver_increments, "wealth": wealth}
            assert {k: _digest(v) for k, v in got.items()} == self.DIGESTS[case]
            streamed = simulate_terminal_wealth(params, per_step, 1.0, steps, n_paths, 11, 1.5)
            assert streamed.tobytes() == wealth.tobytes()

    def test_chunks_are_computed_by_their_workers(self, monkeypatch, pin_lanes, small):
        drawn = self.spy_parent_draws(monkeypatch)
        folded, fold = [], simulate._fold_paths

        def spy(paths, *args):
            folded.append(paths)
            return fold(paths, *args)

        monkeypatch.setattr(simulate, "_fold_paths", spy)
        pin_lanes(3)
        self.run("small")
        # this process draws and folds only the first chunk of 10 paths
        assert drawn == [(0, 4), (4, 4), (8, 2)]
        assert folded == [range(0, 10)]

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_outputs_are_shared_exactly_when_forked(self, monkeypatch, pin_lanes, small, lanes):
        n_paths = self.CASES["small"]["n_paths"]
        for pinned, serial in ((lanes, False), (1, True)):
            pin_lanes(pinned)
            paths, _ = self.run("small")
            for array in (paths.prices, paths.driver_increments):
                assert shared(array) != serial
                assert not array.flags.writeable
            assert paths.n_paths == n_paths

    @pytest.mark.parametrize("failure", ["dies at once", "dies mid-chunk", "cannot fork"])
    def test_no_rows_are_lost_with_a_worker(self, monkeypatch, pin_lanes, small, failure):
        pin_lanes(1)
        want = self.run("small")
        drawn = self.spy_parent_draws(monkeypatch)
        if failure == "cannot fork":

            def no_fork(process_obj):
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

            monkeypatch.setattr(
                multiprocessing.context.ForkProcess, "_Popen", staticmethod(no_fork)
            )
        elif failure == "dies at once":
            monkeypatch.setattr(_fanout, "_worker", lambda *args: os._exit(1))
        else:

            def dies_mid_chunk(writer, part, chunk):
                part(chunk[: len(chunk) // 2])
                os._exit(1)

            monkeypatch.setattr(_fanout, "_worker", dies_mid_chunk)
        pin_lanes(3)
        paths, wealth = self.run("small")
        assert paths.prices.tobytes() == want[0].prices.tobytes()
        assert paths.driver_increments.tobytes() == want[0].driver_increments.tobytes()
        assert wealth.tobytes() == want[1].tobytes()
        # this process drew every chunk, the lost ones after its own
        assert [start for start, _ in drawn] == [0, 4, 8, 10, 14, 18, 21, 25, 29]

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_bad_seed_raises_before_any_fork(self, monkeypatch, pin_lanes, small, capfd, seed):
        with pytest.raises((ValueError, TypeError)) as expected:
            np.random.PCG64(seed)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        pin_lanes(3)
        params, _, _ = _engine_case(self.CASES["small"]["n"])
        with pytest.raises(expected.type) as exc_info:
            simulate_paths(params, 1.0, self.CASES["small"]["steps"], 3 * self.MIN, seed)
        assert str(exc_info.value) == str(expected.value)
        assert forks == []
        assert capfd.readouterr().err == ""

    def test_one_path_panel_stays_serial_and_private(self, monkeypatch, pin_lanes):
        def no_mapping(*args):
            raise AssertionError("a serial run mapped shared memory")

        monkeypatch.setattr(_fanout.mmap, "mmap", no_mapping)
        monkeypatch.setattr(simulate, "_MIN_LANE_WORK", 1)
        pin_lanes(3)
        params = ModelParams(sigma=VolMatrix(0.2 * np.eye(3)), mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=60, seed=0)
        assert panel.returns.shape == (60, 3)


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
        with pytest.raises(ValueError):
            WealthLaw(w=0.0, lam=0.1, kappa=1.0, n=1, t=1.0)
        with pytest.raises(ValueError):
            WealthLaw(w=1.0, lam=0.1, kappa=-0.2, n=1, t=1.0)


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
