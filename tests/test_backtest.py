import datetime
import errno
import importlib.util
import math
import os
import pickle
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, reject, settings
from hypothesis import strategies as st

from conftest import public_chain
from equidrift import (
    BacktestConfig,
    DateRange,
    EquidriftError,
    ModelParams,
    ReturnPanel,
    TargetMatrix,
    VolMatrix,
    estimate_covariance,
    estimation_window,
    factor_covariance,
    pi_star_fully_invested,
    rolling_backtest,
    sym_sqrt,
    synthetic_panel,
)
from equidrift import _fanout, backtest
from equidrift.backtest import BLACK_MONDAY_WEEK
from equidrift.data import _weekday_dates
from equidrift.errors import (
    DimensionMismatch,
    EmptyPanel,
    InsufficientHistory,
    InsufficientObservations,
    MissingData,
    NotPositiveDefinite,
    SingularCovariance,
)

SMALL = dict(window_days=30, reestimate_every=5, exclusion_windows=())


def _bench_oracle():
    """``bench/oracle.py``, the benchmark's numpy-only reimplementation of the
    protocol, loaded by path (``bench/`` is not a package)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


oracle = _bench_oracle()


def weekdays(days: int) -> np.ndarray:
    """``days`` consecutive weekdays from 2000-01-03, as YYYYMMDD integers."""
    return _weekday_dates(days, datetime.date(2000, 1, 3))


def zero_panel(days=40, n=2):
    return ReturnPanel(
        dates=weekdays(days),
        assets=tuple(f"Z{i}" for i in range(n)),
        returns=np.zeros((days, n)),
        missing_mask=np.zeros((days, n), dtype=bool),
    )


def gbm_panel(days, seed, sigma=None, n=3):
    if sigma is None:
        sigma = VolMatrix(0.2 * np.eye(n))
    params = ModelParams(sigma=sigma, mu=0.2, r=0.03)
    return synthetic_panel(params, days=days, seed=seed)


class TestBacktestConfig:
    def test_defaults(self):
        cfg = BacktestConfig()
        assert cfg.window_days == 1260
        assert cfg.reestimate_every == 20
        assert cfg.factorization == "sym_sqrt"
        assert cfg.exclusion_windows == (BLACK_MONDAY_WEEK,)
        assert cfg.rf_daily == pytest.approx(0.03 / 252, rel=1e-15)

    def test_window_must_exceed_cadence(self):
        with pytest.raises(ValueError):
            BacktestConfig(window_days=20, reestimate_every=20)

    def test_unknown_factorization(self):
        with pytest.raises(ValueError, match="factorization"):
            BacktestConfig(factorization="lu")

    def test_rotate_needs_target(self):
        with pytest.raises(ValueError, match="rotation_target"):
            BacktestConfig(factorization="rotate")
        BacktestConfig(factorization="rotate", rotation_target=np.eye(2))

    @pytest.mark.parametrize("method", ["sym_sqrt", "cholesky"])
    def test_target_needs_rotate(self, method):
        with pytest.raises(ValueError, match="rotation_target needs factorization 'rotate'"):
            BacktestConfig(factorization=method, rotation_target=np.eye(2))

    def test_shrinkage_sign(self):
        with pytest.raises(ValueError):
            BacktestConfig(shrinkage=0.0)
        with pytest.raises(ValueError):
            BacktestConfig(shrinkage=-1e-6)
        for shrinkage in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                BacktestConfig(shrinkage=shrinkage)

    @pytest.mark.parametrize("exposure", [0.0, -0.0, math.nan, math.inf])
    def test_exposure_must_be_finite_and_nonzero(self, exposure):
        with pytest.raises(ValueError, match="exposure must be finite and non-zero"):
            BacktestConfig(exposure=exposure)

    def test_equal_targets_give_equal_configs_and_hashes(self):
        a = BacktestConfig(factorization="rotate", rotation_target=np.eye(2))
        b = BacktestConfig(factorization="rotate", rotation_target=[[1.0, 0.0], [0.0, 1.0]])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_targets_give_unequal_configs(self):
        a = BacktestConfig(factorization="rotate", rotation_target=np.eye(2))
        assert a != BacktestConfig(factorization="rotate", rotation_target=2.0 * np.eye(2))
        assert a != BacktestConfig(factorization="rotate", rotation_target=np.eye(3))
        assert a != BacktestConfig(
            factorization="rotate", rotation_target=np.eye(2), exposure=0.5
        )

    def test_configs_without_target_compare_by_fields(self):
        assert BacktestConfig() == BacktestConfig()
        assert hash(BacktestConfig()) == hash(BacktestConfig())
        assert BacktestConfig() != BacktestConfig(window_days=1000)
        assert BacktestConfig() != "BacktestConfig()"

    def test_target_is_validated_and_stored_as_nested_tuples(self):
        cfg = BacktestConfig(factorization="rotate", rotation_target=np.eye(2))
        assert cfg.rotation_target == ((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="target matrix must be a square"):
            BacktestConfig(factorization="rotate", rotation_target=np.ones(3))


class TestEstimateCovariance:
    def test_matches_sample_covariance(self):
        panel = gbm_panel(200, seed=0)
        cov = estimate_covariance(panel)
        want = np.cov(panel.returns, rowvar=False, ddof=1)
        np.testing.assert_allclose(cov.entries, want, rtol=1e-14)

    def test_large_sample_accuracy(self):
        rng = np.random.default_rng(12)
        lower = np.array([[0.01, 0.0], [0.004, 0.02]])
        true_cov = lower @ lower.T
        m = 100_000
        draws = rng.standard_normal((m, 2)) @ lower.T
        panel = ReturnPanel(
            dates=weekdays(m),
            assets=("A", "B"),
            returns=draws,
            missing_mask=np.zeros((m, 2), dtype=bool),
        )
        cov = estimate_covariance(panel)
        bound = 5.0 * math.sqrt(2.0 / m) * np.abs(true_cov).max()
        assert np.max(np.abs(cov.entries - true_cov)) <= bound

    def test_constant_column_not_positive_definite(self):
        panel = ReturnPanel(
            dates=[20000103, 20000104, 20000105],
            assets=("A", "B"),
            returns=[[0.01, 0.02], [0.03, 0.02], [0.02, 0.02]],
            missing_mask=np.zeros((3, 2), dtype=bool),
        )
        with pytest.raises(NotPositiveDefinite):
            estimate_covariance(panel)
        repaired = estimate_covariance(panel, shrinkage=1e-6)
        assert np.linalg.eigvalsh(repaired.entries).min() > 0.0

    def test_overflowing_covariance_is_not_positive_definite(self):
        # one return of 1e200 overflows the sum of squares; shrinkage cannot
        # repair it, and numpy warns of nothing
        panel = gbm_panel(60, seed=0)
        returns = np.array(panel.returns)
        returns[30, 1] = 1e200
        panel = ReturnPanel(panel.dates, panel.assets, returns, panel.missing_mask)
        for shrinkage in (None, 1e-4):
            with pytest.raises(NotPositiveDefinite, match="^sample covariance overflows"):
                estimate_covariance(panel, shrinkage=shrinkage)

    def test_perfectly_correlated_columns(self):
        rng = np.random.default_rng(3)
        col = rng.normal(0.0, 0.01, size=50)
        panel = ReturnPanel(
            dates=weekdays(50),
            assets=("A", "B"),
            returns=np.column_stack([col, 2.0 * col]),
            missing_mask=np.zeros((50, 2), dtype=bool),
        )
        with pytest.raises(NotPositiveDefinite):
            estimate_covariance(panel)
        estimate_covariance(panel, shrinkage=1e-4)

    def test_missing_cell_identified(self):
        panel = ReturnPanel(
            dates=[20000103, 20000104, 20000105],
            assets=("A", "B"),
            returns=[[0.01, 0.02], [0.03, np.nan], [0.02, 0.01]],
            missing_mask=[[False, False], [False, True], [False, False]],
        )
        with pytest.raises(MissingData) as exc_info:
            estimate_covariance(panel)
        assert exc_info.value.date == 20000104
        assert exc_info.value.asset == "B"

    def test_too_few_rows(self):
        panel = gbm_panel(days=3, seed=0, n=3)
        with pytest.raises(InsufficientObservations):
            estimate_covariance(panel)


class TestEstimationWindow:
    def test_trailing_rows_without_exclusions(self):
        panel = gbm_panel(60, seed=1)
        cfg = BacktestConfig(**SMALL)
        window = estimation_window(panel, 40, cfg)
        np.testing.assert_array_equal(window.dates, panel.dates[10:40])

    def test_exclusions_remove_estimation_rows_only(self):
        panel = gbm_panel(60, seed=1)
        cut = DateRange(int(panel.dates[20]), int(panel.dates[22]))
        cfg = BacktestConfig(
            window_days=30, reestimate_every=5, exclusion_windows=(cut,)
        )
        window = estimation_window(panel, 40, cfg)
        assert window.n_dates == 27
        assert not np.any((window.dates >= cut.start) & (window.dates <= cut.end))

    def test_exclusion_bounds_are_inclusive(self):
        # both end dates are excluded, and the days just outside are kept
        panel = gbm_panel(60, seed=1)
        cut = DateRange(int(panel.dates[20]), int(panel.dates[22]))
        cfg = BacktestConfig(window_days=30, reestimate_every=5, exclusion_windows=(cut,))
        window = estimation_window(panel, 40, cfg)
        np.testing.assert_array_equal(window.dates, np.delete(panel.dates[10:40], [10, 11, 12]))

    def test_window_inside_exclusion_is_empty_panel(self):
        panel = gbm_panel(60, seed=1)
        cut = DateRange(int(panel.dates[5]), int(panel.dates[45]))
        cfg = BacktestConfig(window_days=30, reestimate_every=5, exclusion_windows=(cut,))
        with pytest.raises(EmptyPanel):
            estimation_window(panel, 40, cfg)


class TestRollingBacktest:
    def test_output_shapes_and_cadence(self):
        panel = gbm_panel(52, seed=5)
        cfg = BacktestConfig(**SMALL)
        report = rolling_backtest(panel, cfg)
        assert report.strategy_returns.shape == (22,)
        assert report.dates.tolist() == panel.dates[30:].tolist()
        # rebalances at offsets 0, 5, 10, 15, 20 past the first window
        assert report.rebalance_dates.tolist() == panel.dates[30::5].tolist()
        assert report.weight_history.shape == (5, 3)
        np.testing.assert_allclose(
            report.weight_history.sum(axis=1), 1.0, atol=1e-10
        )

    def test_matches_manual_reconstruction_exactly(self):
        panel = gbm_panel(52, seed=6)
        cfg = BacktestConfig(**SMALL)
        report = rolling_backtest(panel, cfg)
        for k, t in enumerate(range(30, 52, 5)):
            cov = estimate_covariance(
                estimation_window(panel, t, cfg), shrinkage=cfg.shrinkage
            )
            vol = factor_covariance(cov, cfg.factorization)
            want = pi_star_fully_invested(vol, cfg.exposure).weights
            assert np.array_equal(report.weight_history[k], want)

    def test_day_returns_use_current_weights(self):
        panel = gbm_panel(47, seed=7)
        cfg = BacktestConfig(**SMALL)
        report = rolling_backtest(panel, cfg)
        rebal_rows = {d: k for k, d in enumerate(report.rebalance_dates.tolist())}
        current = None
        for i, d in enumerate(report.dates.tolist()):
            if d in rebal_rows:
                current = report.weight_history[rebal_rows[d]]
            want = float(current @ panel.returns[30 + i])
            cash = (1.0 - current.sum()) * cfg.rf_daily
            assert report.strategy_returns[i] == pytest.approx(want + cash, abs=1e-15)

    def test_causality_future_rows_do_not_leak(self):
        cfg = BacktestConfig(**SMALL)
        for seed in (0, 1, 2):
            panel = gbm_panel(60, seed=seed)
            base = rolling_backtest(panel, cfg)
            cutoff = 45
            corrupted = panel.returns.copy()
            corrupted[cutoff:] = 0.5
            twin = ReturnPanel(
                dates=panel.dates,
                assets=panel.assets,
                returns=corrupted,
                missing_mask=panel.missing_mask,
            )
            other = rolling_backtest(twin, cfg)
            head = cutoff - cfg.window_days
            np.testing.assert_array_equal(
                other.strategy_returns[:head], base.strategy_returns[:head]
            )
            assert not np.array_equal(
                other.strategy_returns[head:], base.strategy_returns[head:]
            )

    def test_recovers_inverse_vol_weights_on_diagonal_model(self):
        sigma = VolMatrix(np.diag([0.01, 0.02, 0.04]) * math.sqrt(252))
        params = ModelParams(sigma=sigma, mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=1281, seed=2)
        cfg = BacktestConfig(window_days=1260, reestimate_every=20, exclusion_windows=())
        report = rolling_backtest(panel, cfg)
        np.testing.assert_allclose(
            report.weight_history[0], [4 / 7, 2 / 7, 1 / 7], atol=0.02
        )

    def test_equal_uncorrelated_assets_give_near_equal_weights(self):
        panel = gbm_panel(1281, seed=0, sigma=VolMatrix(0.2 * np.eye(4)), n=4)
        cfg = BacktestConfig(
            window_days=1260,
            reestimate_every=20,
            factorization="cholesky",
            exclusion_windows=(),
        )
        report = rolling_backtest(panel, cfg)
        np.testing.assert_allclose(report.weight_history[0], 0.25, atol=0.05)

    def test_zero_returns_with_shrinkage(self):
        cfg = BacktestConfig(shrinkage=1e-6, **SMALL)
        report = rolling_backtest(zero_panel(), cfg)
        np.testing.assert_array_equal(report.strategy_returns, 0.0)
        np.testing.assert_allclose(report.weight_history, 0.5, atol=1e-12)
        assert report.stats_error is not None
        assert math.isnan(report.sharpe_strategy)
        assert math.isnan(report.jk_p)

    def test_zero_returns_without_shrinkage(self):
        with pytest.raises(SingularCovariance):
            rolling_backtest(zero_panel(), BacktestConfig(**SMALL))

    def test_partial_exposure_accrues_cash(self):
        cfg = BacktestConfig(shrinkage=1e-6, exposure=0.5, **SMALL)
        report = rolling_backtest(zero_panel(), cfg)
        want = 0.5 * cfg.rf_daily
        np.testing.assert_allclose(report.strategy_returns, want, rtol=1e-14)
        np.testing.assert_allclose(report.benchmark_returns, want, rtol=1e-14)
        assert report.terminal_wealth_ratio == pytest.approx(1.0, abs=1e-14)
        # strategy and benchmark series are identical here, so whatever
        # rounding noise the sd picks up cancels in the ratio
        assert report.volatility_ratio == 1.0
        assert report.stats_error is not None

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            rolling_backtest(gbm_panel(34, seed=0), BacktestConfig(**SMALL))

    def test_rotation_target_of_another_size_raises_before_any_window(self, monkeypatch):
        def stacked(*args):
            raise AssertionError("a window was stacked")

        monkeypatch.setattr(backtest, "_stacked_weights", stacked)
        cfg = BacktestConfig(factorization="rotate", rotation_target=np.eye(2), **SMALL)
        with pytest.raises(DimensionMismatch, match="^factor is 3x3 but target is 2x2$"):
            rolling_backtest(gbm_panel(60, seed=0), cfg)

    def test_masked_rows_do_not_count_toward_history(self):
        # 40 rows but 6 are masked: only 34 complete, below window + cadence
        panel = gbm_panel(40, seed=1)
        mask = np.array(panel.missing_mask)
        mask[10:16, 0] = True
        returns = np.array(panel.returns)
        returns[10:16, 0] = np.nan
        holed = ReturnPanel(panel.dates, panel.assets, returns, mask)
        with pytest.raises(InsufficientHistory):
            rolling_backtest(holed, BacktestConfig(**SMALL))

    @pytest.mark.parametrize("days", [1, 2])
    def test_too_short_a_run_names_the_summary_minimum(self, days):
        cfg = BacktestConfig(window_days=30, reestimate_every=1, exclusion_windows=())
        report = rolling_backtest(gbm_panel(30 + days, seed=5), cfg)
        assert report.strategy_returns.size == days
        want = f"TooFewObservations: need at least 3 observations, got {days}"
        assert report.stats_error == want
        for key in ("sharpe_strategy", "sharpe_benchmark", "jk_z", "jk_p"):
            assert math.isnan(getattr(report, key)), key

    def test_summary_statistics_recompute(self):
        panel = gbm_panel(80, seed=9)
        cfg = BacktestConfig(**SMALL)
        report = rolling_backtest(panel, cfg)
        twr = float(
            np.prod(1.0 + report.strategy_returns)
            / np.prod(1.0 + report.benchmark_returns)
        )
        assert report.terminal_wealth_ratio == pytest.approx(twr, rel=1e-12)
        vol = report.strategy_returns.std(ddof=1) / report.benchmark_returns.std(ddof=1)
        assert report.volatility_ratio == pytest.approx(vol, rel=1e-12)

    def test_masked_cell_in_estimation_window_raises(self):
        panel = gbm_panel(45, seed=4)
        mask = np.array(panel.missing_mask)
        mask[5, 1] = True
        returns = np.array(panel.returns)
        returns[5, 1] = np.nan
        holed = ReturnPanel(panel.dates, panel.assets, returns, mask)
        with pytest.raises(MissingData) as exc_info:
            rolling_backtest(holed, BacktestConfig(**SMALL))
        assert exc_info.value.date == int(panel.dates[5])

    def test_exclusion_window_steps_over_masked_rows(self):
        panel = gbm_panel(46, seed=4)
        mask = np.array(panel.missing_mask)
        mask[5, 1] = True
        returns = np.array(panel.returns)
        returns[5, 1] = np.nan
        holed = ReturnPanel(panel.dates, panel.assets, returns, mask)
        bad_day = int(panel.dates[5])
        cfg = BacktestConfig(
            window_days=30,
            reestimate_every=5,
            exclusion_windows=(DateRange(bad_day, bad_day),),
        )
        report = rolling_backtest(holed, cfg)
        assert report.strategy_returns.shape == (16,)

    def test_accounting_never_skips_excluded_dates(self):
        panel = gbm_panel(46, seed=8)
        mid = int(panel.dates[35])
        cfg = BacktestConfig(
            window_days=30,
            reestimate_every=5,
            exclusion_windows=(DateRange(mid, mid),),
        )
        report = rolling_backtest(panel, cfg)
        assert mid in report.dates.tolist()


class TestOracle:
    """The engine against the benchmark's independent oracle, which shares
    none of its kernels, on small random configurations."""

    @pytest.mark.filterwarnings("ignore:requested exposure implies a negative kappa:UserWarning")
    @settings(max_examples=300)
    @given(
        n=st.integers(2, 6),
        method=st.sampled_from(["sym_sqrt", "cholesky", "rotate"]),
        exposure=st.sampled_from([1.0, 0.7, 1.6, -0.5]),
        data=st.data(),
    )
    def test_engine_agrees_with_the_oracle(self, n, method, exposure, data):
        window = data.draw(st.integers(n + 2, 80), label="window")
        every = data.draw(st.integers(1, min(window - 1, 30)), label="every")
        blocks = data.draw(st.integers(-(-3 // every), 6), label="blocks")  # 3+ return days
        days = window + blocks * every + data.draw(st.integers(0, every - 1), label="short")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        mix = np.eye(n) + 0.5 * np.tril(np.random.default_rng(seed).standard_normal((n, n)), -1)
        panel = gbm_panel(days, seed, sigma=VolMatrix(0.2 * mix), n=n)
        dates = panel.dates
        spans = data.draw(
            st.lists(st.tuples(st.integers(0, days - 1), st.integers(0, 20)), max_size=2),
            label="exclusions",
        )
        excluded = tuple((int(dates[i]), int(dates[min(i + k, days - 1)])) for i, k in spans)
        # the benchmark's rotation target: a Gaussian one can give |w|_1 near 1e3,
        # whose returns miss the oracle's absolute tolerance through rounding alone
        target = 0.01 * (np.eye(n) + 0.5 * np.tril(np.ones((n, n)), -1))
        cfg = BacktestConfig(
            window_days=window,
            reestimate_every=every,
            factorization=method,
            exposure=exposure,
            exclusion_windows=tuple(DateRange(a, b) for a, b in excluded),
            rotation_target=target if method == "rotate" else None,
        )
        try:
            report = rolling_backtest(panel, cfg)
        except EquidriftError:
            reject()
        spec = oracle.BacktestSpec(
            window, every, method, exposure, cfg.rf_annual, excluded, target=target
        )
        ref = oracle.backtest(dates, panel.returns, spec)
        summary = ref.summary  # compared only when the engine's statistics ran
        if report.stats_error is None:
            summary = {key: getattr(report, key) for key in oracle.SUMMARY_KEYS}
        problems = oracle.compare_backtest(
            ref,
            report.rebalance_dates,
            report.weight_history,
            report.dates,
            report.strategy_returns,
            report.benchmark_returns,
            summary,
        )
        assert problems == []


class TestPanelLayout:
    def test_panel_is_stored_asset_major(self):
        panel = gbm_panel(60, seed=4)
        assert panel.returns.flags.f_contiguous
        assert panel.take_rows(10, 40).returns.T.flags.c_contiguous
        keep = np.ones(60, dtype=bool)
        keep[20:25] = False
        assert panel._rows(keep).returns.flags.f_contiguous

    def test_c_and_f_layouts_give_the_same_bits(self):
        base = gbm_panel(800, seed=8, n=10)
        values = np.array(base.returns)
        reports = [
            rolling_backtest(
                ReturnPanel(base.dates, base.assets, layout(values), base.missing_mask),
                BacktestConfig(window_days=250, reestimate_every=5, exclusion_windows=()),
            )
            for layout in (np.ascontiguousarray, np.asfortranarray)
        ]
        for name in ("weight_history", "strategy_returns"):
            assert getattr(reports[0], name).tobytes() == getattr(reports[1], name).tobytes()


class TestAccounting:
    """The batched daily accounting against a loop over rebalance blocks."""

    @settings(max_examples=120)
    @given(
        n=st.integers(1, 48),
        every=st.integers(1, 30),
        blocks=st.integers(1, 6),
        partial=st.booleans(),
        layout=st.sampled_from([np.ascontiguousarray, np.asfortranarray]),
        exposure=st.sampled_from([1.0, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_product_is_bitwise_the_per_block_loop(
        self, n, every, blocks, partial, layout, exposure, seed
    ):
        assume(every > 1 or not partial)
        rng = np.random.default_rng(seed)
        window = max(n + 2, every + 1)
        days = window + blocks * every + (int(rng.integers(1, every)) if partial else 0)
        base = gbm_panel(days, seed=seed, n=n)
        panel = ReturnPanel(base.dates, base.assets, layout(np.array(base.returns)), base.missing_mask)
        cfg = BacktestConfig(
            window_days=window, reestimate_every=every, exposure=exposure, exclusion_windows=()
        )
        report = rolling_backtest(panel, cfg)
        held, rf = panel.returns[window:], cfg.rf_daily
        want = [
            held[t0 : t0 + every] @ w + (1 - w.sum()) * rf
            for w, t0 in zip(report.weight_history, range(0, held.shape[0], every))
        ]
        assert report.strategy_returns.tobytes() == np.concatenate(want).tobytes()


class TestRebalanceWorkCount:
    """Factors the library builds carry their own verdicts: a rebalance runs
    no SVD beyond Procrustes' own and no determinant."""

    @pytest.mark.parametrize(
        "method, svds", [("sym_sqrt", 0), ("cholesky", 0), ("rotate", 1)]
    )
    def test_linalg_calls_per_rebalance(self, monkeypatch, method, svds):
        panel = gbm_panel(60, seed=3)
        target = np.eye(3) + 0.5 * np.tril(np.ones((3, 3)), -1) if method == "rotate" else None
        cfg = BacktestConfig(factorization=method, rotation_target=target, **SMALL)
        rows = range(30, 60, 5)
        counts = {"svd": 0, "det": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        weights = public_chain(panel, rows, cfg)
        assert len(weights) == len(rows) == 6
        assert counts == {"svd": svds * len(rows), "det": 0}

    @pytest.mark.parametrize("method", ["sym_sqrt", "cholesky", "rotate"])
    @pytest.mark.parametrize("block, blocks", [(6, 1), (2, 3)])
    def test_linalg_calls_per_block(self, monkeypatch, method, block, blocks):
        # the stacked engine makes each LAPACK call once per block of windows
        panel = gbm_panel(60, seed=3)
        target = np.eye(3) + 0.5 * np.tril(np.ones((3, 3)), -1) if method == "rotate" else None
        cfg = BacktestConfig(factorization=method, rotation_target=target, **SMALL)
        rows = range(30, 60, 5)
        monkeypatch.setattr(backtest, "_STACK_BYTES", block * 8 * 3 * 3)
        counts = dict.fromkeys(["eigh", "cholesky", "svd", "solve", "det"], 0)
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        weights, _, stop = backtest._stacked_weights(panel, rows, cfg)
        assert weights.shape == (6, 3) and not stop
        assert counts == {
            "eigh": blocks,
            "cholesky": blocks * (method != "sym_sqrt"),
            "svd": blocks * (method == "rotate"),
            "solve": 2 * blocks,  # the solve and its refinement step
            "det": 0,
        }


    def test_negative_kappa_stays_stacked(self, monkeypatch):
        # a negative kappa only warns, so no window is left to the public chain
        panel = gbm_panel(60, seed=3)
        cfg = BacktestConfig(exposure=-0.8, **SMALL)
        rows = range(30, 60, 5)
        with pytest.warns(UserWarning, match="negative kappa"):
            want = public_chain(panel, rows, cfg)

        def rejected(*args, **kwargs):
            raise AssertionError("a window left the stacked kernels")

        monkeypatch.setattr(backtest, "_rejected", rejected)
        with pytest.warns(UserWarning, match="negative kappa") as record:
            got = backtest._all_weights(panel, rows, cfg)
        assert len(record) == len(rows)
        assert got.tobytes() == np.array(want).tobytes()


class TestParallelRebalances:
    """The fan-out of rebalances to forked workers, forced on by patching the
    CPU count: 480 daily rebalances give up to 3 chunks of 160."""

    LANES = (1, 2, 3)

    @staticmethod
    def panel(stretches=(), masked=()):
        """A 510-day, 3-asset panel; ``stretches`` zero one asset's returns
        over rows [a, b) so the window ending at b is not factorable, and
        ``masked`` masks single (row, asset) cells."""
        base = gbm_panel(510, seed=12)
        returns = np.array(base.returns)
        mask = np.array(base.missing_mask)
        for asset, (a, b) in stretches:
            returns[a:b, asset] = 0.0
        for row, asset in masked:
            returns[row, asset] = np.nan
            mask[row, asset] = True
        return ReturnPanel(base.dates, base.assets, returns, mask)

    @staticmethod
    def spy_parent_rows(monkeypatch):
        """The chunk lengths this process stacks itself, in call order."""
        parent_rows = []
        stacked = backtest._stacked_weights
        monkeypatch.setattr(
            backtest,
            "_stacked_weights",
            lambda p, rows, c: parent_rows.append(len(rows)) or stacked(p, rows, c),
        )
        return parent_rows

    @staticmethod
    def run_with(pin_lanes, lanes, panel, cfg):
        pin_lanes(lanes)
        return rolling_backtest(panel, cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            BacktestConfig(window_days=30, reestimate_every=1, exclusion_windows=()),
            BacktestConfig(window_days=30, reestimate_every=2, exclusion_windows=()),
            BacktestConfig(
                window_days=30,
                reestimate_every=1,
                factorization="rotate",
                rotation_target=np.eye(3) + 0.5 * np.tril(np.ones((3, 3)), -1),
                exposure=0.8,
                exclusion_windows=(DateRange(20000301, 20000310),),
            ),
        ],
        ids=["sym_sqrt", "every-2", "rotate-excluded"],
    )
    def test_bitwise_equal_across_worker_counts(self, monkeypatch, pin_lanes, cfg):
        panel = self.panel()
        parent_rows = self.spy_parent_rows(monkeypatch)
        reports = [self.run_with(pin_lanes, lanes, panel, cfg) for lanes in self.LANES]
        n_rebalances = reports[0].rebalance_dates.size
        # the parent computes only the first chunk; workers compute the rest
        assert parent_rows == [n_rebalances] + [n_rebalances // k for k in self.LANES[1:]]
        for other in reports[1:]:
            for name in ("weight_history", "strategy_returns", "benchmark_returns", "rebalance_dates"):
                assert getattr(other, name).tobytes() == getattr(reports[0], name).tobytes()
        target = None if cfg.rotation_target is None else TargetMatrix(cfg.rotation_target)
        for k, t in enumerate(range(cfg.window_days, panel.n_dates, cfg.reestimate_every)):
            cov = estimate_covariance(estimation_window(panel, t, cfg), shrinkage=cfg.shrinkage)
            vol = factor_covariance(cov, cfg.factorization, target)
            want = pi_star_fully_invested(vol, cfg.exposure).weights
            assert reports[2].weight_history[k].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "stretches, masked, error",
        [
            # two unfactorable windows, ending at rows 300 and 450
            (((0, (270, 300)), (1, (420, 450))), (), SingularCovariance),
            # a masked accounting cell in the last chunk, before row 450's window
            (((1, (420, 450)),), ((430, 2),), MissingData),
            # a masked cell on the row of an unfactorable window: the rebalance fails first
            (((0, (270, 300)),), ((300, 1),), SingularCovariance),
            # a masked accounting cell in the second chunk wins over a later window
            (((1, (420, 450)),), ((250, 0),), MissingData),
        ],
        ids=["singular", "masked-late", "same-row", "masked-early"],
    )
    def test_errors_match_serial(self, pin_lanes, stretches, masked, error):
        panel = self.panel(stretches, masked)
        cfg = BacktestConfig(window_days=30, reestimate_every=1, exclusion_windows=())
        raised = []
        for lanes in self.LANES:
            with pytest.raises(EquidriftError) as exc_info:
                self.run_with(pin_lanes, lanes, panel, cfg)
            exc = exc_info.value
            cause = exc.__cause__
            raised.append(
                (
                    type(exc),
                    str(exc),
                    getattr(exc, "date", None),
                    getattr(exc, "asset", None),
                    type(cause),
                    str(cause),
                )
            )
        assert raised[0][0] is error
        assert raised[1] == raised[0]
        assert raised[2] == raised[0]

    ROTATE = BacktestConfig(
        window_days=30,
        reestimate_every=1,
        factorization="rotate",
        rotation_target=np.eye(3),
        exclusion_windows=(),
    )

    def test_rotate_chain_errors_match_serial(self, pin_lanes):
        # a masked estimation row rejects the first window, so the public
        # chain runs there and meets the cell
        panel = self.panel(masked=((5, 1),))
        raised = []
        for lanes in (1, 2):
            with pytest.raises(MissingData) as exc_info:
                self.run_with(pin_lanes, lanes, panel, self.ROTATE)
            raised.append((str(exc_info.value), exc_info.value.date, exc_info.value.asset))
        assert raised[1] == raised[0]
        assert raised[0][1:] == (int(panel.dates[5]), panel.assets[1])

    @pytest.mark.parametrize(
        "stretches, shrinkage, budgets, failing",
        [
            ((), None, (None,), None),
            # the window ending at row 300 needs the diagonal repair; a
            # 16-window budget puts it mid-block
            (((0, (270, 300)),), 1e-4, (16, None), None),
            # the stacked solve raises LinAlgError on every full block of 50
            # windows, which is re-stacked in halves of 25
            ((), None, (50,), 50),
        ],
        ids=["plain", "repaired", "linalg-error"],
    )
    def test_worker_warnings_reach_the_caller(
        self, monkeypatch, pin_lanes, stretches, shrinkage, budgets, failing
    ):
        panel = self.panel(stretches)
        cfg = BacktestConfig(
            window_days=30,
            reestimate_every=1,
            exposure=-1.0,
            shrinkage=shrinkage,
            exclusion_windows=(),
        )
        with pytest.warns(UserWarning, match="negative kappa"):
            want = public_chain(panel, range(30, 510), cfg)
        solve, failed = np.linalg.solve, []

        def fails_on_full_blocks(a, b):
            if len(a) == failing:
                failed.append(len(a))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        def rejected(*args, **kwargs):
            raise AssertionError("a window left the stacked kernels")

        monkeypatch.setattr(np.linalg, "solve", fails_on_full_blocks)
        monkeypatch.setattr(backtest, "_rejected", rejected)
        parent_rows = self.spy_parent_rows(monkeypatch)
        default = backtest._STACK_BYTES
        seen = []
        for windows in budgets:
            monkeypatch.setattr(
                backtest, "_STACK_BYTES", default if windows is None else windows * 8 * 3 * 3
            )
            for lanes in self.LANES:
                with pytest.warns(UserWarning, match="negative kappa") as record:
                    report = self.run_with(pin_lanes, lanes, panel, cfg)
                seen.append([(w.category, str(w.message), w.filename, w.lineno) for w in record])
                assert report.weight_history.tobytes() == np.array(want).tobytes()
        assert bool(failed) == (failing is not None)
        assert len(seen[0]) == 480
        assert len({(filename, lineno) for *_, filename, lineno in seen[0]}) == 1
        assert all(other == seen[0] for other in seen[1:])
        # every kappa is negative, yet the workers stack their whole chunks
        assert parent_rows == ([480] + [480 // k for k in self.LANES[1:]]) * len(budgets)

    def test_shrinkage_repairs_stay_stacked(self, monkeypatch, pin_lanes):
        # the window ending at row 300 needs the diagonal repair, which the
        # stacked kernels make, so no window is left to the public chain
        panel = self.panel(stretches=((0, (270, 300)),))
        cfg = BacktestConfig(
            window_days=30, reestimate_every=1, shrinkage=1e-4, exclusion_windows=()
        )
        monkeypatch.setattr(backtest, "_STACK_BYTES", 16 * 8 * 3 * 3)

        def rejected(*args, **kwargs):
            raise AssertionError("a repaired window left the stacked kernels")

        monkeypatch.setattr(backtest, "_rejected", rejected)
        rows = range(30, 510)
        reports = []
        for lanes in self.LANES:
            reports.append(self.run_with(pin_lanes, lanes, panel, cfg))
            edges = [len(rows) * k // lanes for k in range(lanes + 1)]
            for a, b in zip(edges, edges[1:]):
                assert not backtest._stacked_weights(panel, rows[a:b], cfg)[2]
        for other in reports[1:]:
            for name in ("weight_history", "strategy_returns", "benchmark_returns"):
                assert getattr(other, name).tobytes() == getattr(reports[0], name).tobytes()
        for k, t in enumerate(rows):
            cov = estimate_covariance(estimation_window(panel, t, cfg), shrinkage=cfg.shrinkage)
            vol = factor_covariance(cov, cfg.factorization)
            assert reports[0].weight_history[k].tobytes() == (
                pi_star_fully_invested(vol, cfg.exposure).weights.tobytes()
            )

    def test_worker_only_stacks(self, monkeypatch, tmp_path):
        # every kappa is negative, the window ending at row 100 is not
        # factorable, a return of 1e200 on row 200 overflows the covariances
        # of the windows ending at rows 201-230 and row 350 is masked: a
        # worker sends its chunk's weights up to the first of these windows,
        # with no warning and no call to the public chain
        base = self.panel(stretches=((0, (70, 100)),), masked=((350, 2),))
        returns = np.array(base.returns)
        returns[200, 1] = 1e200
        panel = ReturnPanel(base.dates, base.assets, returns, base.missing_mask)
        cfg = BacktestConfig(
            window_days=30, reestimate_every=1, exposure=-1.0, exclusion_windows=()
        )
        monkeypatch.setattr(backtest, "_STACK_BYTES", 16 * 8 * 3 * 3)
        with pytest.warns(UserWarning, match="negative kappa"):
            want = public_chain(panel, [*range(30, 100), *range(101, 201), *range(231, 351)], cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("the worker ran the public chain")

        for name in ("estimate_covariance", "factor_covariance", "_solved", "_rejected"):
            monkeypatch.setattr(backtest, name, forbidden)
        got = []
        for rows, stop_row in ((range(30, 510), 100), (range(101, 510), 201), (range(231, 510), 351)):
            sent = tmp_path / f"sent-{rows.start}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _fanout._worker(
                    os.open(sent, os.O_WRONLY | os.O_CREAT),
                    lambda chunk: backtest._stacked_weights(panel, chunk, cfg),
                    rows,
                )
            weights, kappas, stop = pickle.loads(sent.read_bytes())
            assert stop and len(weights) == len(kappas) == stop_row - rows.start
            assert np.all(kappas < 0.0)
            got.append(weights)
        assert np.concatenate(got).tobytes() == np.array(want).tobytes()

    def test_failing_rebalance_warns_once(self, pin_lanes):
        # every rebalance warns (negative kappa) and the one at row 300 then
        # raises inside a worker; the parent recomputes it, so no warning may
        # also come from the worker
        panel = self.panel(stretches=((0, (270, 300)),))
        cfg = BacktestConfig(
            window_days=30, reestimate_every=1, exposure=-1.0, exclusion_windows=()
        )
        raised = []
        for lanes in self.LANES:
            with pytest.warns(UserWarning) as record:
                with pytest.raises(SingularCovariance) as exc_info:
                    self.run_with(pin_lanes, lanes, panel, cfg)
            assert [str(w.message) for w in record] == [str(record[0].message)] * (300 - 30)
            assert "negative kappa" in str(record[0].message)
            raised.append(str(exc_info.value))
        assert str(panel.dates[300]) in raised[0]
        assert raised == raised[:1] * 3

    def test_warning_as_error_raises_as_serial(self, pin_lanes):
        panel = self.panel()
        cfg = BacktestConfig(
            window_days=30, reestimate_every=1, exposure=-1.0, exclusion_windows=()
        )
        raised = []
        for lanes in self.LANES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(UserWarning) as exc_info:
                    self.run_with(pin_lanes, lanes, panel, cfg)
            raised.append(str(exc_info.value))
        assert raised == raised[:1] * 3

    def test_dead_worker_is_recomputed(self, monkeypatch, pin_lanes):
        panel = self.panel()
        cfg = BacktestConfig(window_days=30, reestimate_every=1, exclusion_windows=())
        want = self.run_with(pin_lanes, 1, panel, cfg)
        monkeypatch.setattr(_fanout, "_worker", lambda *args: os._exit(1))
        got = self.run_with(pin_lanes, 3, panel, cfg)
        assert got.weight_history.tobytes() == want.weight_history.tobytes()
        assert got.strategy_returns.tobytes() == want.strategy_returns.tobytes()

    def test_failed_fork_is_computed_here(self, monkeypatch, pin_lanes):
        panel = self.panel()
        cfg = BacktestConfig(window_days=30, reestimate_every=1, exclusion_windows=())
        want = self.run_with(pin_lanes, 1, panel, cfg)

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        got = self.run_with(pin_lanes, 3, panel, cfg)
        assert got.weight_history.tobytes() == want.weight_history.tobytes()
        assert got.strategy_returns.tobytes() == want.strategy_returns.tobytes()

    def test_serial_while_other_threads_run(self, monkeypatch, pin_lanes):
        panel = self.panel()
        cfg = BacktestConfig(window_days=30, reestimate_every=1, exclusion_windows=())
        parent_rows = self.spy_parent_rows(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10.0,))
        other.start()
        try:
            self.run_with(pin_lanes, 3, panel, cfg)
        finally:
            release.set()
            other.join(timeout=10.0)
        assert not other.is_alive()
        assert parent_rows == [480]


def _described(exc: BaseException | None):
    """What two raised errors must share to count as the same."""
    if exc is None:
        return None
    cause = exc.__cause__
    return (
        type(exc),
        str(exc),
        getattr(exc, "date", None),
        getattr(exc, "asset", None),
        type(cause),
        str(cause),
    )


class TestEngineAgainstPublicChain:
    """On panels whose failures touch estimation only, the engine returns the
    public chain's weights bit for bit, or raises what that chain raises first,
    at any worker count and stack budget."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.integers(2, 4),
        window=st.integers(8, 16),
        every=st.integers(1, 3),
        rebalances=st.integers(8, 24),
        zeroed=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 60), st.integers(1, 20)),
        masked=st.none() | st.tuples(st.integers(0, 15), st.integers(0, 3)),
        huge=st.none() | st.tuples(st.integers(0, 80), st.integers(0, 3)),
        shrinkage=st.sampled_from([None, 1e-4]),
        method=st.sampled_from(["sym_sqrt", "cholesky", "rotate"]),
        exposure=st.sampled_from([1.0, -0.8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_or_first_error_match(
        self, monkeypatch, pin_lanes, n, window, every, rebalances, zeroed, masked, huge,
        shrinkage, method, exposure, seed,
    ):
        days = window + every * rebalances
        rng = np.random.default_rng(seed)
        returns = 0.0005 + 0.01 * rng.standard_normal((days, n))
        mask = np.zeros((days, n), dtype=bool)
        if zeroed is not None:
            asset, start, length = zeroed
            returns[start : start + length, asset % n] = 0.0
        if masked is not None:  # an estimation row only: accounting starts at row `window`
            row, asset = masked[0] % window, masked[1] % n
            returns[row, asset], mask[row, asset] = np.nan, True
        if huge is not None:
            returns[huge[0] % days, huge[1] % n] = 1e200
        panel = ReturnPanel(weekdays(days), tuple(f"A{i}" for i in range(n)), returns, mask)
        cfg = BacktestConfig(
            window_days=window,
            reestimate_every=every,
            factorization=method,
            exposure=exposure,
            exclusion_windows=(),
            shrinkage=shrinkage,
            rotation_target=np.eye(n) + 0.5 * np.tril(np.ones((n, n)), -1)
            if method == "rotate"
            else None,
        )
        rows = range(window, days, every)
        want, error = [], None
        with warnings.catch_warnings(record=True) as chain_warned:
            warnings.simplefilter("always")
            for t in rows:
                try:
                    want += public_chain(panel, [t], cfg)
                except EquidriftError as exc:
                    error = exc
                    break
        event(type(error).__name__ if error else "weights")
        expected = _described(error)
        if isinstance(error, NotPositiveDefinite):
            try:
                estimate_covariance(estimation_window(panel, t, cfg), shrinkage=shrinkage)
            except NotPositiveDefinite:  # the engine names the window of a failed covariance
                window_error = (
                    f"estimation window ending before date {int(panel.dates[t])} "
                    f"is not factorable: {error}"
                )
                expected = (SingularCovariance, window_error, None, None, type(error), str(error))
        monkeypatch.setattr(backtest, "_MIN_CHUNK", 4)  # two lanes from 8 rebalances
        monkeypatch.setattr(backtest, "_STACK_BYTES", 3 * 8 * n * n)  # blocks of 3 windows
        for lanes in (1, 2):
            pin_lanes(lanes)
            raised = None
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                try:
                    got = rolling_backtest(panel, cfg).weight_history
                except EquidriftError as exc:
                    raised = exc
            assert [str(w.message) for w in warned] == [str(w.message) for w in chain_warned]
            assert _described(raised) == expected
            if error is None:
                assert got.tobytes() == np.array(want).tobytes()
