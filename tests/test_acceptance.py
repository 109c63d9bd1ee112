"""End-to-end acceptance gate.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with -s or in
failure output) and enforces its own runtime budget. Criterion 8 needs a
user-supplied industry-portfolio daily file via EQUIDRIFT_FRENCH_DATA and
is skipped otherwise.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import random_spd
from equidrift import (
    BacktestConfig,
    CovMatrix,
    DateRange,
    ModelParams,
    VolMatrix,
    WealthLaw,
    brownian_exposures,
    cholesky,
    estimate_covariance,
    estimation_window,
    jobson_korkie_memmel,
    load_french,
    normal_upper_tail,
    optimal_wealth_moments,
    pi_star,
    pi_star_fully_invested,
    random_rotation,
    recover_cholesky,
    rolling_backtest,
    simulate_terminal_wealth,
    sym_sqrt,
    synthetic_panel,
)
from equidrift.data import ReturnPanel

RUNTIME_LIMITS = {
    1: 1.0,
    2: 10.0,
    3: 5.0,
    4: 60.0,
    5: 30.0,
    6: 30.0,
    7: 300.0,
    9: 60.0,
}


def _report(num: int, ok: bool, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    limit = RUNTIME_LIMITS.get(num)
    if limit is not None and elapsed > limit:
        ok = False
        detail += f"; runtime {elapsed:.2f}s exceeds {limit:.0f}s"
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_two_asset_reference_factorizations():
    started = time.perf_counter()
    cov = CovMatrix([[4.0, 2.0], [2.0, 5.0]])

    lower = cholesky(cov).entries
    exact = np.array_equal(lower, [[2.0, 0.0], [1.0, 2.0]])
    lower_sums_exact = lower.sum(axis=1).tolist() == [2.0, 3.0]

    root = sym_sqrt(cov).entries
    root_dev = np.max(np.abs(root - [[1.940, 0.485], [0.485, 2.183]]))
    sum_dev = np.max(np.abs(root.sum(axis=1) - [2.425, 2.668]))

    ok = exact and lower_sums_exact and root_dev <= 5e-4 and sum_dev <= 5e-4
    _report(
        1,
        ok,
        started,
        f"triangular factor exact, symmetric root off by {root_dev:.1e}, "
        f"row sums off by {sum_dev:.1e}",
    )


def test_rotated_factor_recovery_suite():
    started = time.perf_counter()
    worst_recover = 0.0
    worst_factor = 0.0
    for i in range(100):
        n = 2 + (i % 19)
        rng = np.random.default_rng(i)
        cov = CovMatrix(random_spd(rng, n))
        lower = cholesky(cov)
        q = random_rotation(n, seed=1000 + i)
        rotated = VolMatrix(lower.entries @ q.entries)
        recovered = recover_cholesky(rotated)
        worst_recover = max(
            worst_recover, float(np.linalg.norm(recovered.entries - lower.entries))
        )
        norm_c = np.linalg.norm(cov.entries)
        for vol in (rotated, recovered):
            resid = np.linalg.norm(vol.entries @ vol.entries.T - cov.entries)
            worst_factor = max(worst_factor, float(resid / norm_c))
    ok = worst_recover <= 1e-9 and worst_factor <= 1e-9
    _report(
        2,
        ok,
        started,
        f"100 rotations: worst recovery {worst_recover:.1e}, "
        f"worst factor residual {worst_factor:.1e} (bounds 1e-9)",
    )


def test_equalized_driver_exposures_across_models():
    started = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(i)
        n = int(rng.integers(2, 51))
        sigma = VolMatrix(rng.standard_normal((n, n)))
        kappa = float(rng.uniform(0.0, 10.0))
        p = brownian_exposures(pi_star(sigma, kappa), sigma).p
        worst = max(worst, float((p.max() - p.min()) / (kappa / n)))
    ok = worst <= 1e-10
    _report(
        3,
        ok,
        started,
        f"100 models up to n=50: worst exposure spread {worst:.1e} "
        f"of kappa/n (bound 1e-10)",
    )


def test_terminal_wealth_moments_match_monte_carlo():
    started = time.perf_counter()
    kappa = (0.1 - 0.03) / (0.2 - 0.03)
    rng = np.random.default_rng(41)
    sigma = sym_sqrt(CovMatrix(random_spd(rng, 5, scale=0.1)))
    params = ModelParams(sigma=sigma, mu=0.2, r=0.03)

    wealth = simulate_terminal_wealth(
        params, pi_star(sigma, kappa), horizon=1.0, steps=16, n_paths=100_000, seed=20090131, w0=1.0
    )

    mean_th = math.exp(0.1)
    var_th = math.exp(0.2) * math.expm1(kappa * kappa / 5.0)
    se = float(wealth.std(ddof=1)) / math.sqrt(wealth.size)
    mean_dev = abs(float(wealth.mean()) - mean_th)
    var_rel = abs(float(wealth.var(ddof=1)) - var_th) / var_th

    law_mean, law_var = optimal_wealth_moments(
        WealthLaw(w=1.0, lam=0.1, kappa=kappa, n=5, t=1.0)
    )
    consistent = math.isclose(law_mean, mean_th, rel_tol=1e-12) and math.isclose(
        law_var, var_th, rel_tol=1e-12
    )

    ok = consistent and mean_dev <= 4.0 * se and var_rel <= 0.05
    _report(
        4,
        ok,
        started,
        f"100k paths: mean off {mean_dev / se:.2f} SE (limit 4), "
        f"variance off {var_rel:.2%} (limit 5%)",
    )


def _constant_exposure_variance(p: np.ndarray, mu: float, r: float, t: float) -> np.ndarray:
    """Terminal-wealth variance of a constant driver-exposure vector, w=1."""
    growth = r + (mu - r) * p.sum(axis=-1)
    return np.exp(2.0 * growth * t) * np.expm1((p * p).sum(axis=-1) * t)


def test_variance_grid_minimized_at_equal_exposures():
    started = time.perf_counter()
    mu, r, t = 0.2, 0.03, 1.0

    sigma = sym_sqrt(CovMatrix([[4.0, 2.0], [2.0, 5.0]]))
    wv = pi_star_fully_invested(sigma, exposure=1.0)
    kappa = wv.kappa
    center = kappa / 2.0
    p1 = np.linspace(center - 1.0, center + 1.0, 20001)
    grid2 = np.column_stack([p1, kappa - p1])
    var2 = _constant_exposure_variance(grid2, mu, r, t)
    best2 = grid2[np.argmin(var2)]
    # the center index is the equal-exposure point up to linspace rounding
    two_ok = int(np.argmin(var2)) == 10000

    pi_grid = np.linalg.solve(sigma.entries.T, best2)
    weight_dev = float(np.max(np.abs(pi_grid - wv.weights)))

    kappa3 = 0.9
    axis = np.linspace(kappa3 / 3.0 - 0.8, kappa3 / 3.0 + 0.8, 401)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    grid3 = np.stack([g1, g2, kappa3 - g1 - g2], axis=-1)
    var3 = _constant_exposure_variance(grid3, mu, r, t)
    idx = np.unravel_index(np.argmin(var3), var3.shape)
    three_ok = idx == (200, 200)

    ok = two_ok and three_ok and weight_dev <= 1e-3
    _report(
        5,
        ok,
        started,
        f"grid minimum at equal exposures for n=2 and n=3; fully invested "
        f"weights match grid minimizer within {weight_dev:.1e} (limit 1e-3)",
    )


def test_backtest_weights_exact_and_causal():
    started = time.perf_counter()
    cfg = BacktestConfig(window_days=252, reestimate_every=21, exclusion_windows=())
    rng = np.random.default_rng(77)
    sigma = sym_sqrt(CovMatrix(random_spd(rng, 6, scale=0.05)))
    params = ModelParams(sigma=sigma, mu=0.2, r=0.03)
    panel = synthetic_panel(params, days=756, seed=7)
    report = rolling_backtest(panel, cfg)

    exact = True
    for k, t_row in enumerate(range(252, 756, 21)):
        cov = estimate_covariance(estimation_window(panel, t_row, cfg), cfg.shrinkage)
        want = pi_star_fully_invested(sym_sqrt(cov), cfg.exposure).weights
        exact = exact and np.array_equal(report.weight_history[k], want)

    causal = True
    for seed in (0, 1, 2):
        base_panel = synthetic_panel(params, days=600, seed=seed)
        base = rolling_backtest(base_panel, cfg)
        cutoff = 450
        corrupted = base_panel.returns.copy()
        corrupted[cutoff:] = -0.5
        twin = ReturnPanel(
            base_panel.dates, base_panel.assets, corrupted, base_panel.missing_mask
        )
        other = rolling_backtest(twin, cfg)
        head = cutoff - cfg.window_days
        causal = causal and np.array_equal(
            other.strategy_returns[:head], base.strategy_returns[:head]
        )
        causal = causal and not np.array_equal(
            other.strategy_returns[head:], base.strategy_returns[head:]
        )

    ok = exact and causal
    _report(
        6,
        ok,
        started,
        f"{report.weight_history.shape[0]} rebalances bitwise reproducible; "
        f"future corruption leaves the past unchanged across 3 seeds",
    )


def test_synthetic_markets_favor_risk_balanced_weights():
    started = time.perf_counter()
    cfg = BacktestConfig()
    sharpe_strategy = []
    sharpe_benchmark = []
    vol_wins = 0
    n_seeds = 50
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        vols = rng.uniform(0.1, 0.4, size=10)
        gram = rng.standard_normal((10, 10))
        raw = gram @ gram.T
        scale = np.sqrt(np.diag(raw))
        corr = 0.5 * raw / np.outer(scale, scale) + 0.5 * np.eye(10)
        cov = CovMatrix(np.outer(vols, vols) * corr)
        params = ModelParams(sigma=sym_sqrt(cov), mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=2520, seed=seed)
        report = rolling_backtest(panel, cfg)
        sharpe_strategy.append(report.sharpe_strategy)
        sharpe_benchmark.append(report.sharpe_benchmark)
        vol_wins += report.volatility_ratio < 1.0

    mean_strat = float(np.mean(sharpe_strategy))
    mean_bench = float(np.mean(sharpe_benchmark))
    ok = mean_strat >= mean_bench and vol_wins >= 0.6 * n_seeds
    _report(
        7,
        ok,
        started,
        f"50 markets: mean Sharpe {mean_strat:.4f} vs {mean_bench:.4f} "
        f"equal-weight; lower volatility in {vol_wins}/{n_seeds} seeds "
        f"(need 30)",
    )


def test_industry_panel_advantage_when_provided():
    started = time.perf_counter()
    path = os.environ.get("EQUIDRIFT_FRENCH_DATA")
    if not path:
        print("criterion 8: SKIP - set EQUIDRIFT_FRENCH_DATA to a 48-industry daily file")
        pytest.skip("EQUIDRIFT_FRENCH_DATA not set")

    panel = load_french(path, date_range=DateRange(19630701, 20081231))
    drops = {a for a in panel.assets if a.lower().startswith("hlth")}
    drops |= {
        a
        for j, a in enumerate(panel.assets)
        if bool(panel.missing_mask[:, j].any())
    }
    panel = panel.drop_assets(drops)

    report = rolling_backtest(panel, BacktestConfig())
    ok = (
        report.sharpe_strategy > report.sharpe_benchmark
        and report.jk_p < 0.01
    )
    _report(
        8,
        ok,
        started,
        f"industry panel: Sharpe {report.sharpe_strategy:.4f} vs "
        f"{report.sharpe_benchmark:.4f}, one-sided p {report.jk_p:.2e} "
        f"(need < 0.01)",
    )


def test_sharpe_test_null_calibration():
    started = time.perf_counter()
    rng = np.random.default_rng(20090131)
    replications = 10_000
    hits = 0
    for _ in range(replications):
        a = rng.normal(0.05, 1.0, size=2000)
        b = rng.normal(0.05, 1.0, size=2000)
        if jobson_korkie_memmel(a, b).p_one_sided < 0.05:
            hits += 1
    rate = hits / replications

    probe = jobson_korkie_memmel(a, b)
    swapped = jobson_korkie_memmel(b, a)
    antisymmetric = swapped.z == -probe.z
    zs = np.linspace(-6.0, 6.0, 241)
    ps = [normal_upper_tail(z) for z in zs]
    monotone = all(x > y for x, y in zip(ps, ps[1:]))

    ok = 0.035 <= rate <= 0.065 and antisymmetric and monotone
    _report(
        9,
        ok,
        started,
        f"null rejection rate {rate:.2%} in [3.5%, 6.5%]; z antisymmetry "
        f"and p monotonicity exact",
    )
