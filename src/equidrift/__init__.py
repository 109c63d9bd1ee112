"""Portfolio toolkit for markets where expected return is earned per unit
of risk exposure.

The model couples every stock's drift to its volatility row through a
single market-wide parameter, which makes the continuous-time
mean-variance optimum available in closed form: pick weights whose
Brownian-driver exposures are all equal. The package provides the matrix
factorizations that define those exposures, the optimal and 1/n weight
rules, exact Monte Carlo simulation of prices and wealth, a rolling
out-of-sample backtest, and the Sharpe-difference test used to compare
strategies.
"""

from .backtest import (
    BacktestConfig,
    BacktestReport,
    estimate_covariance,
    estimation_window,
    rolling_backtest,
)
from .data import (
    DateRange,
    ReturnPanel,
    load_csv,
    load_french,
    read_matrix_csv,
    synthetic_panel,
    write_csv,
    write_matrix_csv,
)
from .errors import EquidriftError
from .factorization import (
    CovMatrix,
    RotationMatrix,
    TargetMatrix,
    VolMatrix,
    cholesky,
    factor_covariance,
    procrustes_rotate,
    random_rotation,
    recover_cholesky,
    sym_sqrt,
)
from .model import ModelParams, ReturnProfile, expected_returns
from .simulate import (
    PathSet,
    WealthLaw,
    optimal_wealth_density,
    optimal_wealth_moments,
    replay_wealth,
    simulate_paths,
    simulate_terminal_wealth,
)
from .stats import JKTestResult, SharpeResult, jobson_korkie_memmel, normal_upper_tail, sharpe
from .strategy import (
    ExposureVector,
    WeightVector,
    brownian_exposures,
    one_over_n,
    oversized_positions,
    pi_star,
    pi_star_fully_invested,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "EquidriftError",
    "CovMatrix",
    "VolMatrix",
    "TargetMatrix",
    "RotationMatrix",
    "cholesky",
    "sym_sqrt",
    "procrustes_rotate",
    "factor_covariance",
    "recover_cholesky",
    "random_rotation",
    "read_matrix_csv",
    "write_matrix_csv",
    "ModelParams",
    "ReturnProfile",
    "expected_returns",
    "WeightVector",
    "ExposureVector",
    "pi_star",
    "pi_star_fully_invested",
    "one_over_n",
    "brownian_exposures",
    "oversized_positions",
    "PathSet",
    "WealthLaw",
    "simulate_paths",
    "replay_wealth",
    "simulate_terminal_wealth",
    "optimal_wealth_moments",
    "optimal_wealth_density",
    "SharpeResult",
    "JKTestResult",
    "sharpe",
    "jobson_korkie_memmel",
    "normal_upper_tail",
    "DateRange",
    "ReturnPanel",
    "load_french",
    "load_csv",
    "write_csv",
    "synthetic_panel",
    "BacktestConfig",
    "BacktestReport",
    "estimate_covariance",
    "estimation_window",
    "rolling_backtest",
]
