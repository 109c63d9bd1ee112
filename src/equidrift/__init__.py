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

from . import backtest, data, factorization, model, simulate, stats, strategy
from .backtest import *  # noqa: F403
from .data import *  # noqa: F403
from .errors import EquidriftError
from .factorization import *  # noqa: F403
from .model import *  # noqa: F403
from .simulate import *  # noqa: F403
from .stats import *  # noqa: F403
from .strategy import *  # noqa: F403

__version__ = "1.0.0"

#: Each module's ``__all__`` is its public surface, and the package's is theirs.
__all__ = ["__version__", "EquidriftError"] + [
    name
    for module in (factorization, model, strategy, simulate, stats, data, backtest)
    for name in module.__all__
]
