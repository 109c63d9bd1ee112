"""Exception types shared across the toolkit.

Every error raised by library code derives from :class:`EquidriftError` so
callers can tell failures apart without string matching. Each class names
its kind of failure in ``EXIT_KIND``, a key of ``cli.EXIT_CODES``: the CLI
exits with that kind's code.
"""


class EquidriftError(Exception):
    """Base class for all equidrift errors."""
    EXIT_KIND = "internal"


# -- matrix / factorization -------------------------------------------------

class NotPositiveDefinite(EquidriftError):
    """A covariance matrix is not (numerically) positive-definite."""
    EXIT_KIND = "matrix"


class SingularMatrix(EquidriftError):
    """A matrix required to be invertible is singular or near-singular."""
    EXIT_KIND = "matrix"


class DimensionMismatch(EquidriftError):
    """Operands have incompatible dimensions."""
    EXIT_KIND = "matrix"


# -- strategy ----------------------------------------------------------------

class DegenerateExposure(EquidriftError):
    """No finite scaling of the optimal direction reaches the requested exposure."""
    EXIT_KIND = "matrix"


# -- simulation --------------------------------------------------------------

class NonPositiveGridPoint(EquidriftError):
    """A wealth-density grid contains a non-positive level."""
    EXIT_KIND = "usage"


# -- data --------------------------------------------------------------------

class ParseError(EquidriftError):
    """A returns file could not be parsed; carries the offending line number."""
    EXIT_KIND = "parse"

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class NonMonotonicDates(EquidriftError):
    """Panel dates are not strictly increasing."""
    EXIT_KIND = "panel"


class EmptyPanel(EquidriftError):
    """An operation produced or received a panel with no rows."""
    EXIT_KIND = "panel"


class MissingData(EquidriftError):
    """A masked value was encountered where a real observation is required."""
    EXIT_KIND = "data"

    def __init__(self, message: str, date: int | None = None, asset: str | None = None):
        super().__init__(message)
        self.date = date
        self.asset = asset


# -- backtest ----------------------------------------------------------------

class InsufficientHistory(EquidriftError):
    """The panel is too short for the configured window and cadence."""
    EXIT_KIND = "data"


class InsufficientObservations(EquidriftError):
    """Too few complete rows to estimate a covariance matrix."""
    EXIT_KIND = "data"


class SingularCovariance(EquidriftError):
    """An estimation window produced a covariance matrix that cannot be factored."""
    EXIT_KIND = "matrix"


# -- statistics ---------------------------------------------------------------

class ZeroVariance(EquidriftError):
    """A return series' variance is (numerically) zero or overflows; Sharpe ratio undefined."""
    EXIT_KIND = "stats"


class TooFewObservations(EquidriftError):
    """A statistic needs more observations than the series provides."""
    EXIT_KIND = "data"


class LengthMismatch(EquidriftError):
    """Paired return series have different lengths."""
    EXIT_KIND = "stats"
