"""Exception hierarchy."""


class FogsimError(Exception):
    """Base class for all package errors."""


class ParameterError(FogsimError, ValueError):
    """A model or domain parameter violates its contract."""


class OracleAccuracyError(ParameterError):
    """A numeric-oracle setting would make the oracle unreliable."""


class FitError(FogsimError, RuntimeError):
    """Least-squares fit failed to converge or the design is degenerate."""


class ConfigError(FogsimError, ValueError):
    """Configuration document is malformed or inconsistent."""


class DataError(FogsimError, ValueError):
    """An input data file is malformed or unusable.

    Carries the 0-based index of the bad data row as ``row``, if there is one.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
