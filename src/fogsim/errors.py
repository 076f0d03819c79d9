"""Exception hierarchy: one class per exit code of the command line."""


class FogsimError(Exception):
    """Base class for all package errors."""


class ParameterError(FogsimError, ValueError):
    """A config document, a command-line argument or a model or domain
    parameter violates its contract; the command line exits 2."""


class DataError(FogsimError, ValueError):
    """An input data file is malformed or unusable, or a fit on its data
    fails; the command line exits 3.

    Carries the 0-based index of the bad data row as ``row``, if there is one.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
