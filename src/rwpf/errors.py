"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError and
UnsupportedDimensionError (a point-set dimension the config asks for
through its kappa cap) -> 2, NumericError (and subclasses) -> 3.
Everything else is a plain bug and escapes as usual.
"""


class RwpfError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RwpfError):
    """Invalid or inconsistent run configuration / input files."""


class UnsupportedDimensionError(RwpfError):
    """Requested point-set dimension exceeds the bundled direction table."""


class UnsupportedOperationError(RwpfError):
    """A model capability required by the requested operation is absent."""


class ContractViolationError(RwpfError):
    """Caller broke an API precondition (e.g. re-querying a fresh-time-only path)."""


class NumericError(RwpfError):
    """Numeric failure inside an estimator (NaN from model functions, etc.)."""


class DegeneracyError(NumericError):
    """Filter collapsed: every particle carries zero weight."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
