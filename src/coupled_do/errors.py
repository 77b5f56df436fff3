"""Error taxonomy shared across the package.

The command-line layer maps these onto exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""


class CoupledDoError(Exception):
    """Base class for package errors."""


class ConfigError(CoupledDoError, ValueError):
    """Invalid configuration or argument (so also a ValueError); the message
    names the offending field."""


class DataError(CoupledDoError):
    """Missing, malformed, or insufficient input data."""


class NumericalError(CoupledDoError):
    """A numerical procedure failed (non-finite values, singular solve)."""
