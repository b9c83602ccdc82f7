"""Exception hierarchy with stable machine-readable error codes.

Each class carries the ``code`` the CLI prints in the error JSON and the
``exit_code`` it returns; both are external interface and must stay stable.
"""


class SpecmixError(Exception):
    """Base class for all package errors."""

    code = "internal"
    exit_code = 1


class SchemaError(SpecmixError):
    """Column schema is invalid or does not match the file."""

    code = "schema"
    exit_code = 2


class DataError(SpecmixError):
    """Input data cannot be parsed or is degenerate after preprocessing."""

    code = "data"
    exit_code = 3


class ConfigError(SpecmixError):
    """A configuration value violates an operation's preconditions."""

    code = "config"
    exit_code = 4


class SpectralGapError(SpecmixError):
    """The bipartite reduction has no usable spectral gap (gamma_K ~ 1)."""

    code = "spectral-gap"
    exit_code = 5


class ConvergenceError(SpecmixError):
    """An iterative solver exhausted its iteration budget."""

    code = "convergence"
    exit_code = 5
