"""Semantic exceptions raised by the public API."""


class OutailError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(OutailError, ValueError):
    """Inputs disagree on the ambient dimension."""


class NonFiniteValueError(OutailError, FloatingPointError):
    """A log-density, drift, or semigroup value came out non-finite."""


class ResolutionError(OutailError):
    """Monte Carlo cannot resolve the requested quantity; only an exact
    value can."""


class ConfigError(OutailError, ValueError):
    """Experiment configuration failed to parse or validate.

    ``field`` names the offending key so batch tooling can report it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")
