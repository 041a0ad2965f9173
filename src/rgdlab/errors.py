"""Exception types shared across the package."""


class RgdLabError(Exception):
    """Base class for all package errors."""


class ConfigError(RgdLabError, ValueError):
    """A configuration value violates its documented bounds."""


class InputError(RgdLabError, ValueError):
    """An input value is outside the operation's domain."""


class EmptyTargetError(InputError):
    """A scoring target was empty."""


class InvalidTokenError(InputError):
    """A token or token id is not part of the vocabulary."""


class MetricUndefinedError(InputError):
    """A metric is undefined for the given matrix shape (e.g. T < 2)."""


class DivergenceError(RgdLabError, RuntimeError):
    """Training produced a non-finite loss."""


class ParseError(RgdLabError, ValueError):
    """A file could not be decoded; message carries line context."""
