"""Exception hierarchy shared across the package."""


class LlttsError(Exception):
    """Base class for all package errors."""


class UsageError(LlttsError):
    """Caller violated an operation's contract (bad argument, wrong order)."""


class InputDomainError(LlttsError):
    """A sample carries out-of-range token or language ids, or target frames
    whose dimension does not match the model."""


class NumericError(LlttsError):
    """Non-finite values or a solver that failed to converge."""


class ConsistencyError(LlttsError):
    """Internal cross-structure invariant violated (e.g. duplicate samples)."""


class FormatError(LlttsError):
    """A file on disk does not match the expected binary/text layout."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class VersionError(FormatError):
    """A file was written by an incompatible format version."""


class ConfigError(LlttsError):
    """Experiment config text failed strict parsing."""
