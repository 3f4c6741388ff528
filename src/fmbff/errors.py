"""Exception types shared across the package."""


class FmbffError(Exception):
    """Base class for all package errors."""


class DimensionError(FmbffError, ValueError):
    """Tensor extents are incompatible with the requested operation."""


class ConfigurationError(FmbffError, ValueError):
    """An option or hyperparameter violates its contract."""


class StateError(FmbffError, RuntimeError):
    """An operation was invoked before its required state was populated."""


class UsageError(FmbffError, RuntimeError):
    """An API was called outside its contract (wrong node kind, missing grads...)."""


class ParseError(FmbffError, ValueError):
    """A file could not be parsed; carries the byte offset of the failure
    when one is known, and the message names it."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class FormatError(ParseError):
    """A binary artifact has a bad magic, version, checksum or framing, or an
    entry that does not fit."""


class ValidationError(FmbffError, ValueError):
    """Paired inputs (e.g. image and mask) disagree."""


class TrainingDiverged(FmbffError, RuntimeError):
    """The training loss became non-finite."""
