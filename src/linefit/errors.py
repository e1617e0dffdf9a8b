"""Exception types shared across the package."""


class LineFitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSampleError(LineFitError, ValueError):
    """A coordinate vector is too short or contains non-finite entries."""


class SampleMismatchError(LineFitError, ValueError):
    """The two coordinate vectors of a paired sample differ in length."""


class InvalidLineError(LineFitError, ValueError):
    """A line representation violates its invariants, e.g. ax + by = c with a = b = 0."""


class NotRepresentableError(LineFitError, ValueError):
    """A line cannot be expressed in the requested representation."""


class VerticalDataError(LineFitError, ValueError):
    """All x coordinates coincide, so the vertical-offset fit is undefined."""


class HorizontalDataError(LineFitError, ValueError):
    """All y coordinates coincide, so the horizontal-offset fit is undefined."""


class GenerationError(LineFitError, ValueError):
    """A dataset generator was given an invalid argument."""


class CsvParseError(LineFitError, ValueError):
    """CSV input could not be parsed; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class InsufficientDataError(LineFitError, ValueError):
    """Fewer than two usable points were supplied."""
