"""Exception types shared by every module in the package."""

from __future__ import annotations


class FrameToolError(Exception):
    """Base class for all errors raised by framemult."""


class DimensionMismatch(FrameToolError):
    """Operands have incompatible dimensions or lengths."""


class NotInvertible(FrameToolError):
    """A matrix failed the condition-number invertibility test.

    Carries the extreme singular values so callers can report how close
    the matrix came to the threshold.
    """

    def __init__(self, message: str, sigma_min: float = 0.0, sigma_max: float = 0.0):
        super().__init__(message)
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)


class NotAFrame(FrameToolError):
    """The vector sequence does not span, so frame bounds do not exist."""


class ZeroSymbolEntry(FrameToolError):
    """A symbol has a zero entry, or one whose reciprocal overflows, where 1/m is needed."""


class RatioNotCertified(FrameToolError):
    """The declared geometric tail ratio is >= 1 or below the ratio of consecutive terms."""


class ParseError(FrameToolError):
    """Malformed JSON input (structure, types, or values)."""


class UnknownExample(FrameToolError):
    """Requested name is not in the example registry."""
