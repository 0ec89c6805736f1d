"""Shared exception types."""

from __future__ import annotations


class CapExceededError(RuntimeError):
    """An enumeration or state-space cap was exceeded."""


class DimensionLimitError(ValueError):
    """The linear system exceeds the configured dimension limit."""


class PolyParseError(ValueError):
    """Malformed polynomial text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GraphSpecError(ValueError):
    """Malformed graph spec string."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CheckFailure(AssertionError):
    """A verification check failed; the message carries the mismatch detail."""
