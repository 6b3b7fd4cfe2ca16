"""Exception hierarchy for the vSensor reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch the whole family with one clause.  Compiler-side errors
carry a :class:`~repro.frontend.location.SourceLoc` when one is available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class LexError(ReproError):
    """Raised when the lexer meets a character it cannot tokenize."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(ReproError):
    """Raised when the parser meets an unexpected token."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class LoweringError(ReproError):
    """Raised when a parsed function breaks a rule of the language that the
    grammar does not (``break`` outside a loop, a local declared twice)."""


class InstrumentError(ReproError):
    """Raised when instrumentation selection or rewriting fails."""


class SimulationError(ReproError):
    """Raised by the cluster simulator (deadlock, bad config, ...)."""


class InterpError(SimulationError):
    """Raised when the interpreter meets an invalid runtime operation."""
