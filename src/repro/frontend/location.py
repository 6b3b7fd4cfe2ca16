"""Source locations attached to tokens and AST nodes.

Locations power step 3 of the vSensor workflow ("map to source"): the
analysis runs on the AST, and every AST node keeps the file/line/column it
was parsed at, so an identified v-sensor can be reported and instrumented
at its source position.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceLoc:
    """A position in a source file (1-based line and column)."""

    line: int
    col: int
    filename: str = "<string>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}"

    @staticmethod
    def unknown() -> "SourceLoc":
        """A placeholder location for synthesized nodes."""
        return SourceLoc(0, 0, "<synthesized>")

    @property
    def is_unknown(self) -> bool:
        return self.line == 0
