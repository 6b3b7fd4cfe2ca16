"""Structured compiler diagnostics.

Every rejection, veto, and skip the static module produces is a
:class:`Diagnostic`: a severity, a stable machine-readable reason code, a
source span, the pass that emitted it, and a human message.  The ``--explain``
CLI mode and ``StaticResult.diagnostics`` surface these; the stable codes let
tests and downstream tooling match on *why* without string-scraping messages.

Codes are append-only: renaming or reusing a value would silently break
consumers keyed on it, so retired codes stay reserved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.frontend.location import SourceLoc


class Severity(enum.Enum):
    """How alarming a diagnostic is.

    Rejections are *expected* analysis outcomes (most snippets are not
    v-sensors), so they carry NOTE; WARNING marks degraded output (e.g. a
    selected sensor that could not be spliced); ERROR is reserved for
    failures that abort a pass.
    """

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"


class ReasonCode(enum.Enum):
    """Stable reason codes for rejection diagnostics.

    Grouped by the pass that emits them: ``identify`` codes say why a snippet
    is not a v-sensor (§3.2–§3.5), ``select`` codes why an identified sensor
    is not instrumented (§4), ``instrument`` codes why a selected sensor got
    no probes.
    """

    # -- identify: the dependency-propagation slice found a variant input
    VARIANT_INPUT = "variant-input"
    MIXED_DEFS = "mixed-defs"
    CROSS_EXEC_STATE = "cross-exec-state"
    CALL_CLOBBERS = "call-clobbers"
    SNIPPET_CALL_CLOBBERS = "snippet-call-clobbers"
    # -- identify: the slice hit something unanalyzable (§3.5 poison)
    ARRAY_LOAD = "array-load"
    ARRAY_STORE = "array-store"
    UNINITIALIZED_READ = "uninitialized-read"
    UNINITIALIZED_LOCAL = "uninitialized-local"
    INDIRECT_CALL = "indirect-call"
    UNDESCRIBED_EXTERN = "undescribed-extern"
    EXTERN_NONFIXED_RETURN = "extern-nonfixed-return"
    CALLEE_NONFIXED_RETURN = "callee-nonfixed-return"
    CALLEE_NONFIXED_WORKLOAD = "callee-nonfixed-workload"
    RECURSIVE_FUNCTION = "recursive-function"
    # -- identify: scope verdicts (§3.2 intra / §3.3 inter-procedural)
    NOT_PROMOTABLE = "not-promotable"
    NOT_FIXED = "not-fixed"
    # -- select (§4)
    LOCAL_SCOPE = "local-scope"
    TOO_DEEP = "too-deep"
    NESTED_SENSOR = "nested-sensor"
    BELOW_GRANULARITY = "below-granularity"
    ANNOTATION_EXCLUDED = "annotation-excluded"
    STATIC_RULE_VETO = "static-rule-veto"
    # -- instrument
    UNSPLICEABLE = "unspliceable"
    # -- history: cross-run change-point findings (repro/history); the
    #    span carries the trajectory:metric name and the run index
    PERF_REGRESSION = "perf-regression"
    PERF_IMPROVEMENT = "perf-improvement"
    PERF_SHIFT = "perf-shift"


@dataclass(frozen=True, slots=True)
class Span:
    """A source region: ``filename:line:col`` through ``end_line:end_col``.

    The mini-language AST records only start positions, so a node's span is
    widened over its subtree: the extent runs to the last line any nested
    node starts on.
    """

    filename: str = "<string>"
    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        if self.end_line > self.line:
            return f"{self.filename}:{self.line}:{self.col}-{self.end_line}"
        return f"{self.filename}:{self.line}:{self.col}"

    @property
    def is_unknown(self) -> bool:
        return self.line == 0

    @classmethod
    def from_loc(cls, loc: SourceLoc) -> "Span":
        return cls(
            filename=loc.filename,
            line=loc.line,
            col=loc.col,
            end_line=loc.line,
            end_col=loc.col,
        )

    @classmethod
    def from_node(cls, node) -> "Span":
        """Span of an AST node, widened over its subtree."""
        from repro.frontend import ast_nodes as A

        start: SourceLoc = node.loc
        end_line, end_col = start.line, start.col

        def absorb(loc: SourceLoc) -> None:
            nonlocal end_line, end_col
            if loc.is_unknown:
                return
            if (loc.line, loc.col) > (end_line, end_col):
                end_line, end_col = loc.line, loc.col

        if isinstance(node, A.Stmt):
            for stmt in A.walk_stmts(node):
                absorb(stmt.loc)
                for expr in A.walk_exprs(stmt):
                    absorb(expr.loc)
        else:
            for expr in A.walk_exprs(node):
                absorb(expr.loc)
        return cls(
            filename=start.filename,
            line=start.line,
            col=start.col,
            end_line=end_line,
            end_col=end_col,
        )


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One structured finding of the static module."""

    severity: Severity
    code: ReasonCode
    message: str
    span: Span = field(default_factory=Span)
    #: provenance: name of the pipeline pass that emitted this
    origin: str = ""

    def format(self) -> str:
        """One-line rendering: ``file:line:col: note[code] message (pass)``."""
        where = "<unknown>" if self.span.is_unknown else str(self.span)
        origin = f" ({self.origin})" if self.origin else ""
        return f"{where}: {self.severity.value}[{self.code.value}] {self.message}{origin}"

    def __str__(self) -> str:
        return self.format()


def note(
    code: ReasonCode,
    message: str,
    span: Span | None = None,
    origin: str = "",
) -> Diagnostic:
    """Shorthand for the common rejection-note diagnostic."""
    return Diagnostic(
        severity=Severity.NOTE,
        code=code,
        message=message,
        span=span if span is not None else Span(),
        origin=origin,
    )
