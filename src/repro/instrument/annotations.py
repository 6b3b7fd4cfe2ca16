"""Developer annotations: manual include/exclude of snippets (§3.1).

The paper notes that developers understand program semantics best and
could annotate fixed-workload snippets by hand — automation exists because
manual annotation does not scale, not because it is unwelcome.  This
module provides the manual path:

* ``exclude`` vetoes an identified sensor (e.g. the developer knows a
  "fixed" loop's cache behaviour is bimodal and prefers silence);
* ``include`` asserts that a snippet the analysis rejected *is* fixed
  workload (e.g. fixedness depends on an input file the compiler cannot
  see) and instruments it; the assertion is the developer's to keep.

Snippets are addressed by (function name, source line).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.diagnostics import Diagnostic, ReasonCode, Span, note
from repro.sensors.asttools import subtree_ids
from repro.sensors.identify import IdentificationResult, classify_snippet
from repro.sensors.model import Snippet, VSensor


@dataclass(frozen=True, slots=True)
class SnippetRef:
    """Addresses one snippet in source terms."""

    function: str
    line: int


@dataclass(slots=True)
class Annotations:
    """A set of manual include/exclude marks."""

    include: list[SnippetRef] = field(default_factory=list)
    exclude: list[SnippetRef] = field(default_factory=list)

    def is_excluded(self, sensor: VSensor) -> bool:
        return any(
            ref.function == sensor.function and ref.line == sensor.loc.line
            for ref in self.exclude
        )

    def forced_sensors(self, result: IdentificationResult) -> list[VSensor]:
        """Build sensors for force-included snippets the analysis rejected."""
        already = {(s.function, s.loc.line) for s in result.sensors}
        forced: list[VSensor] = []
        for ref in self.include:
            if (ref.function, ref.line) in already:
                continue
            snippet = _find_snippet(result, ref)
            if snippet is None:
                continue
            forced.append(
                VSensor(
                    snippet=snippet,
                    sensor_type=classify_snippet(
                        result.shapes[snippet.function],
                        subtree_ids(snippet.node),
                        result.summaries,
                    ),
                    scope_loops=list(snippet.enclosing_loops),
                    is_function_scope=True,
                    is_global=True,  # the developer asserts program-wide fixedness
                    rank_invariant=True,
                )
            )
        return forced


def _find_snippet(result: IdentificationResult, ref: SnippetRef) -> Snippet | None:
    for snippet in result.snippets:
        if snippet.function == ref.function and snippet.loc.line == ref.line:
            return snippet
    return None


def apply_annotations(
    result: IdentificationResult, annotations: Annotations
) -> tuple[IdentificationResult, list[Diagnostic]]:
    """``result`` with manual marks applied, and one note per excluded
    sensor.  The view shares every analysis with ``result`` and holds its
    own sensor list; ``result`` itself is left as it was (it may be a
    cached artifact)."""
    kept: list[VSensor] = []
    notes: list[Diagnostic] = []
    for sensor in result.sensors:
        if not annotations.is_excluded(sensor):
            kept.append(sensor)
            continue
        notes.append(
            note(
                ReasonCode.ANNOTATION_EXCLUDED,
                f"{sensor.snippet.spelled} excluded by developer annotation",
                span=Span.from_node(sensor.snippet.node),
                origin="select",
            )
        )
    kept.extend(annotations.forced_sensors(result))
    return dataclasses.replace(result, sensors=kept), notes
