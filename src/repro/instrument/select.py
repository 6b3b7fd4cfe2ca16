"""v-sensor selection rules (§4).

* **Scope** — only *global* v-sensors are instrumented: their history stays
  valid for the whole run, so one scalar standard time per sensor suffices.
* **Granularity** — a ``max_depth`` cut: out-most loops are depth 0; only
  sensors nested shallower than ``max_depth`` are kept (fine-grained sensors
  additionally get runtime shutoff, §5.3).
* **Nested sensors** — the probes themselves are not fixed-workload, so an
  instrumented sensor inside another would destroy the outer one; prefer
  the outermost of any nested pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics import Diagnostic, ReasonCode, Span, note
from repro.sensors.asttools import subtree_ids
from repro.sensors.estimate import WorkloadEstimator
from repro.sensors.identify import IdentificationResult
from repro.sensors.model import SensorType, VSensor


@dataclass(frozen=True, slots=True)
class SensorEstimate:
    """The selector's compile-time cost/frequency guess for one sensor.

    Historically computed for the granularity cut and then dropped; now
    exported with the plan so the runtime overhead governor can order
    sensors by information density (``None`` = the static analysis could
    not tell — treated conservatively downstream).
    """

    #: estimated work units per snippet execution
    est_work: float | None = None
    #: estimated executions per invocation of the enclosing function
    #: (product of enclosing counted-loop trip counts)
    est_calls: float | None = None


@dataclass(slots=True)
class InstrumentationPlan:
    """The sensors chosen for probing, with bookkeeping for reports."""

    selected: list[VSensor] = field(default_factory=list)
    rejected_scope: list[VSensor] = field(default_factory=list)
    rejected_depth: list[VSensor] = field(default_factory=list)
    rejected_nested: list[VSensor] = field(default_factory=list)
    #: calls to externs too small to wrap in probes (math etc.)
    rejected_tiny: list[VSensor] = field(default_factory=list)
    #: one structured diagnostic per rejected sensor ("explain" support)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: sensor_id → :class:`SensorEstimate` for every identified sensor
    estimates: dict[int, SensorEstimate] = field(default_factory=dict)

    def by_type(self) -> dict[SensorType, int]:
        counts: dict[SensorType, int] = {}
        for s in self.selected:
            counts[s.sensor_type] = counts.get(s.sensor_type, 0) + 1
        return counts

    def summary(self) -> str:
        """Table-1 style instrumentation summary, e.g. ``87Comp+5Net``."""
        counts = self.by_type()
        parts = [
            f"{counts[t]}{t.value}"
            for t in (SensorType.COMPUTATION, SensorType.NETWORK, SensorType.IO)
            if t in counts
        ]
        return "+".join(parts) if parts else "0"


def _reject(plan: InstrumentationPlan, bucket: list, sensor: VSensor,
            code: ReasonCode, message: str) -> None:
    bucket.append(sensor)
    plan.diagnostics.append(
        note(code, message, span=Span.from_node(sensor.snippet.node), origin="select")
    )


def _estimated_too_small(sensor: VSensor, estimator, threshold: float) -> bool:
    estimate = estimator.estimate_snippet(sensor.snippet.node)
    return estimate is not None and estimate < threshold


def _is_tiny_extern_call(sensor: VSensor, result: IdentificationResult) -> bool:
    """Call snippets to externs marked not probe-worthy (math, rand, ...):
    the probe would dwarf the call."""
    from repro.frontend.ast_nodes import CallExpr
    from repro.sensors.model import SnippetKind

    if sensor.snippet.kind is not SnippetKind.CALL:
        return False
    node = sensor.snippet.node
    assert isinstance(node, CallExpr)
    model = result.summaries.extern_model(node.callee)
    return model is not None and not model.probe_worthy


def _node_frequencies(module, estimator) -> dict[int, float | None]:
    """node_id → estimated executions per enclosing-function invocation.

    A recursive walk over each function body carrying the product of
    enclosing counted-loop trip counts.  ``None`` propagates for unknowable
    multipliers (while-loops, non-canonical for-loops).  Both statement and
    call-expression node ids are recorded, matching the two snippet kinds.
    """
    from repro.frontend import ast_nodes as A

    freqs: dict[int, float | None] = {}

    def record_exprs(stmt, freq):
        for expr in A.walk_exprs(stmt):
            if isinstance(expr, A.CallExpr):
                freqs[expr.node_id] = freq

    def walk(stmt, freq):
        if stmt is None:
            return
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                walk(s, freq)
            return
        freqs[stmt.node_id] = freq
        record_exprs(stmt, freq)
        if isinstance(stmt, A.ForStmt):
            trips = estimator.trip_count(stmt)
            inner = None if freq is None or trips is None else freq * trips
            walk(stmt.body, inner)
        elif isinstance(stmt, A.WhileStmt):
            walk(stmt.body, None)
        elif isinstance(stmt, A.IfStmt):
            walk(stmt.then_body, freq)
            walk(stmt.else_body, freq)

    for fn in module.functions:
        walk(fn.body, 1.0)
    return freqs


def _functions_reachable_from(
    sensor: VSensor, subtree: frozenset[int], result: IdentificationResult
) -> set[str]:
    """Functions whose code executes inside ``sensor``'s snippet (via calls
    in the snippet's subtree, transitively through the call graph)."""
    shape = result.shapes.get(sensor.function)
    if shape is None:
        return set()
    graph = result.callgraph.graph
    stack = [
        call.callee for call in shape.live_calls(subtree)
        if call.callee in graph and not result.summaries.is_indirect(call)
    ]
    reachable: set[str] = set()
    while stack:
        name = stack.pop()
        if name not in reachable:
            reachable.add(name)
            stack.extend(graph[name])
    return reachable


def select_sensors(
    result: IdentificationResult,
    max_depth: int = 3,
    min_estimated_work: float = 0.0,
) -> InstrumentationPlan:
    """Apply the selection rules to the identification result.

    ``min_estimated_work`` additionally skips sensors whose compile-time
    work estimate (``repro.sensors.estimate``) is known and below the
    threshold — the concrete form of §4's "this compile-time strategy is
    only an estimation" granularity cut.  Unknown estimates are kept (the
    runtime shutoff of §5.3 covers those).
    """
    plan = InstrumentationPlan()

    # Selection owns the ``selected`` markers: clear any earlier run's flags
    # so one (possibly cached and shared) identification result can feed
    # many selections without the marks accumulating.
    for sensor in result.sensors:
        sensor.selected = False

    estimator = WorkloadEstimator(result.module, externs=result.summaries.externs)
    freqs = _node_frequencies(result.module, estimator)
    for sensor in result.sensors:
        plan.estimates[sensor.sensor_id] = SensorEstimate(
            est_work=estimator.estimate_snippet(sensor.snippet.node),
            est_calls=freqs.get(sensor.snippet.node.node_id),
        )
    # Estimates feed the runtime governor either way, but the granularity
    # cut below stays opt-in: only applied when asked.
    cut_estimator = estimator if min_estimated_work > 0.0 else None

    candidates: list[VSensor] = []
    for sensor in result.sensors:
        if not sensor.is_global:
            _reject(
                plan, plan.rejected_scope, sensor, ReasonCode.LOCAL_SCOPE,
                f"{sensor.snippet.spelled} is fixed only within "
                f"{len(sensor.scope_loops)} enclosing loop(s), not program-wide",
            )
        elif sensor.snippet.depth >= max_depth:
            _reject(
                plan, plan.rejected_depth, sensor, ReasonCode.TOO_DEEP,
                f"nesting depth {sensor.snippet.depth} >= max_depth {max_depth}",
            )
        elif _is_tiny_extern_call(sensor, result):
            _reject(
                plan, plan.rejected_tiny, sensor, ReasonCode.BELOW_GRANULARITY,
                f"{sensor.snippet.spelled} is too small to wrap in probes",
            )
        elif cut_estimator is not None and _estimated_too_small(
            sensor, cut_estimator, min_estimated_work
        ):
            _reject(
                plan, plan.rejected_tiny, sensor, ReasonCode.BELOW_GRANULARITY,
                f"estimated work below min_estimated_work={min_estimated_work:g}",
            )
        else:
            candidates.append(sensor)

    # Nested exclusion: drop any candidate whose probes would execute inside
    # another candidate's probes (prefer the outermost).  Two cases:
    # same-function AST nesting, and dynamic nesting through calls — a
    # candidate sitting in a function reachable from calls inside another
    # candidate's subtree.
    subtrees = {
        s.sensor_id: subtree_ids(s.snippet.node) for s in candidates if s.function
    }
    reachable = {
        s.sensor_id: _functions_reachable_from(s, subtrees[s.sensor_id], result)
        for s in candidates
    }
    kept: list[VSensor] = []
    for sensor in candidates:
        nested = any(
            other is not sensor
            and (
                (
                    other.function == sensor.function
                    and sensor.sensor_id in subtrees[other.sensor_id]
                )
                or sensor.function in reachable[other.sensor_id]
            )
            for other in candidates
        )
        if nested:
            _reject(
                plan, plan.rejected_nested, sensor, ReasonCode.NESTED_SENSOR,
                f"{sensor.snippet.spelled} executes inside another selected "
                "sensor's probes (outermost preferred)",
            )
        else:
            kept.append(sensor)

    for sensor in kept:
        sensor.selected = True
    plan.selected = kept
    return plan
