"""The v-sensor identification driver (workflow step 2).

Pipeline per module:

1. compute each function's shape (loops, calls, what can execute) and
   build + preprocess the call graph (2a),
2. compute bottom-up function summaries (2c),
3. enumerate snippet candidates — every loop and every call (§3.1),
4. for each snippet, find the maximal contiguous chain of enclosing loops
   across whose iterations its workload is fixed (loop analysis, 2b;
   intra-procedural §3.2),
5. propagate through call sites to decide *global* scope (inter-procedural
   §3.3) and rank-invariance (process analysis, 2d / §3.4),
6. classify each sensor as Computation / Network / IO and apply any extra
   static rules (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.callgraph import CallGraph, PreprocessResult, build_call_graph, preprocess_call_graph
from repro.diagnostics import Diagnostic, ReasonCode, Span, note
from repro.frontend import ast_nodes as A
from repro.sensors.asttools import FunctionShape, compute_shape
from repro.sensors.extern import ExternRegistry, default_extern_registry
from repro.sensors.model import (
    SensorType,
    SliceResult,
    Snippet,
    SnippetKind,
    VSensor,
)
from repro.sensors.slicer import args_for, run_slice, workload_inputs
from repro.sensors.summaries import SummaryTable, compute_summaries


@dataclass(frozen=True, slots=True)
class Rejection:
    """One snippet that is not a v-sensor, and the structured reason why.

    Iterable as ``(snippet, diagnostic)`` so explain-style consumers can
    unpack it like the historical ``(snippet, reason-string)`` tuples.
    """

    snippet: Snippet
    diagnostic: Diagnostic

    def __iter__(self):
        yield self.snippet
        yield self.diagnostic

    @property
    def code(self) -> ReasonCode:
        return self.diagnostic.code


@dataclass(slots=True)
class IdentificationResult:
    """Everything the static module learned about one program."""

    module: A.Module
    callgraph: CallGraph
    preprocess: PreprocessResult
    summaries: SummaryTable
    shapes: dict[str, FunctionShape]
    snippets: list[Snippet] = field(default_factory=list)
    sensors: list[VSensor] = field(default_factory=list)
    #: snippets that are not sensors, each with the first structured
    #: diagnostic the dependency-propagation slice recorded ("explain")
    rejections: list[Rejection] = field(default_factory=list)

    @property
    def snippet_count(self) -> int:
        return len(self.snippets)

    @property
    def sensor_count(self) -> int:
        return len(self.sensors)

    def diagnostics(self) -> list[Diagnostic]:
        """All rejection diagnostics, in snippet-discovery order."""
        return [r.diagnostic for r in self.rejections]


class _Identifier:
    def __init__(self, ast_module: A.Module, externs: ExternRegistry) -> None:
        self.ast_module = ast_module
        self.shapes = {fn.name: compute_shape(fn) for fn in ast_module.functions}
        self.cg = build_call_graph(ast_module, self.shapes)
        self.prep = preprocess_call_graph(self.cg)
        self.table = compute_summaries(ast_module, self.shapes, self.cg, self.prep, externs)
        #: memo for call-site promotion: (fn, params, globals) -> verdict
        self._promo_memo: dict[tuple[str, frozenset[str], frozenset[str]], tuple[bool, bool, bool]] = {}

    # -- driver --------------------------------------------------------------

    def run(self) -> IdentificationResult:
        result = IdentificationResult(
            module=self.ast_module,
            callgraph=self.cg,
            preprocess=self.prep,
            summaries=self.table,
            shapes=self.shapes,
        )
        never_fixed = self.prep.never_fixed()
        for name, shape in self.shapes.items():
            snippets = self._enumerate_snippets(name, shape)
            result.snippets.extend(snippets)
            if name in never_fixed:
                for snippet in snippets:
                    result.rejections.append(
                        Rejection(
                            snippet,
                            note(
                                ReasonCode.RECURSIVE_FUNCTION,
                                "inside a recursive or address-taken function",
                                span=Span.from_node(snippet.node),
                                origin="identify",
                            ),
                        )
                    )
                continue  # candidates counted, but never sensors (§3.5)
            for snippet in snippets:
                sensor, reason = self._analyze_snippet(snippet, shape)
                if sensor is not None:
                    result.sensors.append(sensor)
                else:
                    result.rejections.append(
                        Rejection(snippet, _rejection_diag(snippet, reason))
                    )
        return result

    def _enumerate_snippets(self, fname: str, shape: FunctionShape) -> list[Snippet]:
        snippets: list[Snippet] = []
        for loop in shape.loops:
            snippets.append(
                Snippet(
                    kind=SnippetKind.LOOP,
                    function=fname,
                    node=loop,
                    enclosing_loops=list(reversed(shape.enclosing[loop.node_id])),
                    depth=shape.loop_depth(loop),
                )
            )
        for call in shape.calls:
            if call.callee == "compute_units":
                # Stands for inlined straight-line arithmetic — the paper's
                # "count++ is not a candidate because it is not a loop or a
                # call" case.
                continue
            enclosing = list(reversed(shape.enclosing[call.node_id]))
            snippets.append(
                Snippet(
                    kind=SnippetKind.CALL,
                    function=fname,
                    node=call,
                    enclosing_loops=enclosing,
                    depth=len(enclosing),
                )
            )
        return snippets

    # -- per-snippet analysis ---------------------------------------------------

    def _snippet_subtree(self, snippet: Snippet, shape: FunctionShape) -> frozenset[int]:
        if snippet.kind is SnippetKind.LOOP:
            return shape.loop_subtrees[snippet.node.node_id]
        return shape.call_subtrees[snippet.node.node_id]

    def _analyze_snippet(
        self, snippet: Snippet, shape: FunctionShape
    ) -> tuple[VSensor | None, Diagnostic | None]:
        fn = shape.fn
        sub_ids = self._snippet_subtree(snippet, shape)
        values, seed, callee_sites = workload_inputs(shape, sub_ids, self.table)
        if seed.nonfixed:
            return None, _first_reason(seed)

        # Maximal contiguous scope chain, innermost outward (§3.2, §4 Scope).
        scope_loops: list[A.Stmt] = []
        rank_dep = seed.rank
        stop_reason: Diagnostic | None = None
        for loop in snippet.enclosing_loops:
            region = shape.loop_regions[loop.node_id]
            res = run_slice(
                fn,
                self.table,
                snippet_ids=sub_ids,
                region_ids=region,
                values=values,
                seed=_copy_seed(seed),
                callee_global_sites=callee_sites,
            )
            rank_dep |= res.rank
            if not res.fixed:
                stop_reason = _first_reason(res)
                break
            scope_loops.append(loop)

        is_function_scope = len(scope_loops) == len(snippet.enclosing_loops)
        if not scope_loops and not is_function_scope:
            return None, stop_reason  # not a v-sensor of any loop
        # A snippet with no enclosing loops at all is "function scope" by
        # definition; whether it repeats is decided by promotion below.

        # Whole-function input extraction for inter-procedural propagation.
        entry = run_slice(
            fn,
            self.table,
            snippet_ids=sub_ids,
            region_ids=shape.body_ids,
            values=values,
            seed=_copy_seed(seed),
            callee_global_sites=callee_sites,
        )
        rank_dep |= entry.rank

        is_global = False
        repeats = bool(snippet.enclosing_loops)
        if is_function_scope and entry.fixed:
            ok, promoted_repeats, promoted_rank = self._promote(
                fn.name, frozenset(entry.params), frozenset(entry.globals)
            )
            is_global = ok
            repeats = repeats or promoted_repeats
            rank_dep |= promoted_rank
        if is_global and not repeats:
            # Fixed everywhere but executes at most once: useless as a sensor.
            is_global = False

        if not scope_loops and not is_global:
            reason = note(
                ReasonCode.NOT_PROMOTABLE,
                "fixed within its function but not promotable to global scope "
                "(call sites vary its workload or it never repeats)",
                span=Span.from_node(snippet.node),
                origin="identify",
            )
            if not entry.fixed:
                reason = _first_reason(entry) or reason
            return None, reason

        sensor = VSensor(
            snippet=snippet,
            sensor_type=classify_snippet(shape, sub_ids, self.table),
            scope_loops=scope_loops,
            is_function_scope=is_function_scope,
            is_global=is_global,
            rank_invariant=not rank_dep,
            param_deps=set(entry.params),
            global_deps=set(entry.globals),
        )
        return sensor, None

    # -- inter-procedural promotion (§3.3) -----------------------------------------

    def _promote(
        self, fname: str, params: frozenset[str], globals_: frozenset[str]
    ) -> tuple[bool, bool, bool]:
        """Can a function-scope snippet of ``fname`` whose workload depends
        on ``params``/``globals_`` be promoted to global scope?

        Returns ``(ok, repeats, rank_dep)`` where ``repeats`` records whether
        some call path re-executes the snippet (a loop around a call site),
        and ``rank_dep`` whether caller-side argument values inject process
        identity.
        """
        key = (fname, params, globals_)
        if key in self._promo_memo:
            return self._promo_memo[key]
        # Pre-seed against (impossible) cycles: pruned call graphs are acyclic.
        self._promo_memo[key] = (False, False, False)

        if fname == A.ENTRY:
            verdict = (True, False, False)
            self._promo_memo[key] = verdict
            return verdict

        sites = [s for s in self.cg.sites if s.kind == "defined" and s.callee == fname]
        if not sites:
            verdict = (False, False, False)  # unreachable from program code
            self._promo_memo[key] = verdict
            return verdict
        if len(sites) > 1 and (params or globals_):
            # Different call sites may pass different workloads; the sensor
            # identity would mix them (conservative veto; the paper only
            # promotes dependency-free snippets across multiple sites).
            verdict = (False, False, False)
            self._promo_memo[key] = verdict
            return verdict

        ok = True
        repeats = False
        rank_dep = False
        for site in sites:
            site_ok, site_repeats, site_rank = self._check_site(site, params, globals_)
            ok &= site_ok
            repeats |= site_repeats
            rank_dep |= site_rank
            if not ok:
                break
        verdict = (ok, repeats, rank_dep)
        self._promo_memo[key] = verdict
        return verdict

    def _check_site(self, site, params: frozenset[str], globals_: frozenset[str]):
        caller = site.caller
        if caller in self.prep.never_fixed():
            return False, False, False
        shape = self.shapes[caller]
        call = site.call
        sub_ids = shape.call_subtrees.get(call.node_id, frozenset({call.node_id}))
        values = args_for(self.table, call, params)
        callee_sites = [(call, set(globals_))] if globals_ else []

        enclosing = list(reversed(shape.enclosing.get(call.node_id, [])))
        rank_dep = False
        for loop in enclosing:
            res = run_slice(
                shape.fn,
                self.table,
                snippet_ids=sub_ids,
                region_ids=shape.loop_regions[loop.node_id],
                values=values,
                seed=SliceResult(),
                callee_global_sites=callee_sites,
            )
            rank_dep |= res.rank
            if not res.fixed:
                return False, False, False

        entry = run_slice(
            shape.fn,
            self.table,
            snippet_ids=sub_ids,
            region_ids=shape.body_ids,
            values=values,
            seed=SliceResult(),
            callee_global_sites=callee_sites,
        )
        rank_dep |= entry.rank
        if not entry.fixed:
            return False, False, False

        up_ok, up_repeats, up_rank = self._promote(
            caller, frozenset(entry.params), frozenset(entry.globals)
        )
        repeats = bool(enclosing) or up_repeats
        return up_ok, repeats, rank_dep or up_rank


def classify_snippet(shape: FunctionShape, sub_ids: frozenset[int], table: SummaryTable) -> SensorType:
    """A sensor's type (§3.1, §5.2) from the calls of ``shape``'s function
    that can execute inside ``sub_ids``: Network if any reaches the network,
    else IO if any does IO, else Computation."""
    has_net = False
    has_io = False
    for call in shape.live_calls(sub_ids):
        if table.is_indirect(call):
            continue
        model = table.extern_model(call.callee)
        if model is not None:
            has_net |= model.category == "net"
            has_io |= model.category == "io"
            continue
        summary = table.summaries.get(call.callee)
        if summary is not None:
            has_net |= summary.contains_net
            has_io |= summary.contains_io
    if has_net:
        return SensorType.NETWORK
    if has_io:
        return SensorType.IO
    return SensorType.COMPUTATION


def _first_reason(result: SliceResult) -> Diagnostic | None:
    return result.reasons[0] if result.reasons else None


def _rejection_diag(snippet: Snippet, reason: Diagnostic | None) -> Diagnostic:
    """The rejection diagnostic for a snippet, defaulting the span to the
    snippet itself when the slice recorded none."""
    if reason is None:
        return note(
            ReasonCode.NOT_FIXED,
            "workload not fixed across any enclosing loop",
            span=Span.from_node(snippet.node),
            origin="identify",
        )
    if reason.span.is_unknown:
        return Diagnostic(
            severity=reason.severity,
            code=reason.code,
            message=reason.message,
            span=Span.from_node(snippet.node),
            origin=reason.origin or "identify",
        )
    return reason


def _copy_seed(seed: SliceResult) -> SliceResult:
    fresh = SliceResult()
    fresh.merge(seed)
    return fresh


def identify_vsensors(
    ast_module: A.Module,
    externs: ExternRegistry | None = None,
    static_rules: Sequence | Iterable = (),
) -> IdentificationResult:
    """Identify the v-sensors of a parsed program.

    ``static_rules`` is a sequence of :class:`~repro.sensors.rules.StaticRule`
    instances applied as extra vetoes after the default analysis.
    """
    identifier = _Identifier(ast_module, externs or default_extern_registry())
    result = identifier.run()
    if static_rules:
        apply_static_rules(result, static_rules)
    return result


def apply_static_rules(result: IdentificationResult, static_rules) -> IdentificationResult:
    """Filter ``result.sensors`` through extra static rules (§3.1), recording
    each veto as a rejection diagnostic (mutates ``result``)."""
    kept = []
    for sensor in result.sensors:
        vetoed_by = next(
            (r for r in static_rules if not r.accepts(sensor, result.summaries)), None
        )
        if vetoed_by is None:
            kept.append(sensor)
        else:
            rule_name = getattr(vetoed_by, "name", type(vetoed_by).__name__)
            result.rejections.append(
                Rejection(
                    sensor.snippet,
                    note(
                        ReasonCode.STATIC_RULE_VETO,
                        f"vetoed by static rule {rule_name!r}",
                        span=Span.from_node(sensor.snippet.node),
                        origin="identify",
                    ),
                )
            )
    result.sensors = kept
    return result
