"""Dependency-propagation slicing (§3.2–§3.3).

The engine answers one question in two configurations:

1. **Per-loop variance check** — is snippet S's quantity of work fixed over
   iterations of enclosing loop L?  Starting from S's *workload inputs*
   (branch conditions of loops/branches inside S, workload-relevant
   arguments of calls inside S), walk expressions and the definitions
   reaching their variable reads backwards.
   Definitions are classified by AST position:

   * inside S's subtree — expand further (S's own induction structure is
     part of the fixed workload; a pure cycle inside S contributes nothing);
   * inside L's per-iteration region but outside S — the value is written
     between executions of S: expand, and if the chain ever cycles through
     such a definition (an induction like ``n = n + 1``) the workload is
     *variant*;
   * outside L's region — an iteration-fixed input: record which function
     parameter / global it traces to (for inter-procedural propagation) and
     stop.

   Mixed inside/outside reaching definitions at one load are variant (the
   first iteration reads the pre-loop value, later iterations read the
   in-loop value).

2. **Whole-function input extraction** — what do S's workload inputs depend
   on, expressed over the containing function's parameters and globals?
   Same walk with the region set to the whole body: every chain is expanded
   to function entry; cycles outside S are unanalyzable (accumulators).

Both configurations share the treatment of opaque sources: array-element
loads, undescribed extern calls, indirect calls and calls into recursive /
address-taken functions poison the slice as *non-fixed* (§3.5); calls whose
return is the process identity mark the slice *rank-dependent* (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.diagnostics import ReasonCode, Span
from repro.frontend import ast_nodes as A
from repro.sensors.asttools import FunctionShape
from repro.sensors.extern import RET_ARGS, RET_CONST, RET_NONFIXED, RET_RANK
from repro.sensors.model import SliceResult
from repro.sensors.reaching import Definition, ReachingDefinitions

if TYPE_CHECKING:  # pragma: no cover
    from repro.sensors.summaries import SummaryTable


@dataclass(slots=True)
class SliceContext:
    """Everything one slicing run needs."""

    fn: A.FunctionDef
    reaching: ReachingDefinitions
    summaries: "SummaryTable"
    #: AST node-ids belonging to the snippet S (expansion is free inside)
    snippet_ids: frozenset[int]
    #: AST node-ids of the per-iteration region of the checked loop L —
    #: for whole-function extraction this is the whole body.
    region_ids: frozenset[int]


class Slicer:
    """One slicing run; collect into a single :class:`SliceResult`."""

    def __init__(self, ctx: SliceContext) -> None:
        self.ctx = ctx
        self.result = SliceResult()
        #: expression node ids already traced (a second visit — a use–def
        #: cycle such as ``x = f(x)``, or a shared input — adds nothing)
        self._seen: set[int] = set()

    # -- the walk --------------------------------------------------------------

    def trace_expr(self, expr: A.Expr) -> None:
        """Trace one expression's value backwards."""
        if expr.node_id in self._seen:
            return
        self._seen.add(expr.node_id)
        if isinstance(expr, (A.BinOp, A.UnaryOp)):
            for operand in A.child_exprs(expr):
                self.trace_expr(operand)
        elif isinstance(expr, A.VarRef):
            self._trace_load(expr)
        elif isinstance(expr, A.ArrayRef):
            # Array contents are not tracked: workload depending on data
            # values is never provably fixed (conservative, §3.5).
            self.result.fail(
                f"array load {expr.name}[] at {expr.loc}",
                code=ReasonCode.ARRAY_LOAD, span=Span.from_loc(expr.loc), nonfixed=True,
            )
        elif isinstance(expr, A.CallExpr):
            self._trace_call_return(expr)
        # literals and ``&f`` are constants

    # -- loads ------------------------------------------------------------------

    def _trace_load(self, load: A.VarRef) -> None:
        defs = self.ctx.reaching.reaching(load)
        if not defs:
            # No reaching definition: read of never-written storage.
            self.result.fail(
                f"uninitialized read of {load.name} at {load.loc}",
                code=ReasonCode.UNINITIALIZED_READ, span=Span.from_loc(load.loc), nonfixed=True,
            )
            return

        inside_region: list[Definition] = []
        outside_region: list[Definition] = []
        entry_defs: list[Definition] = []
        for d in defs:
            if d.is_entry:
                entry_defs.append(d)
            elif d.node.node_id in self.ctx.region_ids:
                inside_region.append(d)
            else:
                outside_region.append(d)

        if inside_region and (outside_region or entry_defs):
            # First iteration reads the pre-region value, later iterations
            # read the in-region value: not fixed across iterations —
            # *unless* every in-region definition is inside the snippet
            # itself and the load is also inside the snippet (then the
            # pre-region def reaches only the snippet's own first reads and
            # the snippet re-establishes the value; conservatively we still
            # flag it, matching the paper's avoid-false-positives stance).
            if not all(self._in_snippet(d.node) for d in inside_region) or not self._in_snippet(
                load
            ):
                self.result.fail(
                    f"{load.name} mixes pre-loop and in-loop definitions at {load.loc}",
                    code=ReasonCode.MIXED_DEFS, span=Span.from_loc(load.loc),
                )
                return
            # All in-region defs are the snippet's own writes, and the
            # variable also arrives from outside: the snippet's workload
            # depends on cross-execution state (e.g. a counter that is not
            # re-initialized).  Variant.
            self.result.fail(
                f"{load.name} carries state across snippet executions at {load.loc}",
                code=ReasonCode.CROSS_EXEC_STATE, span=Span.from_loc(load.loc),
            )
            return

        if not inside_region:
            # Iteration-fixed input.  Record what it is for inter-procedural
            # propagation, then stop: per-loop checks do not need to look
            # further back.
            self._record_external_input(load, entry_defs, outside_region)
            return

        # All definitions are inside the region: expand each.
        for d in inside_region:
            self._expand_definition(d, load.name)

    def _in_snippet(self, node: A.Node) -> bool:
        return node.node_id in self.ctx.snippet_ids

    def _record_external_input(self, load: A.VarRef, entry_defs, outside_defs) -> None:
        var = load.name
        if entry_defs:
            if any(p.name == var for p in self.ctx.fn.params):
                self.result.params.add(var)
            elif var in self.ctx.summaries.globals:
                self.result.globals.add(var)
            else:
                # An uninitialized local reaching from entry.
                self.result.fail(
                    f"uninitialized local {var} at {load.loc}",
                    code=ReasonCode.UNINITIALIZED_LOCAL, span=Span.from_loc(load.loc),
                    nonfixed=True,
                )
                return
        if outside_defs and self.ctx.region_ids is not self.ctx.snippet_ids:
            # Per-loop check: a definition outside the region is a fixed
            # input for this loop; whole-function extraction never ends up
            # here because its region covers everything.
            for d in outside_defs:
                self._expand_outside_definition(d)

    def _expand_outside_definition(self, d: Definition) -> None:
        """For the inter-procedural residue: trace outside-region defs to
        function inputs without variance checking (their values are fixed
        for the checked loop, but the caller needs to know what they are a
        function of)."""
        if isinstance(d.node, A.CallExpr):
            # A call's side effect wrote this global: opaque value, but
            # fixed for this loop.  Whether it stays fixed program-wide is
            # re-checked by outer-scope passes; treat as an opaque global
            # input here.
            self.result.globals.update(self._call_moded_globals(d.node))
        elif d.is_may:
            self._array_store(d.node)
        else:
            # Keep walking backwards from the stored value; region rules
            # still classify further loads, and any deeper in-region writes
            # would already have been seen by the per-loop pass of the
            # *outer* loop when scopes are computed loop-by-loop.
            self.trace_expr(_stored_value(d.node))

    def _expand_definition(self, d: Definition, var: str) -> None:
        node = d.node
        if isinstance(node, A.CallExpr):
            # A call inside the region may modify the variable: the value
            # changes across iterations under the callee's control.
            if self._in_snippet(node):
                # The snippet's own call rewrites the value each execution;
                # whether that is fixed depends on the callee's stored value,
                # which we do not track: non-fixed.
                self.result.fail(
                    f"{var} written by call {node.callee} inside snippet",
                    code=ReasonCode.SNIPPET_CALL_CLOBBERS, span=Span.from_loc(node.loc),
                    nonfixed=True,
                )
            else:
                self.result.fail(
                    f"{var} may be modified by call {node.callee} within the loop",
                    code=ReasonCode.CALL_CLOBBERS, span=Span.from_loc(node.loc),
                )
        elif d.is_may:
            self._array_store(node)
        else:
            self.trace_expr(_stored_value(node))

    def _array_store(self, node: A.Assign) -> None:
        self.result.fail(
            f"array store into {node.target.name} at {node.loc}",
            code=ReasonCode.ARRAY_STORE, span=Span.from_loc(node.loc), nonfixed=True,
        )

    def _call_moded_globals(self, call: A.CallExpr) -> set[str]:
        summary = self.ctx.summaries.for_call(call)
        return set(summary.mods) if summary is not None else set(self.ctx.summaries.globals)

    # -- call returns -------------------------------------------------------------

    def _trace_call_return(self, call: A.CallExpr) -> None:
        table = self.ctx.summaries
        if table.is_indirect(call):
            self.result.fail(
                f"indirect call {call.callee} at {call.loc}",
                code=ReasonCode.INDIRECT_CALL, span=Span.from_loc(call.loc), nonfixed=True,
            )
            return
        summary = table.for_call(call)
        if summary is None:
            # Undescribed extern: never fixed (§3.5 default policy).
            self.result.fail(
                f"undescribed extern {call.callee}",
                code=ReasonCode.UNDESCRIBED_EXTERN, span=Span.from_loc(call.loc), nonfixed=True,
            )
            return
        extern = table.extern_model(call.callee)
        if extern is not None:
            if extern.ret == RET_CONST:
                return
            if extern.ret == RET_RANK:
                self.result.rank = True
                return
            if extern.ret == RET_ARGS:
                for arg in call.args:
                    self.trace_expr(arg)
                return
            if extern.ret == RET_NONFIXED:
                self.result.fail(
                    f"extern {call.callee} returns unanalyzable value",
                    code=ReasonCode.EXTERN_NONFIXED_RETURN, span=Span.from_loc(call.loc),
                    nonfixed=True,
                )
                return
        # Defined function: substitute its return summary at this site.
        ret = summary.ret
        if summary.never_fixed or ret.nonfixed or ret.variant:
            self.result.fail(
                f"call {call.callee} returns non-fixed value",
                code=ReasonCode.CALLEE_NONFIXED_RETURN, span=Span.from_loc(call.loc),
                nonfixed=True,
            )
            return
        if ret.rank:
            self.result.rank = True
        for arg in args_for(table, call, ret.params):
            self.trace_expr(arg)
        for gname in sorted(ret.globals):
            # The callee reads global gname: the value it sees is the value
            # at the call site; model as a load of the global at this call.
            self.trace_global_at(call, gname)

    def trace_global_at(self, call: A.CallExpr, gname: str) -> None:
        """Treat global ``gname`` as if loaded immediately before ``call``."""
        defs = self.ctx.reaching.reaching(call, gname)
        region = self.ctx.region_ids
        inside = [d for d in defs if not d.is_entry and d.node.node_id in region]
        outside = [d for d in defs if d.is_entry or d.node.node_id not in region]
        if inside and outside:
            if not all(self._in_snippet(d.node) for d in inside) or not self._in_snippet(call):
                self.result.fail(
                    f"global {gname} mixes definitions at call {call.callee}",
                    code=ReasonCode.MIXED_DEFS, span=Span.from_loc(call.loc),
                )
                return
            self.result.fail(
                f"global {gname} carries state across snippet executions",
                code=ReasonCode.CROSS_EXEC_STATE, span=Span.from_loc(call.loc),
            )
            return
        if not inside:
            self.result.globals.add(gname)
            return
        for d in inside:
            self._expand_definition(d, gname)


def _stored_value(node: A.Assign | A.VarDecl) -> A.Expr:
    return node.value if isinstance(node, A.Assign) else node.init


def args_for(table: "SummaryTable", call: A.CallExpr, params) -> list[A.Expr]:
    """The arguments ``call`` passes for the callee parameters ``params``,
    in name order (so the first recorded reason does not depend on set
    iteration order)."""
    fn = table.function(call.callee)
    if fn is None:
        return []
    names = [p.name for p in fn.params]
    return [
        call.args[names.index(p)]
        for p in sorted(params)
        if p in names and names.index(p) < len(call.args)
    ]


# ---------------------------------------------------------------------------
# Public helpers: collect a snippet's workload inputs and run slices
# ---------------------------------------------------------------------------


def workload_inputs(
    shape: FunctionShape,
    snippet_ids: frozenset[int],
    summaries: "SummaryTable",
) -> tuple[list[A.Expr], SliceResult, list[tuple[A.CallExpr, set[str]]]]:
    """The expressions that determine a snippet's quantity of work.

    Returns ``(values, seed, callee_global_sites)``: the expressions to
    trace, a pre-seeded result carrying poison markers discovered while
    scanning (undescribed externs, never-fixed callees), and the list of
    call sites whose callee workload depends on globals — those globals
    must be traced *at the call site* by the slicer.
    """
    seed = SliceResult()
    values: list[A.Expr] = []
    callee_global_sites: list[tuple[A.CallExpr, set[str]]] = []
    for node in shape.live:
        if node.node_id not in snippet_ids:
            continue
        if isinstance(node, A.CallExpr):
            _collect_call_inputs(node, summaries, seed, values, callee_global_sites)
        elif isinstance(node, (A.IfStmt, A.ForStmt, A.WhileStmt)):
            values.append(node.cond)
    return values, seed, callee_global_sites


def _collect_call_inputs(
    call: A.CallExpr,
    summaries: "SummaryTable",
    seed: SliceResult,
    values: list[A.Expr],
    callee_global_sites: list[tuple[A.CallExpr, set[str]]],
) -> None:
    span = Span.from_loc(call.loc)
    if summaries.is_indirect(call):
        seed.fail(
            f"indirect call {call.callee}",
            code=ReasonCode.INDIRECT_CALL, span=span, nonfixed=True,
        )
        return
    extern = summaries.extern_model(call.callee)
    if extern is not None:
        for idx in extern.workload_args:
            if idx < len(call.args):
                values.append(call.args[idx])
        return
    summary = summaries.for_call(call)
    if summary is None:
        seed.fail(
            f"undescribed extern {call.callee}",
            code=ReasonCode.UNDESCRIBED_EXTERN, span=span, nonfixed=True,
        )
        return
    if summary.never_fixed or summary.workload.nonfixed:
        seed.fail(
            f"call {call.callee} has never-fixed workload",
            code=ReasonCode.CALLEE_NONFIXED_WORKLOAD, span=span, nonfixed=True,
        )
        return
    if summary.workload.rank:
        seed.rank = True
    values.extend(args_for(summaries, call, summary.workload.params))
    if summary.workload.globals:
        callee_global_sites.append((call, set(summary.workload.globals)))


def run_slice(
    fn: A.FunctionDef,
    summaries: "SummaryTable",
    snippet_ids: frozenset[int],
    region_ids: frozenset[int],
    values: list[A.Expr],
    seed: SliceResult,
    callee_global_sites: list[tuple[A.CallExpr, set[str]]] | None = None,
) -> SliceResult:
    """Run one slice over ``values`` (plus callee-global sites) and return
    the combined result."""
    ctx = SliceContext(
        fn=fn,
        reaching=summaries.reaching[fn.name],
        summaries=summaries,
        snippet_ids=snippet_ids,
        region_ids=region_ids,
    )
    slicer = Slicer(ctx)
    slicer.result.merge(seed)
    # Seeded globals (callee workload deps) are resolved at each call site.
    for site, globs in callee_global_sites or []:
        for gname in sorted(globs):
            slicer.trace_global_at(site, gname)
    for value in values:
        slicer.trace_expr(value)
    return slicer.result
