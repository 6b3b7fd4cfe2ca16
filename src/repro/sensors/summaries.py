"""Bottom-up function summaries over the preprocessed call graph (§3.3, §3.5).

For each function, three facts are summarized so that callers can be
analyzed without re-visiting callee bodies:

* **workload** — which of the function's parameters / globals determine its
  total quantity of work (plus rank / non-fixed poison markers);
* **ret** — what the return value depends on;
* **mods** — which globals the function may modify, transitively.

Functions pruned from the call graph (recursive, address-taken) and
undescribed externs are *never-fixed*: callers treat any call to them as
disqualifying (§3.5's conservative default).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.callgraph import CallGraph, PreprocessResult
from repro.diagnostics import ReasonCode
from repro.frontend import ast_nodes as A
from repro.sensors.asttools import FunctionShape
from repro.sensors.extern import RET_RANK, ExternModel, ExternRegistry
from repro.sensors.model import FunctionSummary, SliceResult
from repro.sensors.reaching import ReachingDefinitions, compute_reaching_definitions


@dataclass(slots=True)
class SummaryTable:
    """All function summaries plus shared lookups used by the slicer."""

    externs: ExternRegistry
    shapes: dict[str, FunctionShape]
    callgraph: CallGraph
    summaries: dict[str, FunctionSummary] = field(default_factory=dict)
    reaching: dict[str, ReachingDefinitions] = field(default_factory=dict)
    #: functions whose address is taken (possible indirect-call targets)
    pointer_targets: set[str] = field(default_factory=set)
    globals: set[str] = field(default_factory=set)

    def function(self, name: str) -> A.FunctionDef | None:
        shape = self.shapes.get(name)
        return shape.fn if shape is not None else None

    def is_indirect(self, call: A.CallExpr) -> bool:
        site = self.callgraph.site_of.get(call.node_id)
        return site is not None and site.kind == "indirect"

    def extern_model(self, name: str) -> ExternModel | None:
        if name in self.shapes:
            return None
        return self.externs.lookup(name)

    def for_call(self, call: A.CallExpr) -> FunctionSummary | None:
        """Summary for a call's callee; None for undescribed externs and
        indirect calls (= never analyzable)."""
        if self.is_indirect(call):
            return None
        name = call.callee
        if name in self.summaries:
            return self.summaries[name]
        model = self.extern_model(name)
        if model is None:
            return None
        return self._extern_summary(model)

    def _extern_summary(self, model: ExternModel) -> FunctionSummary:
        summary = FunctionSummary(name=model.name)
        # Extern workload depends on its workload args (expressed via
        # synthetic parameter names arg0..argN) — callers map them by index.
        for idx in model.workload_args:
            summary.workload.params.add(f"arg{idx}")
        if model.ret == RET_RANK:
            summary.ret.rank = True
        summary.contains_net = model.category == "net"
        summary.contains_io = model.category == "io"
        return summary

    def call_mod_set(self, call: A.CallExpr) -> set[str]:
        """Globals a call may modify (drives reaching-def may-defs)."""
        if self.is_indirect(call):
            # Could land in any address-taken function; if none are known,
            # fall back to every global.
            if self.pointer_targets:
                mods: set[str] = set()
                for name in self.pointer_targets:
                    summary = self.summaries.get(name)
                    mods |= summary.mods if summary is not None else self.globals
                return mods
            return set(self.globals)
        summary = self.summaries.get(call.callee)
        if summary is not None:
            return set(summary.mods)
        # Externs cannot write program globals in this closed language.
        return set()


def compute_summaries(
    module: A.Module,
    shapes: dict[str, FunctionShape],
    cg: CallGraph,
    prep: PreprocessResult,
    externs: ExternRegistry,
) -> SummaryTable:
    """Compute summaries in callee-first order (workflow step 2a+2c)."""
    table = SummaryTable(
        externs=externs,
        shapes=shapes,
        callgraph=cg,
        pointer_targets=set(prep.pointer_targets),
        globals=module.global_names(),
    )
    _compute_mod_sets(table, prep)
    _compute_category_flags(table)

    # Reaching definitions are solved after mod sets exist, since calls act
    # as may-definitions of the globals their callee modifies.
    for name, shape in shapes.items():
        table.reaching[name] = compute_reaching_definitions(
            shape.fn, table.globals, call_mods=table.call_mod_set
        )

    never_fixed = prep.never_fixed()
    for name in prep.order:
        summary = table.summaries[name]
        if name in never_fixed:
            summary.never_fixed = True
            summary.workload.fail(
                "recursive or address-taken function",
                code=ReasonCode.RECURSIVE_FUNCTION, nonfixed=True,
            )
            summary.ret.fail(
                "recursive or address-taken function",
                code=ReasonCode.RECURSIVE_FUNCTION, nonfixed=True,
            )
            continue
        _summarize_workload(table, shapes[name], summary)
        _summarize_return(table, shapes[name], summary)

    return table


def _compute_mod_sets(table: SummaryTable, prep: PreprocessResult) -> None:
    """Fixpoint over direct stores + callee mods (cycles converge)."""
    callees: dict[str, set[str]] = {}
    result: dict[str, set[str]] = {}
    for name, shape in table.shapes.items():
        table.summaries[name] = FunctionSummary(name=name)
        result[name] = {
            _target_name(node) for node in shape.live
            if isinstance(node, (A.Assign, A.VarDecl)) and _target_name(node) in table.globals
        }
        callees[name] = set(table.callgraph.graph[name])
        if any(table.is_indirect(call) for call in shape.live_calls()):
            # An indirect call may reach any address-taken function.
            callees[name] |= prep.pointer_targets
    changed = True
    while changed:
        changed = False
        for name in table.shapes:
            merged = set(result[name])
            for callee in callees[name]:
                merged |= result.get(callee, table.globals)
            if merged != result[name]:
                result[name] = merged
                changed = True
    for name, mods in result.items():
        table.summaries[name].mods = mods


def _target_name(node: A.Assign | A.VarDecl) -> str:
    return node.target.name if isinstance(node, A.Assign) else node.name


def _compute_category_flags(table: SummaryTable) -> None:
    """Propagate contains_net / contains_io bottom-up (fixpoint)."""
    changed = True
    while changed:
        changed = False
        for name, shape in table.shapes.items():
            summary = table.summaries[name]
            net, io = summary.contains_net, summary.contains_io
            for call in shape.live_calls():
                if table.is_indirect(call):
                    continue
                callee_summary = table.summaries.get(call.callee)
                if callee_summary is not None:
                    net |= callee_summary.contains_net
                    io |= callee_summary.contains_io
                else:
                    model = table.externs.lookup(call.callee)
                    if model is not None:
                        net |= model.category == "net"
                        io |= model.category == "io"
            if (net, io) != (summary.contains_net, summary.contains_io):
                summary.contains_net, summary.contains_io = net, io
                changed = True


def _summarize_workload(table: SummaryTable, shape: FunctionShape, summary: FunctionSummary) -> None:
    """Whole-function workload inputs, expressed over params/globals."""
    from repro.sensors.slicer import run_slice, workload_inputs

    if shape.fn.body is None:
        return
    body_ids = shape.body_ids
    values, seed, callee_sites = workload_inputs(shape, body_ids, table)
    summary.workload = run_slice(
        shape.fn,
        table,
        snippet_ids=body_ids,
        region_ids=body_ids,
        values=values,
        seed=seed,
        callee_global_sites=callee_sites,
    )


def _summarize_return(table: SummaryTable, shape: FunctionShape, summary: FunctionSummary) -> None:
    """What the return value depends on."""
    from repro.sensors.slicer import run_slice

    if shape.fn.body is None:
        return
    values = [
        node.value for node in shape.live
        if isinstance(node, A.ReturnStmt) and node.value is not None
    ]
    summary.ret = run_slice(
        shape.fn,
        table,
        snippet_ids=shape.body_ids,
        region_ids=shape.body_ids,
        values=values,
        seed=SliceResult(),
    )
