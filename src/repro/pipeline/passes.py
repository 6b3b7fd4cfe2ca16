"""The static module as named passes (paper steps 1–5).

=========== ==================================================== ==============
pass        does                                                 paper step
=========== ==================================================== ==============
parse       source text → AST (deterministic node ids)           1 (compile)
lower       AST → three-address IR with AST back-links           1 (compile)
cfa         call graph + recursion/pointer pruning + shapes      2a (call graph)
dataflow    use–def chains + bottom-up function summaries        2c (summaries)
identify    snippet enumeration, v-sensor predicate, rejections  2, 3 (identify)
select      scope / granularity / nesting rules + annotations    4 (selection)
instrument  Tick/Tock splicing into a copy of the parse tree     4, 5 (modify)
=========== ==================================================== ==============

Each pass declares its inputs and the config keys that change its output,
so the :class:`~repro.pipeline.manager.PassManager` can cache artifacts
content-addressed and re-run exactly the stages a change invalidates.

The ``instrument`` pass never mutates the shared ``parse`` artifact: it
splices probes into a structural copy (``ast_nodes.clone_tree`` keeps node ids; the
probe nodes themselves are numbered deterministically past the tree's
maximum id), which is what makes the parse/identify artifacts safely
shareable across cached compilations.
"""

from __future__ import annotations

import dataclasses

from repro.callgraph.graph import CallGraph, build_call_graph
from repro.callgraph.preprocess import PreprocessResult, preprocess_call_graph
from repro.diagnostics import Diagnostic, ReasonCode, Span, note
from repro.frontend import ast_nodes as A
from repro.frontend.parser import parse_source
from repro.instrument.rewrite import InstrumentedProgram, instrument_module
from repro.instrument.select import InstrumentationPlan, select_sensors
from repro.ir.lower import lower_module
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.context import CompilerContext
from repro.pipeline.manager import Pass, PassManager
from repro.sensors.asttools import FunctionShape
from repro.sensors.extern import default_extern_registry
from repro.sensors.identify import (
    IdentificationResult,
    _Identifier,
    apply_static_rules,
    compute_function_shapes,
)
from repro.sensors.summaries import compute_summaries


@dataclasses.dataclass(slots=True)
class CfaArtifact:
    """Output of the ``cfa`` pass: call-side control structure."""

    callgraph: CallGraph
    preprocess: PreprocessResult
    shapes: dict[str, FunctionShape]


@dataclasses.dataclass(slots=True)
class SelectionArtifact:
    """Output of the ``select`` pass.

    ``identification`` is the identify artifact, or an annotated view of it
    (same analyses, sensors list adjusted by manual include/exclude marks);
    the underlying identify artifact is never mutated.
    """

    identification: IdentificationResult
    plan: InstrumentationPlan


def _externs(ctx: CompilerContext):
    return ctx.config.get("externs") or default_extern_registry()


def _parse_pass(ctx: CompilerContext, _ins) -> A.Module:
    return parse_source(ctx.source, filename=ctx.filename)


def _lower_pass(_ctx: CompilerContext, ins):
    return lower_module(ins["parse"])


def _cfa_pass(_ctx: CompilerContext, ins) -> CfaArtifact:
    ir = ins["lower"]
    callgraph = build_call_graph(ir)
    return CfaArtifact(
        callgraph=callgraph,
        preprocess=preprocess_call_graph(callgraph),
        shapes=compute_function_shapes(ir),
    )


def _dataflow_pass(ctx: CompilerContext, ins):
    cfa = ins["cfa"]
    return compute_summaries(ins["lower"], cfa.callgraph, cfa.preprocess, _externs(ctx))


def _identify_pass(ctx: CompilerContext, ins) -> IdentificationResult:
    cfa = ins["cfa"]
    identifier = _Identifier(
        ins["parse"],
        _externs(ctx),
        entry=ctx.config.get("entry", "main"),
        ir=ins["lower"],
        callgraph=cfa.callgraph,
        preprocess=cfa.preprocess,
        summaries=ins["dataflow"],
        shapes=cfa.shapes,
    )
    result = identifier.run()
    static_rules = tuple(ctx.config.get("static_rules") or ())
    if static_rules:
        apply_static_rules(result, static_rules)
    return result


def _select_pass(ctx: CompilerContext, ins) -> SelectionArtifact:
    ident: IdentificationResult = ins["identify"]
    annotations = ctx.config.get("annotations")
    exclusion_notes: list[Diagnostic] = []
    view = ident
    if annotations is not None:
        kept = [s for s in ident.sensors if not annotations.is_excluded(s)]
        for sensor in ident.sensors:
            if annotations.is_excluded(sensor):
                exclusion_notes.append(
                    note(
                        ReasonCode.ANNOTATION_EXCLUDED,
                        f"{sensor.snippet.spelled} excluded by developer annotation",
                        span=Span.from_node(sensor.snippet.node),
                        origin="select",
                    )
                )
        kept.extend(annotations.forced_sensors(ident))
        view = dataclasses.replace(ident, sensors=kept)
    plan = select_sensors(
        view,
        max_depth=ctx.config.get("max_depth", 3),
        min_estimated_work=ctx.config.get("min_estimated_work", 0.0),
    )
    plan.diagnostics[:0] = exclusion_notes
    return SelectionArtifact(identification=view, plan=plan)


def _max_node_id(module: A.Module) -> int:
    highest = module.node_id
    for fn in module.functions:
        highest = max(highest, fn.node_id)
        for param in fn.params:
            highest = max(highest, param.node_id)
        if fn.body is not None:
            for stmt in A.walk_stmts(fn.body):
                highest = max(highest, stmt.node_id)
                for expr in A.walk_exprs(stmt):
                    highest = max(highest, expr.node_id)
    for g in module.globals:
        highest = max(highest, g.node_id)
        if g.init is not None:
            highest = max(highest, g.init.node_id)
    return highest


def _instrument_pass(_ctx: CompilerContext, ins) -> InstrumentedProgram:
    selection: SelectionArtifact = ins["select"]
    module = A.clone_tree(ins["parse"])
    # Probe nodes get deterministic ids just past the tree's own, keeping the
    # instrumented tree reproducible and its ids collision-free.
    with A.fresh_node_ids(start=_max_node_id(module) + 1):
        return instrument_module(module, selection.plan.selected)


def build_static_pass_manager() -> PassManager:
    """A fresh PassManager wired with the seven static passes."""
    manager = PassManager()
    manager.register(Pass(name="parse", inputs=(), run=_parse_pass))
    manager.register(Pass(name="lower", inputs=("parse",), run=_lower_pass))
    manager.register(Pass(name="cfa", inputs=("lower",), run=_cfa_pass))
    manager.register(
        Pass(
            name="dataflow",
            inputs=("lower", "cfa"),
            run=_dataflow_pass,
            config_keys=("externs",),
        )
    )
    manager.register(
        Pass(
            name="identify",
            inputs=("parse", "lower", "cfa", "dataflow"),
            run=_identify_pass,
            config_keys=("externs", "static_rules", "entry"),
        )
    )
    manager.register(
        Pass(
            name="select",
            inputs=("identify",),
            run=_select_pass,
            config_keys=("max_depth", "min_estimated_work", "annotations"),
        )
    )
    manager.register(
        Pass(name="instrument", inputs=("parse", "select"), run=_instrument_pass)
    )
    return manager


_STATIC_MANAGER: PassManager | None = None
_DEFAULT_STORE: ArtifactStore | None = None


def static_pass_manager() -> PassManager:
    """The shared, stateless manager instance for the static pipeline."""
    global _STATIC_MANAGER
    if _STATIC_MANAGER is None:
        _STATIC_MANAGER = build_static_pass_manager()
    return _STATIC_MANAGER


def default_store() -> ArtifactStore:
    """The process-wide artifact store ``compile_and_instrument`` defaults to."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore(capacity=256)
    return _DEFAULT_STORE
