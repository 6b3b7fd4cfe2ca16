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

:data:`PASSES` lists the seven in this order, each with its inputs (earlier
passes only) and the config keys that change its output; :func:`run_passes`
walks the tuple once per compile, caching artifacts content-addressed, so a
change re-runs exactly the stages it invalidates.

The ``instrument`` pass never mutates the shared ``parse`` artifact: it
splices probes into a structural copy (``ast_nodes.clone_tree`` keeps node ids; the
probe nodes themselves are numbered deterministically past the tree's
maximum id), which is what makes the parse/identify artifacts safely
shareable across cached compilations.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Mapping

from repro.callgraph.graph import CallGraph, build_call_graph
from repro.callgraph.preprocess import PreprocessResult, preprocess_call_graph
from repro.frontend import ast_nodes as A
from repro.frontend.parser import parse_source
from repro.instrument.annotations import apply_annotations
from repro.instrument.rewrite import InstrumentedProgram, instrument_module
from repro.instrument.select import InstrumentationPlan, select_sensors
from repro.ir.lower import lower_module
from repro.obs import NULL_OBS, Obs
from repro.pipeline.artifacts import ArtifactStore, FingerprintError, digest, fingerprint
from repro.pipeline.profile import PassTiming, PipelineProfile
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


def _externs(config: Mapping[str, Any]):
    return config.get("externs") or default_extern_registry()


def _parse_pass(config) -> A.Module:
    return parse_source(config["source"], filename=config["filename"])


def _lower_pass(_config, module: A.Module):
    return lower_module(module)


def _cfa_pass(_config, ir) -> CfaArtifact:
    callgraph = build_call_graph(ir)
    return CfaArtifact(
        callgraph=callgraph,
        preprocess=preprocess_call_graph(callgraph),
        shapes=compute_function_shapes(ir),
    )


def _dataflow_pass(config, ir, cfa: CfaArtifact):
    return compute_summaries(ir, cfa.callgraph, cfa.preprocess, _externs(config))


def _identify_pass(
    config, module: A.Module, ir, cfa: CfaArtifact, summaries
) -> IdentificationResult:
    identifier = _Identifier(
        module,
        _externs(config),
        ir=ir,
        callgraph=cfa.callgraph,
        preprocess=cfa.preprocess,
        summaries=summaries,
        shapes=cfa.shapes,
    )
    result = identifier.run()
    static_rules = tuple(config.get("static_rules") or ())
    if static_rules:
        apply_static_rules(result, static_rules)
    return result


def _select_pass(config, ident: IdentificationResult) -> SelectionArtifact:
    annotations = config.get("annotations")
    view, exclusion_notes = ident, []
    if annotations is not None:
        view, exclusion_notes = apply_annotations(ident, annotations)
    plan = select_sensors(
        view,
        max_depth=config.get("max_depth", 3),
        min_estimated_work=config.get("min_estimated_work", 0.0),
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


def _instrument_pass(
    _config, parsed: A.Module, selection: SelectionArtifact
) -> InstrumentedProgram:
    module = A.clone_tree(parsed)
    # Probe nodes get deterministic ids just past the tree's own, keeping the
    # instrumented tree reproducible and its ids collision-free.
    with A.fresh_node_ids(start=_max_node_id(module) + 1):
        return instrument_module(module, selection.plan.selected)


@dataclasses.dataclass(frozen=True, slots=True)
class Pass:
    """One named compilation stage."""

    name: str
    #: earlier passes whose artifacts ``run`` takes, in this order
    inputs: tuple[str, ...]
    #: ``run(config, *input_artifacts) -> artifact``
    run: Callable[..., Any]
    #: config keys whose fingerprints feed this pass's cache key
    config_keys: tuple[str, ...] = ()


PASSES: tuple[Pass, ...] = (
    Pass("parse", (), _parse_pass),
    Pass("lower", ("parse",), _lower_pass),
    Pass("cfa", ("lower",), _cfa_pass),
    Pass("dataflow", ("lower", "cfa"), _dataflow_pass, ("externs",)),
    Pass(
        "identify",
        ("parse", "lower", "cfa", "dataflow"),
        _identify_pass,
        ("externs", "static_rules"),
    ),
    Pass(
        "select",
        ("identify",),
        _select_pass,
        ("max_depth", "min_estimated_work", "annotations"),
    ),
    Pass("instrument", ("parse", "select"), _instrument_pass),
)


def _cache_keys(config: Mapping[str, Any]) -> dict[str, str]:
    """Each pass's store key: a digest of the source, the fingerprints of
    its ``config_keys`` and its inputs' keys.  Raises
    :class:`FingerprintError` when a config value has no fingerprint."""
    source_digest = digest(config["source"], config["filename"])
    keys: dict[str, str] = {}
    for pass_ in PASSES:
        config_fp = ";".join(
            f"{k}={fingerprint(config.get(k))}" for k in pass_.config_keys
        )
        upstream = [keys[name] for name in pass_.inputs]
        keys[pass_.name] = f"{pass_.name}:" + digest(
            pass_.name, source_digest, config_fp, *upstream
        )
    return keys


def run_passes(
    config: Mapping[str, Any], store: ArtifactStore | None, obs: Obs = NULL_OBS
) -> tuple[dict[str, Any], PipelineProfile]:
    """Run :data:`PASSES` over one compile; returns ``(artifacts, profile)``.

    ``config`` holds the program (``source``, ``filename``) and the knobs.
    With a store, a pass whose key is stored is skipped.  A config value
    that cannot be fingerprinted disables caching for the whole compile
    (the reason is recorded on the profile) rather than risking a stale
    hit, so such a compile neither reads nor fills the store.  Each pass
    emits a ``pass.<name>`` span and a ``pipeline.cache_hits`` /
    ``pipeline.cache_misses`` count into ``obs``.
    """
    artifacts: dict[str, Any] = {}
    profile = PipelineProfile()
    keys: dict[str, str] = {}
    if store is not None:
        try:
            keys = _cache_keys(config)
        except FingerprintError as exc:
            store = None
            profile.cache_disabled_reason = str(exc)
    for pass_ in PASSES:
        key = keys.get(pass_.name)
        hit = False
        with obs.tracer.span(f"pass.{pass_.name}") as span:
            t0 = time.perf_counter()
            if key is not None:
                artifact, hit = store.get(key)
            if not hit:
                artifact = pass_.run(config, *(artifacts[name] for name in pass_.inputs))
                if key is not None:
                    store.put(key, artifact)
            elapsed = time.perf_counter() - t0
            span.set("cache_hit", hit)
        obs.metrics.counter(
            "pipeline.cache_hits" if hit else "pipeline.cache_misses"
        ).inc()
        artifacts[pass_.name] = artifact
        profile.timings.append(PassTiming(pass_.name, elapsed, hit))
    if store is None:
        profile.cache_enabled = False
        profile.cache_disabled_reason = profile.cache_disabled_reason or "no artifact store"
    return artifacts, profile


_DEFAULT_STORE: ArtifactStore | None = None


def default_store() -> ArtifactStore:
    """The process-wide artifact store ``compile_and_instrument`` defaults to."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore(capacity=256)
    return _DEFAULT_STORE
