"""The static pass pipeline: caching, determinism, bit-identical output."""

import copy

import pytest

from repro.api import compile_and_instrument
from repro.diagnostics import ReasonCode
from repro.frontend.parser import parse_source
from repro.frontend import ast_nodes as A
from repro.frontend.pretty import format_module
from repro.instrument.annotations import Annotations, SnippetRef
from repro.instrument.rewrite import instrument_module
from repro.pipeline import PASSES, ArtifactStore, run_passes
from repro.workloads import all_workloads, get_workload

SOURCE = get_workload("CG").source(scale=1)


def compile_with(store, source=SOURCE, **config):
    """``(artifacts, profile)`` of one run of the passes."""
    return run_passes({"source": source, "filename": "CG", **config}, store)


class OpaqueDepthRule:
    """A static rule whose slotted state has no fingerprint."""

    __slots__ = ("max_depth",)

    def __init__(self, max_depth):
        self.max_depth = max_depth

    def accepts(self, sensor, table):
        return sensor.snippet.depth < self.max_depth


def all_nodes(module):
    nodes = [module]
    for fn in module.functions:
        nodes.append(fn)
        nodes.extend(fn.params)
        if fn.body is not None:
            for stmt in A.walk_stmts(fn.body):
                nodes.append(stmt)
                nodes.extend(A.walk_exprs(stmt))
    for g in module.globals:
        nodes.append(g)
        if g.init is not None:
            nodes.extend(A.walk_exprs(g.init))
    return nodes


def all_node_ids(module):
    ids = [module.node_id]
    for fn in module.functions:
        ids.append(fn.node_id)
        ids.extend(p.node_id for p in fn.params)
        if fn.body is not None:
            for stmt in A.walk_stmts(fn.body):
                ids.append(stmt.node_id)
                ids.extend(e.node_id for e in A.walk_exprs(stmt))
    for g in module.globals:
        ids.append(g.node_id)
    return sorted(ids)


class TestCaching:
    def test_cold_then_warm(self):
        store = ArtifactStore()
        _, cold = compile_with(store)
        _, warm = compile_with(store)
        assert cold.misses == len(PASSES) and cold.hits == 0
        assert warm.hits == len(PASSES) and warm.misses == 0

    def test_warm_output_bit_identical_to_uncached(self):
        store = ArtifactStore()
        compile_with(store)
        warm, _ = compile_with(store)
        fresh, _ = compile_with(None)
        warm_prog = warm["instrument"]
        fresh_prog = fresh["instrument"]
        assert warm_prog.source == fresh_prog.source
        assert sorted(warm_prog.sensors) == sorted(fresh_prog.sensors)

    def test_max_depth_change_recomputes_select_and_instrument_only(self):
        store = ArtifactStore()
        compile_with(store, max_depth=3)
        _, turned = compile_with(store, max_depth=1)
        outcome = {t.name: t.cache_hit for t in turned.timings}
        assert outcome == {
            "parse": True,
            "identify": True,
            "select": False,
            "instrument": False,
        }

    def test_mid_pipeline_invalidation_keeps_downstream_hits(self):
        store = ArtifactStore()
        before, _ = compile_with(store)
        store.invalidate_pass("identify")
        after, profile = compile_with(store)
        outcome = {t.name: t.cache_hit for t in profile.timings}
        # identify recomputes; its key is unchanged, so downstream still hits
        assert outcome == {
            "parse": True,
            "identify": False,
            "select": True,
            "instrument": True,
        }
        assert after["instrument"].source == before["instrument"].source


class TestDeterminism:
    def test_node_ids_deterministic_across_parses(self):
        first = parse_source(SOURCE, filename="CG")
        second = parse_source(SOURCE, filename="CG")
        assert all_node_ids(first) == all_node_ids(second)
        assert min(all_node_ids(first)) == 1

    def test_instrumented_copy_leaves_parse_artifact_pristine(self):
        store = ArtifactStore()
        artifacts, _ = compile_with(store)
        parsed = artifacts["parse"]
        instrumented = artifacts["instrument"].module
        assert instrumented is not parsed
        from repro.frontend.pretty import format_module

        assert "vs_tick" in format_module(instrumented)
        assert "vs_tick" not in format_module(parsed)

    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_structural_clone_instruments_like_a_deep_copy(self, name):
        artifacts, _ = compile_with(None, source=all_workloads()[name].source())
        parsed = artifacts["parse"]
        got = artifacts["instrument"]
        with A.fresh_node_ids(start=max(n.node_id for n in all_nodes(parsed)) + 1):
            want = instrument_module(
                copy.deepcopy(parsed), artifacts["select"].plan.selected
            )
        assert format_module(got.module) == format_module(want.module)
        assert [n.node_id for n in all_nodes(got.module)] == [
            n.node_id for n in all_nodes(want.module)
        ]
        assert got.sensors == want.sensors
        assert not {id(n) for n in all_nodes(parsed)} & {id(n) for n in all_nodes(got.module)}


class TestApiIntegration:
    def test_default_store_shares_across_calls(self):
        first = compile_and_instrument(SOURCE, filename="CG-api-share")
        second = compile_and_instrument(SOURCE, filename="CG-api-share")
        assert second.profile.hits == len(PASSES)
        assert first.source == second.source

    def test_store_none_disables_cache(self):
        static = compile_and_instrument(SOURCE, store=None)
        assert not static.profile.cache_enabled
        assert static.profile.misses == len(PASSES)

    def test_store_none_records_its_reason(self):
        static = compile_and_instrument(SOURCE, store=None)
        assert static.profile.cache_disabled_reason == "no artifact store"
        assert "(cache disabled: no artifact store)" in static.profile.format_table()

    def test_unfingerprintable_static_rule_disables_caching(self):
        store = ArtifactStore()
        rules = [OpaqueDepthRule(1)]
        cached = compile_and_instrument(SOURCE, store=store, static_rules=rules)
        uncached = compile_and_instrument(SOURCE, store=None, static_rules=rules)
        assert not cached.profile.cache_enabled and cached.profile.misses == len(PASSES)
        assert "fingerprint" in cached.profile.cache_disabled_reason
        assert len(store) == 0  # nothing was stored under a guessed key
        assert ReasonCode.STATIC_RULE_VETO in {d.code for d in cached.diagnostics}
        assert cached.source == uncached.source
        assert sorted(cached.program.sensors) == sorted(uncached.program.sensors)
        assert [d.code for d in cached.diagnostics] == [d.code for d in uncached.diagnostics]

    def test_diagnostics_aggregated_with_provenance(self):
        static = compile_and_instrument(SOURCE, store=None)
        origins = {d.origin for d in static.diagnostics}
        assert "identify" in origins and "select" in origins
        assert all(isinstance(d.code, ReasonCode) for d in static.diagnostics)

    def test_annotation_exclusion_does_not_mutate_cached_identify(self):
        store = ArtifactStore()
        plain = compile_and_instrument(SOURCE, filename="CG-ann", store=store)
        target = plain.identification.sensors[0]
        excluded = compile_and_instrument(
            SOURCE,
            filename="CG-ann",
            store=store,
            annotations=Annotations(
                exclude=[SnippetRef(function=target.function, line=target.loc.line)]
            ),
        )
        assert ReasonCode.ANNOTATION_EXCLUDED in {
            d.code for d in excluded.plan.diagnostics
        }
        # identify was a cache hit and its sensor list must be intact
        again = compile_and_instrument(SOURCE, filename="CG-ann", store=store)
        assert len(again.identification.sensors) == len(plain.identification.sensors)
