"""``run_passes`` over ``PASSES``: the schedule, per-pass timing, and
content-keyed caching."""

import dataclasses

import pytest

import repro.pipeline.passes as passes_mod
from repro.pipeline import PASSES, ArtifactStore, run_passes
from repro.sensors import SensorType
from repro.sensors.rules import TypeFilterRule
from repro.workloads import get_workload

SOURCE = get_workload("CG").source(scale=1)
PASS_NAMES = ["parse", "identify", "select", "instrument"]


def run(store, source=SOURCE, **config):
    """``(artifacts, profile)`` of one run of the passes."""
    return run_passes({"source": source, "filename": "CG", **config}, store)


@pytest.fixture
def calls(monkeypatch):
    """Wrap every pass body to record the input artifacts of each call."""
    seen = {p.name: [] for p in PASSES}

    def recording(pass_):
        def body(config, *inputs):
            seen[pass_.name].append(inputs)
            return pass_.run(config, *inputs)

        return body

    monkeypatch.setattr(
        passes_mod,
        "PASSES",
        tuple(dataclasses.replace(p, run=recording(p)) for p in PASSES),
    )
    return seen


class TestOrdering:
    def test_linear_order(self):
        _, profile = run(None)
        assert [t.name for t in profile.timings] == [p.name for p in PASSES]

    def test_diamond_order_respects_registration_tiebreak(self):
        # identify reads parse: it runs after it, and the rest keep the
        # order they are written in
        assert [p.name for p in PASSES] == PASS_NAMES

    def test_unknown_input_rejected(self):
        names = {p.name for p in PASSES}
        for pass_ in PASSES:
            assert set(pass_.inputs) <= names, pass_.name

    def test_duplicate_registration_rejected(self):
        names = [p.name for p in PASSES]
        assert len(set(names)) == len(names)

    def test_cycle_detected(self):
        earlier: set[str] = set()
        for pass_ in PASSES:
            assert set(pass_.inputs) <= earlier, pass_.name
            earlier.add(pass_.name)


class TestExecution:
    def test_artifacts_and_inputs_flow(self, calls):
        artifacts, _ = run(None)
        for pass_ in PASSES:
            (inputs,) = calls[pass_.name]
            assert len(inputs) == len(pass_.inputs)
            for name, got in zip(pass_.inputs, inputs):
                assert got is artifacts[name], (pass_.name, name)

    def test_every_pass_timed(self):
        _, profile = run(ArtifactStore())
        assert [t.name for t in profile.timings] == PASS_NAMES
        assert all(t.seconds >= 0 for t in profile.timings)

    def test_no_store_marks_cache_disabled(self):
        _, profile = run(None)
        assert not profile.cache_enabled
        assert profile.cache_disabled_reason == "no artifact store"
        assert profile.misses == len(PASS_NAMES)


class TestCaching:
    def test_second_run_hits_without_reexecuting(self, calls):
        store = ArtifactStore()
        run(store)
        _, warm = run(store)
        assert warm.hits == len(PASS_NAMES) and warm.misses == 0
        assert all(len(seen) == 1 for seen in calls.values())

    def test_source_change_misses_everything(self):
        store = ArtifactStore()
        run(store)
        _, other = run(store, source=get_workload("FT").source(scale=1))
        assert other.misses == len(PASS_NAMES) and other.hits == 0

    def test_config_key_change_invalidates_pass_and_descendants_only(self):
        store = ArtifactStore()
        run(store, static_rules=[TypeFilterRule({SensorType.NETWORK})])
        _, turned = run(store, static_rules=[TypeFilterRule({SensorType.COMPUTATION})])
        outcome = {t.name: t.cache_hit for t in turned.timings}
        assert outcome == {
            "parse": True,
            "identify": False,
            "select": False,
            "instrument": False,
        }

    def test_unfingerprintable_config_disables_cache(self):
        class Opaque:
            """A static rule whose slotted state has no fingerprint."""

            __slots__ = ("x",)

            def __init__(self):
                self.x = 1

            def accepts(self, sensor, table):
                return True

        store = ArtifactStore()
        _, profile = run(store, static_rules=[Opaque()])
        assert not profile.cache_enabled
        assert "fingerprint" in profile.cache_disabled_reason
        assert len(store) == 0  # nothing was cached under a guessed key

    def test_targeted_invalidation_recomputes_only_that_pass(self, calls):
        store = ArtifactStore()
        run(store)
        store.invalidate_pass("identify")
        _, third = run(store)
        outcome = {t.name: t.cache_hit for t in third.timings}
        # identify recomputes, but its key (hence every later key) is unchanged
        assert outcome == {name: name != "identify" for name in PASS_NAMES}
        assert {name: len(seen) for name, seen in calls.items()} == {
            name: 2 if name == "identify" else 1 for name in PASS_NAMES
        }
