"""Cache transparency property (hypothesis).

For arbitrary (workload, config) pairs, compiling through a warm artifact
cache must be *bit-identical* to a fresh uncached compile — emitted source,
sensor registry, and selection plan alike — including after targeted
invalidation of a mid-pipeline artifact (which forces that stage to
recompute while everything downstream of it stays cached).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.api import compile_and_instrument
from repro.pipeline import PASSES, ArtifactStore
from repro.workloads import all_workloads

WORKLOADS = sorted(all_workloads())
MID_PASSES = ["identify", "select"]

configs = st.fixed_dictionaries(
    {
        "max_depth": st.integers(min_value=1, max_value=4),
        "min_estimated_work": st.sampled_from([0.0, 50.0]),
    }
)


def signature(static):
    return (
        static.source,
        sorted(static.program.sensors),
        sorted(s.sensor_id for s in static.plan.selected),
        [(d.code, str(d.span)) for d in static.diagnostics],
    )


@settings(max_examples=12, deadline=None)
@given(workload=st.sampled_from(WORKLOADS), config=configs)
def test_warm_cache_bit_identical_to_fresh(workload, config):
    source = all_workloads()[workload].source(scale=1)
    store = ArtifactStore()
    compile_and_instrument(source, filename=workload, store=store, **config)
    warm = compile_and_instrument(source, filename=workload, store=store, **config)
    fresh = compile_and_instrument(source, filename=workload, store=None, **config)
    assert warm.profile.hits == len(PASSES)
    assert signature(warm) == signature(fresh)


@settings(max_examples=10, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    config=configs,
    victim=st.sampled_from(MID_PASSES),
)
def test_invalidated_mid_pipeline_artifact_recomputes_identically(
    workload, config, victim
):
    source = all_workloads()[workload].source(scale=1)
    store = ArtifactStore()
    baseline = compile_and_instrument(source, filename=workload, store=store, **config)
    store.invalidate_pass(victim)
    recomputed = compile_and_instrument(
        source, filename=workload, store=store, **config
    )
    outcome = {t.name: t.cache_hit for t in recomputed.profile.timings}
    assert outcome[victim] is False
    # keys derive from upstream keys, so everything downstream still hits
    downstream = recomputed.profile.timings[
        [t.name for t in recomputed.profile.timings].index(victim) + 1 :
    ]
    assert all(t.cache_hit for t in downstream)
    assert signature(recomputed) == signature(baseline)
