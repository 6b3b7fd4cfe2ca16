"""Multi-job fault injection: tenants do not perturb each other.

Two flavors of isolation, both stated as bit-identity against solo runs
through the same sharded service path:

* a tenant whose transport degrades (lossy channel + exhausted retries)
  must not change a co-resident faulted tenant's matrices, regions,
  F-score, or coverage confidence;
* two lossy-but-recovering tenants (drop 10–30%, ample retries) each
  produce exactly the report they would have produced alone, down to
  the channel counters.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api import JobSpec, run_multi_job, run_vsensor
from repro.errors import ReproError
from repro.runtime.channel import ChannelConfig, LossyChannel
from repro.runtime.quality import score_detection
from repro.runtime.transport import RetryPolicy
from repro.sensors.model import SensorType
from repro.sim import MachineConfig
from repro.sim.faults import CpuContention
from tests.conftest import SIMPLE_MPI_PROGRAM


def _machine(seed: int) -> MachineConfig:
    return MachineConfig(n_ranks=4, ranks_per_node=2, seed=seed)


@pytest.fixture(scope="module")
def span() -> float:
    probe = run_vsensor(SIMPLE_MPI_PROGRAM, _machine(11), store=None)
    return probe.sim.total_time


def _run_kwargs(span: float) -> dict:
    return dict(
        n_shards=3,
        window_us=span / 10,
        batch_period_us=span / 10,
        store=None,
    )


def _assert_reports_identical(a, b) -> None:
    assert set(a.matrices) == set(b.matrices)
    for stype in a.matrices:
        assert np.array_equal(
            a.matrices[stype], b.matrices[stype], equal_nan=True
        ), f"{stype} matrix differs between solo and combined runs"
    assert set(a.rank_means) == set(b.rank_means)
    for stype in a.rank_means:
        assert np.array_equal(
            a.rank_means[stype], b.rank_means[stype], equal_nan=True
        )
    assert a.regions == b.regions
    assert a.inter_events == b.inter_events
    assert a.coverage_confidence == b.coverage_confidence
    assert a.degraded_ranks == b.degraded_ranks
    assert a.duplicate_batches == b.duplicate_batches


def test_degraded_tenant_does_not_perturb_faulted_tenant(span):
    machine_a = _machine(11)
    faults = [
        CpuContention(node_ids=(1,), t0=0.2 * span, t1=0.6 * span, cpu_factor=0.25)
    ]
    spec_a = JobSpec(SIMPLE_MPI_PROGRAM, machine_a, faults=faults)
    # Tenant B: 30% drop and a single send attempt per batch — its ranks
    # are guaranteed to exhaust retries and be marked degraded.
    spec_b = JobSpec(
        SIMPLE_MPI_PROGRAM,
        _machine(23),
        channel=ChannelConfig(drop_rate=0.3, dup_rate=0.1, reorder_rate=0.2, seed=7),
        retry_policy=RetryPolicy(timeout_us=span / 50, max_attempts=1),
    )
    kw = _run_kwargs(span)
    solo = run_multi_job([spec_a], **kw)
    combined = run_multi_job([spec_a, spec_b], **kw)

    # B really is a degraded tenant in the combined run.
    report_b = combined.jobs[1].report
    assert combined.jobs[1].channel_stats["dropped"] > 0
    assert report_b.degraded_ranks != ()

    # A's entire analysis is unchanged by B's presence and damage.
    report_solo = solo.jobs[0].report
    report_combined = combined.jobs[0].report
    _assert_reports_identical(report_solo, report_combined)

    score_solo = score_detection(report_solo, faults, machine_a)
    score_combined = score_detection(report_combined, faults, machine_a)
    assert score_combined.f_score == score_solo.f_score
    assert score_combined.recall == score_solo.recall
    assert score_combined.f_score > 0.0  # the fault was actually found


def test_lossy_tenants_each_match_their_solo_reports(span):
    """Two tenants on 10% and 30% lossy channels with ample retries:
    the transport recovers everything and each job's combined-run report
    is bit-identical to its solo run — including the channel counters."""
    policy = RetryPolicy(timeout_us=span / 50, max_attempts=30)
    spec_a = JobSpec(
        SIMPLE_MPI_PROGRAM,
        _machine(31),
        channel=ChannelConfig(drop_rate=0.1, dup_rate=0.1, reorder_rate=0.3, seed=5),
        retry_policy=policy,
    )
    spec_b = JobSpec(
        SIMPLE_MPI_PROGRAM,
        _machine(47),
        channel=ChannelConfig(drop_rate=0.3, dup_rate=0.05, reorder_rate=0.2, seed=9),
        retry_policy=policy,
    )
    kw = _run_kwargs(span)
    solo_a = run_multi_job([spec_a], **kw)
    solo_b = run_multi_job([spec_b], **kw)
    combined = run_multi_job([spec_a, spec_b], **kw)

    for job_id, solo in ((0, solo_a), (1, solo_b)):
        solo_run = solo.jobs[0]
        combined_run = combined.jobs[job_id]
        _assert_reports_identical(solo_run.report, combined_run.report)
        assert combined_run.channel_stats == solo_run.channel_stats
        # Loss actually happened and was repaired, not avoided.
        assert combined_run.channel_stats["dropped"] > 0
        assert combined_run.report.degraded_ranks == ()
        assert combined_run.report.coverage_confidence == pytest.approx(
            solo_run.report.coverage_confidence
        )


def test_clean_tenant_sees_no_variance_from_neighbor_fault(span):
    """A clean tenant sharing shards with a heavily faulted tenant must
    report the same (empty) inter-process picture as when alone."""
    faults = [
        CpuContention(node_ids=(0, 1), t0=0.1 * span, t1=0.9 * span, cpu_factor=0.1)
    ]
    spec_faulted = JobSpec(SIMPLE_MPI_PROGRAM, _machine(61), faults=faults)
    spec_clean = JobSpec(SIMPLE_MPI_PROGRAM, _machine(71))
    kw = _run_kwargs(span)
    solo_clean = run_multi_job([spec_clean], **kw)
    combined = run_multi_job([spec_faulted, spec_clean], **kw)
    _assert_reports_identical(solo_clean.jobs[0].report, combined.jobs[1].report)
    clean_score = score_detection(
        combined.jobs[1].report, [], _machine(71)
    )
    assert clean_score.precision == 1.0  # nothing spurious leaked across tenants


def test_two_jobs_on_one_channel_object_are_refused(span):
    """A ``LossyChannel`` hands every due envelope to whichever transport
    pumps it, so two jobs sharing one would cross-deliver (the second job
    silently stored 136 of its 360 summaries); the run must refuse it up
    front and name both tenants."""
    shared = LossyChannel(config=ChannelConfig(delay_us=50.0))
    specs = [
        JobSpec(SIMPLE_MPI_PROGRAM, _machine(seed), job_id=job_id, channel=shared)
        for job_id, seed in ((3, 11), (8, 23))
    ]
    with pytest.raises(ReproError, match=r"jobs 3 and 8 share one channel"):
        run_multi_job(specs, **_run_kwargs(span))
    # The same fault model given as a config builds one channel per job.
    own = [replace(spec, channel=ChannelConfig(delay_us=50.0)) for spec in specs]
    combined = run_multi_job(own, **_run_kwargs(span))
    for job_run in combined.jobs.values():
        assert job_run.report.degraded_ranks == ()
        assert job_run.runtime.server.stored_summaries == sum(
            len(d.summaries) for d in job_run.runtime.detectors.values()
        )
