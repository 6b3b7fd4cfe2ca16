"""Parallel multi-job runner: ``workers=N`` is bit-identical to serial.

Only phase 1 (compile + simulate, independent per job) fans out to the
process pool; the time-ordered replay, back-pressure drive and merged
per-job reports are a deterministic function of its outputs.  So the
whole :func:`~repro.api.run_multi_job` result — matrices, regions,
inter-process events, coverage confidence, channel counters — must be
identical for any worker count.  ``run_vsensor``, an in-process
``simulate_job`` and a pool worker all go through the one
``simulate_instrumented`` path, so their detector sides must agree too.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.api import JobSpec, run_multi_job, run_vsensor
from repro.errors import ReproError
from repro.obs import Obs
from repro.parallel import JobTask, WorkerPool, simulate_job, simulate_jobs_parallel
from repro.runtime.channel import ChannelConfig
from repro.runtime.server import AnalysisServer
from repro.runtime.transport import RetryPolicy
from repro.sim import MachineConfig
from repro.sim.faults import CpuContention
from tests.conftest import SIMPLE_MPI_PROGRAM, detector_state


def _machine(seed: int) -> MachineConfig:
    return MachineConfig(n_ranks=4, ranks_per_node=2, seed=seed)


def _specs(span: float) -> list[JobSpec]:
    faults = [
        CpuContention(node_ids=(1,), t0=0.2 * span, t1=0.7 * span, cpu_factor=0.3)
    ]
    return [
        JobSpec(SIMPLE_MPI_PROGRAM, _machine(11), faults=faults),
        JobSpec(
            SIMPLE_MPI_PROGRAM,
            _machine(23),
            channel=ChannelConfig(drop_rate=0.1, dup_rate=0.1, seed=5),
            retry_policy=RetryPolicy(timeout_us=span / 50, max_attempts=30),
        ),
        JobSpec(SIMPLE_MPI_PROGRAM, _machine(47)),
    ]


def _kwargs(span: float) -> dict:
    return dict(n_shards=3, window_us=span / 10, batch_period_us=span / 10, store=None)


def _assert_runs_identical(a, b) -> None:
    assert set(a.jobs) == set(b.jobs)
    for job_id in a.jobs:
        ra, rb = a.jobs[job_id].report, b.jobs[job_id].report
        assert set(ra.matrices) == set(rb.matrices)
        for stype in ra.matrices:
            assert np.array_equal(
                ra.matrices[stype], rb.matrices[stype], equal_nan=True
            ), f"job {job_id} {stype} matrix differs from the serial run"
        for stype in ra.rank_means:
            assert np.array_equal(
                ra.rank_means[stype], rb.rank_means[stype], equal_nan=True
            )
        assert ra.regions == rb.regions
        assert ra.inter_events == rb.inter_events
        assert ra.coverage_confidence == rb.coverage_confidence
        assert ra.degraded_ranks == rb.degraded_ranks
        assert ra.duplicate_batches == rb.duplicate_batches
        assert a.jobs[job_id].channel_stats == b.jobs[job_id].channel_stats
        assert a.jobs[job_id].sim.total_time == b.jobs[job_id].sim.total_time


def _span() -> float:
    return run_vsensor(SIMPLE_MPI_PROGRAM, _machine(11), store=None).sim.total_time


def test_worker_pool_run_is_bit_identical_to_serial():
    span = _span()
    specs = _specs(span)
    kw = _kwargs(span)
    serial = run_multi_job(specs, **kw)
    fanned = run_multi_job(specs, workers=2, **kw)
    assert multiprocessing.active_children() == []
    _assert_runs_identical(serial, fanned)
    # More workers than jobs is fine (idle workers never dispatch).
    wide = run_multi_job(specs, workers=5, **kw)
    _assert_runs_identical(serial, wide)


def test_shard_processes_true_is_rejected():
    spec = JobSpec(SIMPLE_MPI_PROGRAM, _machine(11))
    with pytest.raises(ReproError, match="process-backed shards were removed"):
        run_multi_job([spec], shard_processes=True, store=None)
    run_multi_job([spec], shard_processes=False, store=None)  # pinned callers


def test_three_callers_share_one_simulate_path():
    machine = _machine(11)
    span = _span()
    faults = (CpuContention(node_ids=(1,), t0=0.2 * span, t1=0.7 * span, cpu_factor=0.3),)
    direct = run_vsensor(
        SIMPLE_MPI_PROGRAM, machine, faults=faults, window_us=span / 10,
        batch_period_us=span / 10, store=None,
    )
    expected = detector_state(direct.runtime, direct.sim)
    task = JobTask(
        job_id=7, source=SIMPLE_MPI_PROGRAM, machine=machine, faults=faults,
        detector=None, rule=None, engine="bytecode", max_depth=3,
        batch_period_us=span / 10,
    )
    obs = Obs.create()
    in_process = simulate_job(task, store=None, obs=obs)
    with WorkerPool(2, simulate_job) as pool:
        (pooled,) = pool.run([task])
    for _static, sim, runtime in (in_process, pooled):
        assert detector_state(runtime, sim) == expected
        # The recorded batches, re-ingested, are run_vsensor's matrices.
        server = AnalysisServer(
            n_ranks=machine.n_ranks, window_us=span / 10, batch_period_us=span / 10
        )
        for _now, rank, rows in runtime.server.events:
            server.receive_batch(rank, rows)
        for stype, matrix in direct.report.matrices.items():
            assert server.performance_matrix(stype).tobytes() == matrix.tobytes()
    spans = [s for s in obs.tracer.records() if s.name == "vsensor.simulate"]
    assert [s.attrs["job"] for s in spans] == [7]


def test_simulate_jobs_parallel_matches_direct_calls():
    span = _span()
    tasks = [
        JobTask(
            job_id=job_id,
            source=SIMPLE_MPI_PROGRAM,
            machine=_machine(seed),
            faults=(),
            detector=None,
            rule=None,
            engine="bytecode",
            max_depth=3,
            batch_period_us=span / 10,
        )
        for job_id, seed in ((0, 11), (1, 23))
    ]
    direct = [simulate_job(task) for task in tasks]
    pooled = simulate_jobs_parallel(tasks, 2, obs=None, max_restarts=2)
    assert len(pooled) == len(direct)
    for (_, sim_d, run_d), (sim_p, run_p) in zip(direct, pooled):
        assert sim_d.total_time == sim_p.total_time
        assert run_d.server.events == run_p.server.events
