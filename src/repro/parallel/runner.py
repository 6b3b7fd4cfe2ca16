"""Parallel phase-1 of the multi-job runner: simulate jobs in processes.

:func:`~repro.api.run_multi_job` has four phases; only phase 1 (compile
+ simulate every job, recording timed batch sends) is CPU-bound per job
and embarrassingly parallel — phases 2–4 (globally time-ordered replay
through the sharded service, quiescence drive, per-job reports) are a
deterministic function of phase 1's outputs.  So phase 1 is one list of
:class:`JobTask` mapped through :func:`simulate_job` — in-process, or on
the deterministic :class:`~repro.parallel.pool.WorkerPool`, where
:func:`_simulate_remote` runs it with a null obs bundle (observability is
behaviour-neutral, so the results are bit-identical to an instrumented
in-process run) and ships back ``(sim, runtime)``: the compile stays in
the worker, and the recorder at ``runtime.server`` holds its batches as
views of the detector log that rides along in ``runtime.detector``.  The
parent compiles each distinct program once through its own store and
points ``runtime.sensors`` at that compile's sensors.  Phases 2–4 run in
the parent exactly as for ``workers=1``, over rows that crossed the pool
unchanged, which is what makes ``workers=N`` bit-identical to
``workers=1`` by construction.  A worker compiles against its own
process-default artifact store, which lives as long as the pool: one
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api import _BatchRecorder, _DEFAULT_STORE, simulate_instrumented
from repro.obs import NULL_OBS, Obs
from repro.parallel.pool import WorkerPool
from repro.runtime.detector import DetectorConfig


@dataclass(slots=True)
class JobTask:
    """One phase-1 unit of work, picklable for the pool hop."""

    job_id: int
    source: str
    machine: object
    faults: tuple
    detector: DetectorConfig | None
    rule: object | None
    engine: str
    max_depth: int
    batch_period_us: float


def simulate_job(task: JobTask, store=_DEFAULT_STORE, obs: Obs | None = None):
    """Run one job's compile + simulate phase.

    One :func:`~repro.api.simulate_instrumented` call recording timed
    batch sends.  A pool worker calls it with the task alone, through
    :func:`_simulate_remote` (it compiles against its process-default
    store and runs null-obs);
    :func:`~repro.api.run_multi_job`'s in-process loop passes its
    per-call ``store`` and ``obs``.  Returns ``(static, sim, runtime)``
    with the recorder at ``runtime.server`` and
    ``runtime.sensors is static.program.sensors``.
    """
    return simulate_instrumented(
        task.source,
        task.machine,
        _BatchRecorder(task.batch_period_us),
        faults=task.faults,
        max_depth=task.max_depth,
        detector=task.detector,
        rule=task.rule,
        engine=task.engine,
        store=store,
        obs=obs,
        job=task.job_id,
    )


def _simulate_remote(task: JobTask):
    """The pool's task function: :func:`simulate_job` in a worker, which
    ships back ``(sim, runtime)`` and leaves the compile behind."""
    _static, sim, runtime = simulate_job(task)
    return sim, runtime


def simulate_jobs_parallel(
    tasks: Sequence[JobTask],
    workers: int,
    *,
    obs: Obs | None = None,
    max_restarts: int = 2,
) -> list:
    """Fan phase-1 tasks out to ``workers`` processes; results in order.

    Each result is the ``(sim, runtime)`` pair of the task at the same
    index (see :func:`_simulate_remote`).  Placement, replay and result
    ordering come from the deterministic pool, so the caller's downstream
    phases see the exact sequence an in-process loop would have produced.
    """
    obs = obs or NULL_OBS
    with obs.tracer.span("parallel.phase1", jobs=len(tasks), workers=workers):
        with WorkerPool(
            workers, _simulate_remote, obs=obs, max_restarts=max_restarts
        ) as pool:
            return pool.run(list(tasks))
