"""One operation per workload, its outputs' digests and detection scores.

An operation is what a user waits for between "submit" and "report": the
``wide_*`` and ``tenants_*`` operations go through ``repro.api``, the
``replay_*`` operations drive the analysis-server side directly from a
recorded batch timeline.  Operations call the system through module
attributes (``api.run_vsensor`` rather than an imported name) so the
traced pass can wrap those entry points from outside.

``digest`` covers exactly what the issue calls a report's identity —
matrix bytes, clustered regions, inter-process events — and is computed
after the operation's timer has stopped.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import api
from repro.runtime.channel import ChannelConfig, LossyChannel
from repro.runtime.quality import score_detection
from repro.runtime.report import VarianceReport
from repro.runtime.server import AnalysisServer
from repro.runtime.transport import FileSpool, ReliableTransport, RetryPolicy
from repro.sensors.model import SensorType

from benchmarks.e2e.inputs import (
    ANALYSIS_ENGINE,
    ENGINE,
    RunCase,
    TenantInputs,
    Timeline,
)

#: query rounds per replayed run in ``replay_live`` (one every span/64)
LIVE_QUERY_ROUNDS = 64
#: a clean run scores 1.0 iff no region of at least this many cells appears
CLEAN_REGION_CELLS = 4


@dataclass
class Output:
    """One report an operation produced, with what is needed to judge it."""

    name: str
    report: VarianceReport
    inter_events: list
    #: completed work: simulated work units (``wide_*``/``tenants_*``) or
    #: summary rows ingested (``replay_*``)
    units: float
    machine: object
    faults: tuple = ()
    score_types: tuple[SensorType, ...] | None = None
    #: the producing run object (``VSensorRun`` / ``JobRun`` / server), for
    #: the traced pass's exact per-layer counts
    run: object = None
    #: ``replay_live`` only: virtual time of the first query round that
    #: showed a low computation cell
    first_detect_us: float | None = None


@dataclass
class OpResult:
    outputs: list[Output]
    #: the operation-level object behind the outputs (``MultiJobRun``,
    #: transport), for the traced pass's exact per-layer counts
    context: object = None


def digest(report: VarianceReport, inter_events: list) -> str:
    """Identity of one report: matrix bytes + regions + inter-process events."""
    h = hashlib.blake2b(digest_size=16)
    for stype in sorted(report.matrices, key=lambda s: s.name):
        matrix = report.matrices[stype]
        h.update(f"{stype.name}{matrix.shape}".encode())
        # One NaN bit pattern, so "no data" cells compare equal across tiers.
        canonical = np.where(np.isnan(matrix), np.nan, matrix)
        h.update(np.ascontiguousarray(canonical, dtype=np.float64).tobytes())
    for r in report.regions:
        h.update(
            repr(
                (r.sensor_type.name, r.rank_lo, r.rank_hi, r.t_start_us,
                 r.t_end_us, r.mean_performance, r.cells)
            ).encode()
        )
    for e in inter_events:
        h.update(
            repr(
                (e.sensor_id, e.sensor_type.name, e.window_index, e.t_window_start,
                 e.slow_ranks, e.worst_performance, e.coverage)
            ).encode()
        )
    return h.hexdigest()


def detection_f1(out: Output) -> float:
    """F-score of one output against its injected faults (see README)."""
    if not out.faults:
        # Scored on the component a node fault would perturb: network-wait
        # regions are the programs' own collective skew (every clean
        # LULESH/BT/CG run has them at every seed), not a false alarm.
        false_alarm = any(
            r.cells >= CLEAN_REGION_CELLS and r.sensor_type is SensorType.COMPUTATION
            for r in out.report.regions
        )
        return 0.0 if false_alarm else 1.0
    return score_detection(
        out.report, list(out.faults), out.machine, sensor_types=out.score_types
    ).f_score


# -- wide_* --------------------------------------------------------------------


def run_case(case: RunCase, **overrides):
    """One pinned ``run_vsensor`` call; overrides are for oracles/probes."""
    kwargs = dict(
        faults=case.faults,
        window_us=case.window_us,
        batch_period_us=case.batch_period_us,
        engine=ENGINE,
        analysis_engine=ANALYSIS_ENGINE,
        channel=case.channel,
        store=None,
    )
    kwargs.update(overrides)
    return api.run_vsensor(case.source, case.machine, **kwargs)


def case_output(case: RunCase, run) -> Output:
    return Output(
        name=case.name,
        report=run.report,
        inter_events=run.runtime.server.inter_events,
        units=sum(r.total_work for r in run.sim.ranks),
        machine=case.machine,
        faults=case.faults,
        score_types=case.score_types,
        run=run,
    )


def wide_op(cases: list[RunCase], obs=None) -> OpResult:
    return OpResult([case_output(case, run_case(case, obs=obs)) for case in cases])


# -- tenants_* -----------------------------------------------------------------


def tenants_op(inp: TenantInputs, obs=None) -> OpResult:
    run = api.run_multi_job(
        list(inp.specs),
        n_shards=inp.n_shards,
        window_us=inp.window_us,
        batch_period_us=inp.batch_period_us,
        queue_limit=inp.queue_limit,
        cost=inp.cost,
        analysis_engine=ANALYSIS_ENGINE,
        store=None,
        obs=obs,
        workers=inp.workers,
        shard_processes=False,
    )
    outputs = []
    for spec in inp.specs:
        job = run.jobs[spec.job_id]
        outputs.append(
            Output(
                name=f"job{spec.job_id:02d}",
                report=job.report,
                inter_events=job.runtime.server.inter_events,
                units=sum(r.total_work for r in job.sim.ranks),
                machine=spec.machine,
                faults=tuple(spec.faults),
                score_types=(SensorType.COMPUTATION,),
                run=job,
            )
        )
    return OpResult(outputs, context=run)


# -- replay_* ------------------------------------------------------------------


def new_server(tl: Timeline, engine: str = ANALYSIS_ENGINE, obs=None) -> AnalysisServer:
    return AnalysisServer(
        n_ranks=tl.machine.n_ranks,
        window_us=tl.window_us,
        batch_period_us=tl.window_us,
        engine=engine,
        metrics=obs.metrics if obs is not None else None,
        obs=obs,
    )


def final_report(tl: Timeline, server: AnalysisServer, **extra) -> Output:
    """The run's closing report, answered by ``server``."""
    tl.runtime.server = server
    report = tl.runtime.report(tl.total_time_us)
    return Output(
        name="CG+bad_node",
        report=report,
        inter_events=server.inter_events,
        units=float(server.stored_summaries),
        machine=tl.machine,
        faults=tl.faults,
        score_types=(SensorType.COMPUTATION,),
        run=server,
        **extra,
    )


def replay_bulk_op(tl: Timeline, spool_dir: str, obs=None) -> OpResult:
    """Writes only: every batch through the spool codec, one drain, one report."""
    writer = FileSpool(spool_dir)
    for _, rank, rows in tl.events:
        writer.append_batch(rank, rows)
    server = new_server(tl, obs=obs)
    FileSpool(spool_dir).drain_into(
        server, slice_us=tl.slice_us, expected_ranks=tl.machine.n_ranks
    )
    return OpResult([final_report(tl, server)])


def live_channel(tl: Timeline) -> LossyChannel:
    return LossyChannel(
        config=ChannelConfig(
            drop_rate=0.1, dup_rate=0.05, reorder_rate=0.1, seed=tl.channel_seed
        )
    )


def replay_live_op(tl: Timeline, obs=None) -> OpResult:
    """Reads beside writes: lossy sequenced delivery with a query round
    (three matrices + inter-process detection) every span/64."""
    server = new_server(tl, obs=obs)
    transport = ReliableTransport(
        server=server,
        channel=live_channel(tl),
        policy=RetryPolicy(),
        metrics=obs.metrics if obs is not None else None,
    )
    period = tl.total_time_us / LIVE_QUERY_ROUNDS
    last_round = 0.0
    first_detect = None
    for now, rank, rows in tl.events:
        transport.send_batch(rank, rows, now)
        if now - last_round >= period:
            last_round = now
            matrices = {t: transport.performance_matrix(t) for t in SensorType}
            transport.detect_inter_process()
            if first_detect is None:
                comp = matrices[SensorType.COMPUTATION]
                if (np.isfinite(comp) & (comp < server.threshold)).any():
                    first_detect = now
    transport.finish()
    return OpResult(
        [final_report(tl, server, first_detect_us=first_detect)], context=transport
    )


# -- dispatch ------------------------------------------------------------------


def make_op(
    workload: str, inputs, scratch: str, obs=None
) -> tuple[Callable[[], OpResult], Callable[[], None]]:
    """``(operation, cleanup)`` for one workload; cleanup runs untimed.

    ``obs`` attaches a ``repro.obs`` bundle to everything the operation
    builds (the traced pass reads the program's public counters from it).
    """
    if workload != "replay_bulk":
        fn = (
            wide_op if workload.startswith("wide_")
            else tenants_op if workload.startswith("tenants_")
            else replay_live_op
        )
        return (lambda: fn(inputs, obs)), (lambda: None)
    spool_root = os.path.join(scratch, "spool")
    counter = iter(range(1 << 30))

    def op() -> OpResult:
        spool_dir = os.path.join(spool_root, f"op{next(counter):06d}")
        return replay_bulk_op(inputs, spool_dir, obs)

    def cleanup() -> None:
        shutil.rmtree(spool_root, ignore_errors=True)

    return op, cleanup
