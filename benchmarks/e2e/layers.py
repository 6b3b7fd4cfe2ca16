"""The traced pass: per-layer numbers, all measured from outside ``src/``.

Three sources, in this order:

1. **Spans** — the same operations as the timed phase, run with each
   layer's public entry points wrapped by the benchmark's
   :class:`~benchmarks.e2e.spans.SpanRecorder`.  Every ``*_s`` metric
   described as "per traced op" is a *self* time (children excluded), so
   those metrics add up to the traced operation's wall time.
2. **Counts** — exact counts read off the last traced operation's own
   result objects, plus the program's public ``obs=`` counters from one
   extra operation run under ``Obs.create()``.
3. **Probes** — layers that have no call boundary inside an operation
   (probe cost and detector work happen inside ``Simulator.run``) are
   separated by differential runs: uninstrumented vs. no-op hooks vs. the
   real runtime; the governor, history, pool and wire codec are driven
   directly through their public functions.

A layer a workload does not exercise reports 0 for its metrics.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass

from repro import api
from repro.history import RegressionHunter, RunStore, record_from_run, run_fingerprint
from repro.obs import Obs
from repro.parallel import JobTask, WorkerPool, decode_rows, encode_rows, simulate_job
from repro.parallel import runner as parallel_runner
from repro.parallel.wire import pack_obj
from repro.pipeline import ArtifactStore
from repro.runtime.detector import DetectorConfig
from repro.runtime.dynrules import NoGrouping
from repro.runtime.server import AnalysisServer
from repro.runtime.transport import FileSpool, ReliableTransport
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.service import AnalysisService, QueryMerger, TenantPort
from repro.sim import RuntimeHooks, Simulator

from benchmarks.e2e import measure, ops, spec
from benchmarks.e2e.inputs import ENGINE, RunCase, BatchRecorder
from benchmarks.e2e.spans import SpanRecorder

#: (owner, attribute, span name): the layer boundaries wrapped while tracing
WRAPS = (
    (api, "compile_and_instrument", "pipeline.compile"),
    (Simulator, "run", "sim.run"),
    (VSensorRuntime, "report", "runtime.report.build"),
    (AnalysisServer, "receive_batch", "runtime.server.ingest"),
    (AnalysisServer, "receive_batch_columns", "runtime.server.ingest"),
    (AnalysisServer, "performance_matrix", "runtime.server.query"),
    (AnalysisServer, "detect_inter_process", "runtime.server.query"),
    (ReliableTransport, "send_batch", "runtime.transport.deliver"),
    (ReliableTransport, "pump", "runtime.transport.deliver"),
    (ReliableTransport, "finish", "runtime.transport.deliver"),
    (FileSpool, "append_batch", "runtime.transport.spool_write"),
    (FileSpool, "drain_into", "runtime.transport.spool_drain"),
    (TenantPort, "receive_batch", "service.ingest"),
    (AnalysisService, "pump", "service.ingest"),
    (AnalysisService, "finish", "service.ingest"),
    (QueryMerger, "refresh", "service.merge"),
    (parallel_runner, "simulate_jobs_parallel", "parallel.phase1"),
)

#: self-time metrics that partition a traced operation's wall time
ADDITIVE = {
    "api.self_s": "api.op",
    "pipeline.self_s": "pipeline.compile",
    "sim.self_s": "sim.run",
    "runtime.report.build_s": "runtime.report.build",
    "runtime.server.ingest_s": "runtime.server.ingest",
    "runtime.server.query_s": "runtime.server.query",
    "runtime.transport.busy_s": "runtime.transport.deliver",
    "runtime.transport.spool_write_s": "runtime.transport.spool_write",
    "runtime.transport.spool_drain_s": "runtime.transport.spool_drain",
    "service.ingest_s": "service.ingest",
    "service.merge_query_s": "service.merge",
    "parallel.phase1_s": "parallel.phase1",
}


@dataclass
class TracedPass:
    metrics: dict[str, float]
    samples: list[measure.OpSample]
    recorder: SpanRecorder


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _fastest(runs: int, fn, *args, **kwargs):
    """Differential probes subtract two timings, so each side takes the
    fastest of ``runs`` (the work is deterministic; slower is interference)."""
    timings = [_timed(fn, *args, **kwargs) for _ in range(runs)]
    return min(t for t, _ in timings), timings[-1][1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- 1. spans ------------------------------------------------------------------


def _traced_ops(op, cleanup, seconds, min_ops):
    recorder = SpanRecorder()
    last: list[ops.OpResult] = []

    def traced_op():
        with recorder.span("api.op"):
            return op()

    def keep(result):
        last[:] = [result]

    for owner, attr, name in WRAPS:
        recorder.wrap(owner, attr, name)
    try:
        samples = measure.timed_phase(traced_op, cleanup, seconds, min_ops, keep)
    finally:
        recorder.unwrap_all()
    return recorder, samples, (last[0] if last else None)


def _span_metrics(recorder: SpanRecorder, n_ops: int) -> dict[str, float]:
    self_times = recorder.self_times()
    out = {
        metric: self_times.get(span, 0.0) / n_ops for metric, span in ADDITIVE.items()
    }
    queries = recorder.durations("runtime.server.query")
    out["runtime.server.queries"] = len(queries) / n_ops
    out["runtime.server.query_p50_s"] = statistics.median(queries) if queries else 0.0
    return out


# -- 2. counts -------------------------------------------------------------------


def _run_counts(runs: list) -> dict[str, float]:
    """Exact counts over ``VSensorRun`` / ``JobRun`` objects."""
    sims = [r.sim for r in runs]
    detectors = [d for r in runs for d in r.runtime.detectors.values()]
    stats = [r.channel_stats for r in runs if r.channel_stats]
    nbytes = sum(r.report.bytes_to_server for r in runs)
    rank_seconds = sum(r.report.n_ranks * r.sim.total_time / 1e6 for r in runs)
    out = {
        "sim.work_units": sum(rank.total_work for s in sims for rank in s.ranks),
        "sim.virtual_total_us": sum(s.total_time for s in sims),
        "sim.mpi_matches": sum(s.mpi_matches for s in sims),
        "sim.sensor_records": sum(rank.sensor_records for s in sims for rank in s.ranks),
        "runtime.detector.records": sum(d.records_processed for d in detectors),
        "runtime.detector.summaries": sum(len(d.summaries) for d in detectors),
        "runtime.detector.events": sum(len(r.runtime.events) for r in runs),
        "runtime.report.regions": sum(len(r.report.regions) for r in runs),
        "runtime.transport.bytes_encoded": nbytes,
        "runtime.transport.bytes_per_rank_virtual_s": _ratio(nbytes, rank_seconds),
    }
    out.update(_channel_counts(stats))
    return out


def _channel_counts(stats: list[dict]) -> dict[str, float]:
    return {
        f"runtime.transport.{metric}": sum(s[key] for s in stats)
        for metric, key in (
            ("batches_sent", "sent"),
            ("retried", "retried"),
            ("dropped", "dropped"),
            ("duplicated", "duplicated"),
            ("late", "late"),
        )
    }


def _result_counts(workload: str, result: ops.OpResult) -> dict[str, float]:
    runs = [o.run for o in result.outputs]
    if workload.startswith("wide_"):
        out = _run_counts(runs)
        out["runtime.server.rows"] = sum(
            r.runtime.server.summaries_received for r in runs
        )
        return out
    if workload.startswith("tenants_"):
        out = _run_counts(runs)
        service = result.context.service
        shard_rows = [shard.applied_rows for shard in service.shards]
        out["service.rows"] = sum(shard_rows)
        out["runtime.server.rows"] = sum(shard_rows)
        out["service.rejected"] = sum(p.rejected_batches for p in service.ports.values())
        out["service.retried"] = out["runtime.transport.retried"]
        out["service.shard_skew"] = _ratio(
            max(shard_rows), sum(shard_rows) / len(shard_rows)
        )
        return out
    output = result.outputs[0]
    server = output.run
    out = {
        "runtime.server.rows": server.summaries_received,
        "runtime.report.regions": len(output.report.regions),
        "runtime.transport.bytes_encoded": server.bytes_received,
        "runtime.transport.bytes_per_rank_virtual_s": _ratio(
            server.bytes_received,
            server.n_ranks * output.report.total_time_us / 1e6,
        ),
    }
    if result.context is not None:  # replay_live's transport
        out.update(_channel_counts([result.context.channel.stats.as_dict()]))
        out["runtime.server.first_detect_virtual_us"] = output.first_detect_us or 0.0
    return out


_OBS_COUNTERS = {
    "sim.lockstep.fuse": "sim.lockstep.fuse",
    "sim.lockstep.diverge": "sim.lockstep.diverge",
    "sim.lockstep.drain": "sim.lockstep.drain",
    "sim.lockstep.diverged": "sim.lockstep.diverged",
    "runtime.server.replay_full": "server.replay.full",
    "runtime.server.replay_incremental": "server.replay.incremental",
    "runtime.server.duplicates": "server.duplicate_batches",
    "parallel.restarts": "parallel.worker_restart",
}


def _obs_counts(workload: str, inputs, scratch: str) -> dict[str, float]:
    """One operation under ``Obs.create()``: the program's public counters."""
    obs = Obs.create()
    op, cleanup = ops.make_op(workload, inputs, scratch, obs)
    try:
        op()
    finally:
        cleanup()
    counters = obs.metrics.as_dict()["counters"]
    out = {metric: counters.get(name, 0) for metric, name in _OBS_COUNTERS.items()}
    out["obs.self_cost_s"] = obs.self_cost_s()
    return out


# -- 3. probes -------------------------------------------------------------------


def _pipeline_probe(sources: list[str]) -> dict[str, float]:
    out = dict.fromkeys(
        (m for m in spec.PER_LAYER_NAMES if m.startswith("pipeline.") and m != "pipeline.self_s"),
        0.0,
    )
    hits = passes = 0
    for source in sources:
        seconds, cold = _timed(api.compile_and_instrument, source, store=None)
        out["pipeline.compile_cold_s"] += seconds
        for timing in cold.profile.timings:
            out[f"pipeline.pass.{timing.name}_s"] += timing.seconds
        out["pipeline.snippets"] += cold.identification.snippet_count
        out["pipeline.sensors_instrumented"] += len(cold.program.sensors)
        store = ArtifactStore()
        api.compile_and_instrument(source, store=store)
        seconds, warm = _timed(api.compile_and_instrument, source, store=store)
        out["pipeline.compile_warm_s"] += seconds
        hits += warm.profile.hits
        passes += len(warm.profile.timings)
    out["pipeline.cache_hit_ratio"] = _ratio(hits, passes)
    return out


def _sim_probe(cases: list[RunCase], runs: int) -> tuple[dict[str, float], float]:
    """Uninstrumented vs. no-op hooks vs. real runtime, per case, summed.

    Also returns the uninstrumented virtual time (the governor's base).
    """
    uninstrumented = nullhooks = instrumented = virtual_us = 0.0
    for case in cases:
        seconds, sim = _fastest(
            runs, api.run_uninstrumented, case.source, case.machine,
            faults=case.faults, engine=ENGINE,
        )
        uninstrumented += seconds
        virtual_us += sim.total_time
        static = api.compile_and_instrument(case.source, store=None)

        def simulate(hooks):
            return Simulator(
                static.program.module,
                case.machine,
                faults=case.faults,
                sensors=static.program.sensors,
                engine=ENGINE,
            ).run(hooks)

        def new_runtime():
            return VSensorRuntime(
                sensors=static.program.sensors,
                n_ranks=case.machine.n_ranks,
                config=DetectorConfig(),
                rule=NoGrouping(),
                server=BatchRecorder(case.batch_period_us),  # type: ignore[arg-type]
            )

        nullhooks += _fastest(runs, lambda: simulate(RuntimeHooks()))[0]
        instrumented += _fastest(runs, lambda: simulate(new_runtime()))[0]
    out = {
        "sim.uninstrumented_s": uninstrumented,
        "sim.nullhooks_s": nullhooks,
        "sim.instrumented_s": instrumented,
        "sim.probe_s": nullhooks - uninstrumented,
        "runtime.detector.busy_s": instrumented - nullhooks,
    }
    return out, virtual_us


def _governor_probe(cases: list[RunCase], uninstrumented_virtual_us: float) -> dict[str, float]:
    """One governed (2% budget) run per program, same faults."""
    out = dict.fromkeys(
        (m for m in spec.PER_LAYER_NAMES if m.startswith("runtime.governor.")), 0.0
    )
    governed_virtual_us = 0.0
    for case in cases:
        run = ops.run_case(case, overhead_budget=0.02)
        governed_virtual_us += run.sim.total_time
        governor = run.runtime.governor
        for rank in governor.table.ranks():
            for control in governor.table.controls(rank).values():
                out["runtime.governor.kept"] += control.kept
                out["runtime.governor.sampled_out"] += control.sampled_out
                out["runtime.governor.suppressed"] += control.suppressed
        totals = governor.totals()
        out["runtime.governor.demote"] += totals["demote"]
        out["runtime.governor.promote"] += totals["promote"]
    out["runtime.governor.virtual_overhead_pct"] = 100.0 * _ratio(
        governed_virtual_us - uninstrumented_virtual_us, uninstrumented_virtual_us
    )
    return out


def _history_probe(case: RunCase, run, scratch: str, appends: int = 32) -> dict[str, float]:
    root = os.path.join(scratch, "history")
    shutil.rmtree(root, ignore_errors=True)
    try:
        store = RunStore(root)
        key = run_fingerprint(case.source, case.machine, engine=ENGINE, max_depth=3)
        t0 = time.perf_counter()
        for index in range(appends):
            store.append(record_from_run(run, key, label=f"run{index}", workload=case.name))
        append_s = time.perf_counter() - t0
        scan_s, scan = _timed(RegressionHunter().scan_store, store)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "history.append_s": append_s,
        "history.scan_s": scan_s,
        "history.runs_scanned": scan.runs_scanned,
        "history.changepoints": len(scan.findings),
    }


def _parallel_probe(inp) -> dict[str, float]:
    """The fabric's parts, each driven on its own (``tenants_fanout``)."""
    tasks = [
        JobTask(
            job_id=spec_.job_id,
            source=spec_.source,
            machine=spec_.machine,
            faults=tuple(spec_.faults),
            detector=spec_.detector,
            rule=spec_.rule,
            engine=spec_.engine,
            max_depth=spec_.max_depth,
            batch_period_us=inp.batch_period_us,
        )
        for spec_ in inp.specs
    ]
    serial_s = 0.0
    result_bytes = 0
    batches = []
    for task in tasks:
        seconds, outcome = _timed(simulate_job, task)
        serial_s += seconds
        result_bytes += len(pack_obj(outcome))
        batches.extend(rows for _, _, rows in outcome[2].server.events)
    encode_s, encoded = _timed(lambda: [encode_rows(rows) for rows in batches])
    decode_s, _ = _timed(lambda: [decode_rows(data) for data in encoded])

    def spawn():
        WorkerPool(inp.workers, simulate_job).close()

    return {
        "parallel.serial_phase1_s": serial_s,
        "parallel.result_bytes": result_bytes,
        "parallel.wire_encode_s": encode_s,
        "parallel.wire_decode_s": decode_s,
        "parallel.wire_bytes": sum(len(data) for data in encoded),
        "parallel.pool_spawn_s": _timed(spawn)[0],
    }


def _tenant_cases(inp) -> list[RunCase]:
    return [
        RunCase(
            name=f"job{s.job_id:02d}",
            source=s.source,
            machine=s.machine,
            faults=tuple(s.faults),
            window_us=inp.window_us,
            batch_period_us=inp.batch_period_us,
        )
        for s in inp.specs
    ]


# -- the pass --------------------------------------------------------------------


def traced_pass(
    workload, inputs, op, cleanup, seconds, min_ops, scratch, probe_runs=2
) -> TracedPass:
    recorder, samples, last = _traced_ops(op, cleanup, seconds, min_ops)
    metrics = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
    metrics.update(_span_metrics(recorder, len(samples)))
    if last is not None:
        metrics.update(_result_counts(workload, last))
    metrics.update(_obs_counts(workload, inputs, scratch))

    if not workload.startswith("replay_"):
        cases = inputs if workload.startswith("wide_") else _tenant_cases(inputs)
        metrics.update(_pipeline_probe([case.source for case in cases]))
        sim_metrics, virtual_us = _sim_probe(cases, probe_runs)
        metrics.update(sim_metrics)
        metrics["sim.work_units_per_s"] = _ratio(
            metrics["sim.work_units"], metrics["sim.instrumented_s"]
        )
        metrics["runtime.detector.records_per_s"] = _ratio(
            metrics["runtime.detector.records"], metrics["runtime.detector.busy_s"]
        )
    if workload == "wide_faulty":
        metrics.update(_governor_probe(cases, virtual_us))
        if last is not None:
            metrics.update(_history_probe(cases[0], last.outputs[0].run, scratch))
    if workload == "tenants_fanout":
        metrics.update(_parallel_probe(inputs))
        metrics["parallel.speedup"] = _ratio(
            metrics["parallel.serial_phase1_s"], metrics["parallel.phase1_s"]
        )
    metrics["runtime.server.rows_per_s"] = _ratio(
        metrics["runtime.server.rows"], metrics["runtime.server.ingest_s"]
    )
    metrics["service.rows_per_s"] = _ratio(
        metrics["service.rows"], metrics["service.ingest_s"]
    )
    return TracedPass(metrics, samples, recorder)
