"""High-level pipeline: the eight workflow steps in one call.

:func:`compile_and_instrument` covers the static module (steps 1–5) as the
four :mod:`repro.pipeline` passes in one fixed order: parse → identify →
select → instrument, with per-pass timing and
content-addressed artifact caching (repeat compiles of unchanged text and
config reuse every stage).  :func:`run_vsensor` adds the dynamic module
(steps 6–8) on the simulated cluster and returns everything a study needs:
identification results, instrumentation plan, simulation outcome, and the
variance report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.diagnostics import Diagnostic
from repro.errors import ReproError
from repro.frontend import Module, parse_source
from repro.instrument import InstrumentationPlan, InstrumentedProgram
from repro.obs import NULL_OBS, Obs
from repro.pipeline import ArtifactStore, PipelineProfile, default_store, run_passes
from repro.runtime.detector import DetectorConfig
from repro.runtime.dynrules import DynamicRule, NoGrouping
from repro.runtime.records import SummaryView
from repro.runtime.report import VarianceReport
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.sensors import IdentificationResult
from repro.sensors.extern import ExternRegistry
from repro.sim import Fault, MachineConfig, SimResult, Simulator

#: sentinel: "use the process-wide default artifact store"
_DEFAULT_STORE = object()


@dataclass(slots=True)
class StaticResult:
    """Outcome of the static module (compile-time steps 1-5)."""

    module: Module
    identification: IdentificationResult
    plan: InstrumentationPlan
    program: InstrumentedProgram
    #: structured rejection/skip notes from identify, select and instrument
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: per-pass wall time and cache hit/miss accounting for this compile
    profile: PipelineProfile = field(default_factory=PipelineProfile)

    @property
    def source(self) -> str:
        return self.program.source


@dataclass(slots=True)
class VSensorRun:
    """Outcome of a full vSensor-instrumented simulated run."""

    static: StaticResult
    sim: SimResult
    runtime: VSensorRuntime
    report: VarianceReport | None = None
    #: delivery counters when the run used a simulated lossy channel
    channel_stats: dict[str, int] | None = None
    #: the :class:`~repro.history.RunRecord` appended to the cross-run
    #: history store (seq assigned), when ``history_store`` was given
    history_entry: object | None = None


def compile_and_instrument(
    source: str,
    max_depth: int = 3,
    externs: ExternRegistry | None = None,
    static_rules: Sequence | Iterable = (),
    filename: str = "<program>",
    min_estimated_work: float = 0.0,
    annotations=None,
    store: ArtifactStore | None | object = _DEFAULT_STORE,
    obs: Obs | None = None,
) -> StaticResult:
    """Run the static module on program text.

    ``min_estimated_work`` enables the compile-time granularity estimate
    (skip sensors predicted smaller than this many work units);
    ``annotations`` is an optional
    :class:`~repro.instrument.annotations.Annotations` with manual
    include/exclude marks.

    ``store`` selects the artifact cache: by default the process-wide
    store (so recompiling unchanged text is nearly free), an explicit
    :class:`~repro.pipeline.ArtifactStore` for scoped caching, or ``None``
    to disable caching for this call.

    ``obs`` attaches an observability bundle (:mod:`repro.obs`): per-pass
    spans and cache counters are emitted into it.  The default is the
    no-op bundle; enabling it never changes outputs or cache keys.
    """
    if store is _DEFAULT_STORE:
        store = default_store()
    obs = obs or NULL_OBS
    config = {
        "source": source,
        "filename": filename,
        "max_depth": max_depth,
        "externs": externs,
        "static_rules": tuple(static_rules),
        "min_estimated_work": min_estimated_work,
        "annotations": annotations,
    }
    with obs.tracer.span("vsensor.compile"):
        artifacts, profile = run_passes(config, store, obs)  # type: ignore[arg-type]
    selection = artifacts["select"]
    program: InstrumentedProgram = artifacts["instrument"]
    identification: IdentificationResult = selection.identification
    diagnostics = (
        identification.diagnostics()
        + selection.plan.diagnostics
        + program.diagnostics
    )
    return StaticResult(
        module=program.module,
        identification=identification,
        plan=selection.plan,
        program=program,
        diagnostics=diagnostics,
        profile=profile,
    )


def _resolve_governor(
    governor, overhead_budget, machine, static, detector_config, metrics, obs
):
    """Build an :class:`~repro.runtime.governor.OverheadGovernor` from the
    user-facing knobs; ``None`` (both unset) means no governor."""
    from repro.runtime.governor import GovernorConfig, OverheadGovernor

    if governor is None:
        if overhead_budget is None:
            return None
        governor = GovernorConfig(overhead_budget=overhead_budget)
    elif overhead_budget is not None:
        raise ReproError(
            "pass overhead_budget= or governor=, not both (a GovernorConfig "
            "carries its own overhead_budget)"
        )
    if isinstance(governor, OverheadGovernor):
        return governor
    if not isinstance(governor, GovernorConfig):
        raise ReproError(
            f"governor= takes a GovernorConfig or an OverheadGovernor, not {governor!r}"
        )
    return OverheadGovernor(
        governor,
        estimates=static.plan.estimates,
        probe_cost=machine.probe_cost,
        detector_config=detector_config,
        ranks_per_node=machine.ranks_per_node,
        metrics=metrics,
        obs=obs,
    )


def simulate_instrumented(
    source: str,
    machine: MachineConfig,
    sink,
    *,
    faults: Sequence[Fault] = (),
    max_depth: int = 3,
    detector: DetectorConfig | None = None,
    rule: DynamicRule | None = None,
    engine: str = "bytecode",
    store: ArtifactStore | None | object = _DEFAULT_STORE,
    obs: Obs | None = None,
    externs: ExternRegistry | None = None,
    static_rules: Sequence | Iterable = (),
    governor=None,
    overhead_budget: float | None = None,
    live=None,
    extra_hooks: Sequence = (),
    job: int | None = None,
) -> tuple[StaticResult, SimResult, VSensorRuntime]:
    """The dynamic module's one path: compile ``source``, build the
    :class:`VSensorRuntime` shipping its rank batches to ``sink``, and run
    the instrumented program under the ``vsensor.simulate`` span.

    ``sink`` is whatever receives the batches — an analysis server, a
    :class:`~repro.runtime.transport.ReliableTransport` in front of one
    (:func:`run_vsensor`), or a multi-job batch recorder
    (:func:`~repro.parallel.runner.simulate_job`); it stays at
    ``runtime.server``.  ``job`` tags the span for multi-job runs.
    """
    from repro.sim.hooks import TeeHooks

    obs = obs or NULL_OBS
    static = compile_and_instrument(
        source,
        max_depth=max_depth,
        externs=externs,
        static_rules=static_rules,
        store=store,
        obs=obs,
    )
    detector_config = detector or DetectorConfig()
    gov = _resolve_governor(
        governor, overhead_budget, machine, static, detector_config,
        obs.metrics if obs.enabled else None, obs,
    )
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=machine.n_ranks,
        config=detector_config,
        rule=rule or NoGrouping(),
        server=sink,
        live=live,
        governor=gov,
        obs=obs,
    )
    hooks = TeeHooks(runtime, *extra_hooks) if extra_hooks else runtime
    attrs = {} if job is None else {"job": job}
    with obs.tracer.span("vsensor.simulate", engine=engine, **attrs):
        sim = Simulator(
            static.program.module,
            machine,
            faults=tuple(faults),
            sensors=static.program.sensors,
            externs=externs,
            engine=engine,
            obs=obs,
            probe_control=gov.table if gov is not None else None,
        ).run(hooks)
    return static, sim, runtime


def run_vsensor(
    source: str,
    machine: MachineConfig,
    faults: Sequence[Fault] = (),
    max_depth: int = 3,
    detector: DetectorConfig | None = None,
    rule: DynamicRule | None = None,
    externs: ExternRegistry | None = None,
    static_rules: Sequence | Iterable = (),
    window_us: float = 200_000.0,
    batch_period_us: float = 100_000.0,
    extra_hooks: Sequence = (),
    live=None,
    engine: str = "bytecode",
    analysis_engine: str = "columnar",
    channel=None,
    retry_policy=None,
    store: ArtifactStore | None | object = _DEFAULT_STORE,
    obs: Obs | None = None,
    governor=None,
    overhead_budget: float | None = None,
    history_store=None,
    history_label: str = "",
    history_workload: str = "",
) -> VSensorRun:
    """Compile, instrument, simulate and analyze one program.

    ``window_us`` is the performance-matrix time resolution (the paper's
    matrices use 200 ms); ``batch_period_us`` is how often each rank ships
    its buffered slice summaries to the analysis server.  ``extra_hooks``
    are additional observers teed alongside the vSensor runtime (e.g. a
    raw-record collector for figure data).

    ``channel`` routes rank→server batches over a simulated unreliable
    channel: pass a :class:`~repro.runtime.channel.ChannelConfig`, a
    prebuilt :class:`~repro.runtime.channel.LossyChannel`, or a CLI-style
    spec string (``"drop=0.1,dup=0.05"``, ``"lossy"``).  Delivery then
    uses sequence numbers + retries (``retry_policy``) with idempotent
    server ingest, and the run's :attr:`VSensorRun.channel_stats` /
    report fields expose the delivery counters.

    ``analysis_engine`` selects the server's analysis data path:
    ``"columnar"`` (default; vectorized store with incremental canonical
    replay) or ``"reference"`` (the original object-at-a-time replay) —
    the two are bit-identical, the reference tier exists for differential
    testing.

    ``engine`` selects the simulator's interpreter tier: ``"bytecode"``
    (default; compiled register VM), ``"ast"`` (tree-walking reference),
    ``"lockstep"`` (SIMD-over-ranks vectorized VM — one fetch per
    instruction applied to every rank's lane at once, with diverging ranks
    drained onto per-rank interpreters) or ``"auto"`` (bytecode below
    :data:`~repro.sim.AUTO_LOCKSTEP_MIN_RANKS` ranks, lockstep at or
    above — the crossover measured in ``BENCH_interp.json``, where
    lockstep is a slowdown at 8 ranks for two programs of three and wins
    at 32 for two of three, at 128 for all).  All tiers
    are bit-identical; ``"auto"`` is the recommended setting for runs
    whose rank counts vary.

    ``store`` is forwarded to :func:`compile_and_instrument`.

    ``obs`` attaches an observability bundle (:mod:`repro.obs`): compile /
    simulate / analyze phase spans, per-rank virtual-time spans, and
    record / retry / dedup counters across the runtime.  The default is
    the no-op bundle; an enabled bundle never changes the report, the
    matrices, or any cached artifact (the golden suite asserts this).

    ``governor`` installs the runtime overhead governor
    (:mod:`repro.runtime.governor`): pass a
    :class:`~repro.runtime.governor.GovernorConfig` (or a built
    :class:`~repro.runtime.governor.OverheadGovernor`), or leave it
    ``None`` and set ``overhead_budget`` instead — not both.  Both
    ``None`` (the default) installs no governor.  A config whose
    ``eval_period_us`` is ``None`` evaluates once per detector slice.

    ``history_store`` appends this run's sensor baselines to a cross-run
    regression history (:mod:`repro.history`): pass a
    :class:`~repro.history.RunStore` or a directory path.  The trajectory
    key is a content fingerprint of (source, machine, detector, max_depth,
    resolved governor config) — what moves baselines, so the interpreter
    tier, bit-identical by contract, is not part of it;
    ``history_label`` / ``history_workload`` annotate the record.  The
    appended record lands in :attr:`VSensorRun.history_entry`.
    """
    from repro.runtime.channel import as_channel
    from repro.runtime.server import AnalysisServer
    from repro.runtime.transport import ReliableTransport, RetryPolicy

    obs = obs or NULL_OBS
    metrics = obs.metrics if obs.enabled else None
    server = AnalysisServer(
        n_ranks=machine.n_ranks,
        window_us=window_us,
        batch_period_us=batch_period_us,
        threshold=(detector or DetectorConfig()).threshold,
        engine=analysis_engine,
        metrics=metrics,
        obs=obs if obs.enabled else None,
    )
    transport = None
    channel = as_channel(channel)
    if channel is not None:
        transport = ReliableTransport(
            server=server,
            channel=channel,
            policy=retry_policy or RetryPolicy(),
            metrics=metrics,
        )
    static, sim, runtime = simulate_instrumented(
        source,
        machine,
        server if transport is None else transport,
        faults=faults,
        max_depth=max_depth,
        detector=detector,
        rule=rule,
        engine=engine,
        store=store,
        obs=obs,
        externs=externs,
        static_rules=static_rules,
        governor=governor,
        overhead_budget=overhead_budget,
        live=live,
        extra_hooks=extra_hooks,
    )
    run = VSensorRun(static=static, sim=sim, runtime=runtime)
    with obs.tracer.span("vsensor.analyze"):
        if transport is not None:
            transport.finish()
            runtime.server = server
            run.channel_stats = transport.channel.stats.as_dict()
        run.report = runtime.report(sim.total_time)
    if run.channel_stats is not None:
        run.report.channel_stats = dict(run.channel_stats)
    if history_store is not None:
        from repro.history import RunStore, record_from_run, run_fingerprint

        if not isinstance(history_store, RunStore):
            history_store = RunStore(history_store)
        # Keyed on what moves baselines: the governor's resolved config
        # does; the interpreter tier (bit-identical by contract) does not.
        key = run_fingerprint(
            source,
            machine,
            runtime.config,
            max_depth=max_depth,
            governor=None if runtime.governor is None else runtime.governor.config,
        )
        with obs.tracer.span("history.append", fingerprint=key[:12]):
            run.history_entry = history_store.append(
                record_from_run(
                    run, key, label=history_label, workload=history_workload
                )
            )
            if obs.enabled:
                obs.metrics.counter("history.appends").inc()
    return run


@dataclass(slots=True)
class JobSpec:
    """One tenant of a multi-job sharded-service run."""

    source: str
    machine: MachineConfig
    #: tenant id; defaults to the job's position in the list
    job_id: int | None = None
    faults: Sequence[Fault] = ()
    #: per-job rank->front channel (spec string / config / channel);
    #: ``None`` uses a perfect zero-delay channel — delivery still runs
    #: the sequenced transport so admission rejections stay retriable
    channel: object | None = None
    retry_policy: object | None = None
    detector: DetectorConfig | None = None
    rule: DynamicRule | None = None
    engine: str = "bytecode"
    max_depth: int = 3


@dataclass(slots=True)
class JobRun:
    """One tenant's outcome of a multi-job run."""

    job_id: int
    static: StaticResult
    sim: SimResult
    runtime: VSensorRuntime
    report: VarianceReport | None = None
    channel_stats: dict[str, int] | None = None


@dataclass(slots=True)
class MultiJobRun:
    """Outcome of :func:`run_multi_job`: the service plus per-job results."""

    service: object
    jobs: dict[int, JobRun] = field(default_factory=dict)


class _BatchRecorder:
    """Duck-typed server capturing each rank's batch sends with times.

    A batch is kept as the :class:`~repro.runtime.records.SummaryView` the
    runtime shipped, so the rows stay in the detector's log (and cross a
    process boundary once, with it) until :func:`_replay_batches` turns
    each job's rows into objects in one gather.
    """

    def __init__(self, batch_period_us: float) -> None:
        self.batch_period_us = batch_period_us
        self.events: list[tuple[float, int, SummaryView]] = []

    def send_batch(self, rank: int, summaries: SummaryView, now: float) -> None:
        self.events.append((now, rank, summaries))


def _replay_batches(events: list[tuple[float, int, SummaryView]]) -> list[tuple]:
    """A recorder's ``(now, rank, view)`` events as ``(now, rank, rows)``,
    the rows built with one gather over the job's log and sliced per
    batch."""
    if not events:
        return []
    rows = SummaryView.gather([view for _, _, view in events]).to_summaries()
    batches, start = [], 0
    for now, rank, view in events:
        batches.append((now, rank, rows[start : start + len(view)]))
        start += len(view)
    return batches


def run_multi_job(
    jobs: Sequence[JobSpec],
    n_shards: int = 4,
    window_us: float = 200_000.0,
    batch_period_us: float = 100_000.0,
    queue_limit: int = 64,
    cost=None,
    analysis_engine: str = "columnar",
    store: ArtifactStore | None | object = _DEFAULT_STORE,
    obs: Obs | None = None,
    workers: int = 1,
    shard_processes: bool = False,
    max_restarts: int = 2,
) -> MultiJobRun:
    """Run several jobs concurrently through one sharded analysis service.

    Each job is compiled and simulated exactly as :func:`run_vsensor`
    would (both go through :func:`simulate_instrumented`), but its rank
    batches — captured with their virtual send times — are replayed
    interleaved across all jobs (globally time-ordered) into a shared
    :class:`~repro.service.AnalysisService`: per-job
    :class:`~repro.runtime.transport.ReliableTransport` instances carry
    the sequenced batches over each job's channel into the admission-
    controlled front, which queues them on ``n_shards`` consistent-hash
    shard workers; each shard applies its sub-batches into the owning
    job's one analysis store.  Every job's report/matrices are answered
    from that store — bit-identical to what an unsharded run of that job
    alone would produce.  Each job needs its own channel object: two
    specs resolving to the same one raise :class:`ReproError`.

    ``cost`` is an optional :class:`~repro.service.ShardCostModel` giving
    shards a virtual processing cost (that is what makes bounded queues
    fill and back-pressure engage); the default is zero cost.

    ``store`` is the artifact cache every job compiles through: the
    process-wide default, an explicit
    :class:`~repro.pipeline.ArtifactStore`, or ``None`` for "no cache
    beyond this call" — one fresh store for the call, so each distinct
    program is compiled once and its bytecode built once however many
    jobs run it.

    ``workers`` fans the compile+simulate phase out to that many OS
    processes on the deterministic :class:`~repro.parallel.WorkerPool`
    (:mod:`repro.parallel`); only phase 1 is parallel — the time-ordered
    replay, back-pressure drive and per-job reports are a deterministic
    function of its outputs, so ``workers=N`` is bit-identical to
    ``workers=1``.  A pool worker compiles against its own process-default
    artifact store and ships back ``(sim, runtime)``; the parent takes each
    job's :class:`StaticResult` from ``store``, as on the in-process path.
    ``max_restarts`` bounds crash/replay respawns per worker.

    ``shard_processes`` is accepted for callers that pin it to ``False``;
    process-backed shards were removed (no measured benefit — see
    CHANGES.md, PR 14) and ``True`` raises :class:`ReproError`.
    """
    from repro.parallel.runner import JobTask, simulate_job, simulate_jobs_parallel
    from repro.runtime.channel import as_channel, perfect_channel
    from repro.runtime.transport import ReliableTransport, RetryPolicy
    from repro.service import AnalysisService

    if shard_processes:
        raise ReproError(
            "shard_processes=True: process-backed shards were removed "
            "(repro.parallel keeps the wire codec, the worker pool and the "
            "phase-1 runner); shards run in-process"
        )
    obs = obs or NULL_OBS
    service = AnalysisService(
        n_shards,
        window_us=window_us,
        batch_period_us=batch_period_us,
        engine=analysis_engine,
        queue_limit=queue_limit,
        cost=cost,
        obs=obs if obs.enabled else None,
    )
    run = MultiJobRun(service=service)
    transports: dict[int, ReliableTransport] = {}

    # Phase 1: compile + simulate every job, capturing timed batch sends
    # in a _BatchRecorder at ``runtime.server``.
    tasks: list[JobTask] = []
    specs: dict[int, JobSpec] = {}
    channels: dict[int, object] = {}
    for index, spec in enumerate(jobs):
        job_id = index if spec.job_id is None else spec.job_id
        if job_id in specs:
            raise ReproError(f"duplicate job id {job_id}")
        specs[job_id] = spec
        channel = perfect_channel() if spec.channel is None else as_channel(spec.channel)
        # A channel hands every due envelope to whichever transport pumps
        # it first, so two jobs on one channel object cross-deliver.
        sharer = next((j for j, c in channels.items() if c is channel), None)
        if sharer is not None:
            raise ReproError(
                f"jobs {sharer} and {job_id} share one channel object; give "
                "each JobSpec its own (or a ChannelConfig / spec string)"
            )
        channels[job_id] = channel
        tasks.append(
            JobTask(
                job_id=job_id,
                source=spec.source,
                machine=spec.machine,
                faults=tuple(spec.faults),
                detector=spec.detector,
                rule=spec.rule,
                engine=spec.engine,
                max_depth=spec.max_depth,
                batch_period_us=batch_period_us,
            )
        )
    if store is None:
        store = ArtifactStore()
    if workers > 1:
        for task, (sim, runtime) in zip(
            tasks,
            simulate_jobs_parallel(tasks, workers, obs=obs, max_restarts=max_restarts),
        ):
            static = compile_and_instrument(
                task.source, max_depth=task.max_depth, store=store, obs=obs
            )
            runtime.sensors = static.program.sensors
            run.jobs[task.job_id] = JobRun(task.job_id, static, sim, runtime)
    else:
        for task in tasks:
            static, sim, runtime = simulate_job(task, store, obs)
            run.jobs[task.job_id] = JobRun(task.job_id, static, sim, runtime)

    # Phase 2: replay all jobs' batches, globally time-ordered, through
    # per-job sequenced transports into the shared sharded front.
    metrics = obs.metrics if obs.enabled else None
    for job_id, job_run in run.jobs.items():
        port = service.register_job(job_id, job_run.runtime.n_ranks)
        port.threshold = job_run.runtime.config.threshold
        transports[job_id] = ReliableTransport(
            server=port,
            channel=channels[job_id],
            policy=specs[job_id].retry_policy or RetryPolicy(),
            metrics=metrics,
        )
    timeline = sorted(
        (
            (now, job_id, order, rank, rows)
            for job_id, job_run in run.jobs.items()
            for order, (now, rank, rows) in enumerate(
                _replay_batches(job_run.runtime.server.events)
            )
        ),
        key=lambda item: (item[0], item[1], item[2]),
    )
    with obs.tracer.span("service.ingest", jobs=len(run.jobs), shards=n_shards):
        for now, job_id, _, rank, rows in timeline:
            transports[job_id].send_batch(rank, rows, now)
            service.pump(now)

        # Phase 3: drive retries/back-pressure to quiescence, keeping the
        # shards pumping so deferred retries always find freed capacity.
        while wakeups := [
            wakeup
            for transport in transports.values()
            if (wakeup := transport.next_wakeup()) is not None
        ]:
            t = min(wakeups)
            service.pump(t)
            for transport in transports.values():
                transport.pump(t)
        service.finish()

    # Phase 4: per-job reports answered from each job's store.
    for job_id, job_run in run.jobs.items():
        port = service.ports[job_id]
        job_run.runtime.server = port
        with obs.tracer.span("vsensor.analyze", job=job_id):
            job_run.report = job_run.runtime.report(job_run.sim.total_time)
        job_run.channel_stats = transports[job_id].channel.stats.as_dict()
        job_run.report.channel_stats = dict(job_run.channel_stats)
    return run


def run_uninstrumented(
    source: str,
    machine: MachineConfig,
    faults: Sequence[Fault] = (),
    engine: str = "bytecode",
) -> SimResult:
    """Simulate the original (probe-free) program — the overhead baseline."""
    module = parse_source(source)
    return Simulator(module, machine, faults=tuple(faults), engine=engine).run()
