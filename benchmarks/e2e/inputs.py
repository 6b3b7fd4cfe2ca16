"""Seeded workload inputs: everything an operation consumes, nothing it measures.

``build_inputs(workload, seed, smoke)`` is the benchmark's whole set-up
phase after imports — source generation, fault-span calibration (one
uninstrumented run per faulted program, so fault windows sit at fixed
fractions of the *measured* span), and, for the ``replay_*`` workloads,
recording the batch timeline the operations replay.  The seed picks the
machine-noise seed, which nodes are faulted and every lossy channel's
failure schedule; the program under test only ever sees these generated
inputs.

Every engine / channel / worker setting an operation uses is pinned here
explicitly, so a later default flip in ``repro.api`` cannot silently
change what the benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.api import JobSpec, compile_and_instrument, run_uninstrumented
from repro.runtime.detector import DetectorConfig
from repro.runtime.dynrules import NoGrouping
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.sensors.model import SensorType
from repro.service import ShardCostModel
from repro.sim import (
    CpuContention,
    MachineConfig,
    NetworkDegradation,
    Simulator,
    SlowMemoryNode,
)
from repro.workloads import get_workload

#: interpreter tier of every timed operation (resolves to lockstep at
#: >=16 ranks, bytecode below) and the analysis data path behind it
ENGINE = "auto"
ANALYSIS_ENGINE = "columnar"

WIDE_RANKS, SMOKE_RANKS = 128, 8
TENANT_JOBS, TENANT_RANKS = 16, 8
TENANT_PROGRAMS = ("CG", "FT", "LULESH", "BT")


@dataclass(frozen=True)
class RunCase:
    """One ``run_vsensor`` call of a ``wide_*`` operation."""

    name: str
    source: str
    machine: MachineConfig
    faults: tuple = ()
    window_us: float = 10_000.0
    batch_period_us: float = 10_000.0
    #: lossy-channel spec, ``None`` = direct in-process delivery
    channel: str | None = None
    #: component the injected fault perturbs (detection is scored there)
    score_types: tuple[SensorType, ...] | None = None


@dataclass(frozen=True)
class TenantInputs:
    """``run_multi_job`` arguments of a ``tenants_*`` operation."""

    specs: tuple[JobSpec, ...]
    workers: int
    window_us: float
    batch_period_us: float
    n_shards: int = 4
    #: the 16 tenants' bursts overfill this (200-500 admission rejections
    #: per operation) yet no transport exhausts its retries at any seed
    queue_limit: int = 64
    cost: ShardCostModel = field(
        default_factory=lambda: ShardCostModel(base_us=20.0, per_row_us=5.0)
    )


@dataclass
class Timeline:
    """A recorded run's rank->server batch sends, in emission order."""

    #: (virtual send time, rank, slice summaries)
    events: list[tuple[float, int, list]]
    runtime: VSensorRuntime
    machine: MachineConfig
    faults: tuple
    total_time_us: float
    window_us: float
    slice_us: float
    #: seed of ``replay_live``'s lossy channel
    channel_seed: int


class BatchRecorder:
    """Duck-typed analysis server that keeps each batch with its send time."""

    def __init__(self, batch_period_us: float) -> None:
        self.batch_period_us = batch_period_us
        self.events: list[tuple[float, int, list]] = []

    def send_batch(self, rank: int, summaries: list, now: float) -> None:
        self.events.append((now, rank, list(summaries)))


def _span(source: str, machine: MachineConfig, faults=()) -> float:
    return run_uninstrumented(source, machine, faults=faults, engine=ENGINE).total_time


def _bad_node_case(seed: int, rng: random.Random, n_ranks: int) -> RunCase:
    """CG on a cluster with one slow-memory node (paper Fig. 21)."""
    per_node = 16 if n_ranks >= 32 else 2
    machine = MachineConfig(
        n_ranks=n_ranks, ranks_per_node=per_node, mem_fraction=0.5, seed=seed
    )
    return RunCase(
        name="CG+bad_node",
        source=get_workload("CG").source(scale=1),
        machine=machine,
        faults=(SlowMemoryNode(node_id=rng.randrange(machine.n_nodes), mem_factor=0.55),),
        channel=f"drop=0.1,dup=0.05,seed={seed}",
        score_types=(SensorType.COMPUTATION,),
    )


def _wide_machine(seed: int, n_ranks: int) -> MachineConfig:
    return MachineConfig(
        n_ranks=n_ranks, ranks_per_node=8 if n_ranks >= 32 else 2, seed=seed
    )


def wide_clean(seed: int, smoke: bool = False) -> list[RunCase]:
    machine = _wide_machine(seed, SMOKE_RANKS if smoke else WIDE_RANKS)
    return [
        RunCase(name=name, source=get_workload(name).source(scale=1), machine=machine)
        for name in ("CG", "FT", "LULESH")
    ]


def wide_faulty(seed: int, smoke: bool = False) -> list[RunCase]:
    rng = random.Random(seed)
    n_ranks = SMOKE_RANKS if smoke else WIDE_RANKS
    channel = f"drop=0.1,dup=0.05,seed={seed}"
    machine = _wide_machine(seed, n_ranks)

    cg = get_workload("CG").source(scale=1)
    span = _span(cg, machine)
    first, second = rng.sample(range(machine.n_nodes), 2)
    contention = RunCase(
        name="CG+cpu_contention",
        source=cg,
        machine=machine,
        faults=(
            CpuContention((first,), t0=0.25 * span, t1=0.45 * span, cpu_factor=0.35),
            CpuContention((second,), t0=0.60 * span, t1=0.80 * span, cpu_factor=0.35),
        ),
        window_us=span / 16,
        batch_period_us=span / 16,
        channel=channel,
        score_types=(SensorType.COMPUTATION,),
    )

    ft = get_workload("FT").source(scale=1)
    clean_span = _span(ft, machine)
    episode = NetworkDegradation(t0=0.25 * clean_span, t1=4.0 * clean_span, factor=0.18)
    degraded_span = _span(ft, machine, faults=(episode,))
    network = RunCase(
        name="FT+network",
        source=ft,
        machine=machine,
        faults=(episode,),
        window_us=degraded_span / 16,
        batch_period_us=degraded_span / 16,
        channel=channel,
        score_types=(SensorType.NETWORK,),
    )
    return [_bad_node_case(seed, rng, n_ranks), contention, network]


def tenants(seed: int, workers: int, smoke: bool = False) -> TenantInputs:
    n_jobs = 4 if smoke else TENANT_JOBS
    sources = {name: get_workload(name).source(scale=1) for name in TENANT_PROGRAMS}

    def machine(job: int) -> MachineConfig:
        return MachineConfig(n_ranks=TENANT_RANKS, ranks_per_node=2, seed=seed + 100 + job)

    spans: dict[str, float] = {}
    specs = []
    for job in range(n_jobs):
        name = TENANT_PROGRAMS[job % len(TENANT_PROGRAMS)]
        faults: tuple = ()
        # Every fourth job, offset so that each program is faulted once.
        if job % 5 == 0:
            if name not in spans:
                spans[name] = _span(sources[name], machine(job))
            span = spans[name]
            faults = (
                CpuContention((1,), t0=0.2 * span, t1=0.7 * span, cpu_factor=0.3),
            )
        specs.append(
            JobSpec(
                source=sources[name],
                machine=machine(job),
                job_id=job,
                faults=faults,
                channel=f"drop=0.1,dup=0.05,seed={seed + job}",
                engine=ENGINE,
            )
        )
    return TenantInputs(
        specs=tuple(specs), workers=workers, window_us=5_000.0, batch_period_us=5_000.0
    )


def replay_timeline(seed: int, smoke: bool = False) -> Timeline:
    """Record the CG bad-node run's batch sends (the ``replay_*`` input)."""
    case = _bad_node_case(seed, random.Random(seed), SMOKE_RANKS if smoke else WIDE_RANKS)
    detector = DetectorConfig()
    static = compile_and_instrument(case.source, store=None)
    recorder = BatchRecorder(case.batch_period_us)
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=case.machine.n_ranks,
        config=detector,
        rule=NoGrouping(),
        server=recorder,  # type: ignore[arg-type]
    )
    sim = Simulator(
        static.program.module,
        case.machine,
        faults=case.faults,
        sensors=static.program.sensors,
        engine=ENGINE,
    ).run(runtime)
    return Timeline(
        # globally time-ordered, as a shared ingest front would see them
        events=sorted(recorder.events, key=lambda event: event[0]),
        runtime=runtime,
        machine=case.machine,
        faults=case.faults,
        total_time_us=sim.total_time,
        window_us=case.window_us,
        slice_us=detector.slice_us,
        channel_seed=seed,
    )


#: workload name -> inputs builder(seed, smoke)
BUILDERS = {
    "wide_clean": wide_clean,
    "wide_faulty": wide_faulty,
    "tenants_inproc": lambda seed, smoke=False: tenants(seed, 1, smoke),
    "tenants_fanout": lambda seed, smoke=False: tenants(seed, 2, smoke),
    "replay_bulk": replay_timeline,
    "replay_live": replay_timeline,
}


def build_inputs(workload: str, seed: int, smoke: bool = False):
    return BUILDERS[workload](seed, smoke)
