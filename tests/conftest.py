"""Shared fixtures: canonical sources from the paper and tiny machines."""

from __future__ import annotations

import pytest

from repro.frontend import parse_source
from repro.runtime.detector import DetectorConfig
from repro.sim import MachineConfig


# The paper's Figure 4 / Figure 8 running example, translated to the mini
# language.  Loop/call labels L1..L5 / C1..C3 follow the paper.
PAPER_EXAMPLE = """
global int GLBV = 40;
global int count = 0;
int foo(int x, int y) {
    int i; int j; int value = 0;
    for (i = 0; i < x; i = i + 1) {
        value = value + y;
        for (j = 0; j < 10; j = j + 1) value = value - 1;
    }
    if (x > GLBV) value = value - x * y;
    return value;
}
int main() {
    int n; int k;
    for (n = 0; n < 100; n = n + 1) {
        for (k = 0; k < 10; k = k + 1) {
            foo(n, k);
            foo(k, n);
        }
        for (k = 0; k < 10; k = k + 1) count = count + 1;
        MPI_Barrier();
    }
    return 0;
}
"""

# Figure 6: three subloops of an outer loop with different variance.
FIG6_EXAMPLE = """
global int count = 0;
int main() {
    int n; int k;
    for (n = 0; n < 100; n = n + 1) {
        for (k = 0; k < 10; k = k + 1) count = count + 1;
        for (k = 0; k < n; k = k + 1) count = count + 1;
        for (k = 0; k < 10; k = k + 1) { if (k < n) count = count + 1; }
    }
    return 0;
}
"""

# Figure 9: rank-dependent vs rank-invariant workload.
FIG9_EXAMPLE = """
global int count = 0;
int main() {
    int n; int k; int rank;
    rank = MPI_Comm_rank();
    for (n = 0; n < 100; n = n + 1) {
        for (k = 0; k < 10; k = k + 1) { if (rank % 2) count = count + 1; }
        for (k = 0; k < 10; k = k + 1) count = count + 1;
    }
    return 0;
}
"""

SIMPLE_MPI_PROGRAM = """
global int NITER = 10;
void kernel() {
    int i;
    for (i = 0; i < 10; i = i + 1) compute_units(20);
}
int main() {
    int n;
    for (n = 0; n < NITER; n = n + 1) {
        kernel();
        MPI_Allreduce(16);
    }
    return 0;
}
"""


@pytest.fixture
def paper_module():
    return parse_source(PAPER_EXAMPLE)


@pytest.fixture
def fig6_module():
    return parse_source(FIG6_EXAMPLE)


@pytest.fixture
def fig9_module():
    return parse_source(FIG9_EXAMPLE)


@pytest.fixture
def simple_module():
    return parse_source(SIMPLE_MPI_PROGRAM)


@pytest.fixture
def small_machine():
    """4 ranks on 2 nodes, noise disabled for determinism-sensitive tests."""
    from repro.sim.noise import NoiseConfig

    return MachineConfig(
        n_ranks=4,
        ranks_per_node=2,
        noise=NoiseConfig(
            jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0
        ),
    )


@pytest.fixture
def noisy_machine():
    return MachineConfig(n_ranks=4, ranks_per_node=2)


def detector_state(runtime, sim) -> dict:
    """The rank side of a run — everything upstream of ``runtime.server``,
    so callers with different sinks can be compared by it."""
    detectors = runtime.detectors
    return {
        "events": list(runtime.events),
        "summaries": {r: list(d.summaries) for r, d in detectors.items()},
        "rank_events": {r: list(d.events) for r, d in detectors.items()},
        "shutoff": {r: set(d.shutoff) for r, d in detectors.items()},
        "records": {r: d.records_processed for r, d in detectors.items()},
        "standards": {
            r: {
                (s.sensor_id, s.group): d.history.standard_time(s.sensor_id, s.group)
                for s in d.summaries
            }
            for r, d in detectors.items()
        },
        "total_time": sim.total_time,
    }


def runtime_state(run) -> dict:
    """Everything one ``run_vsensor`` run's dynamic module produced, in a
    form two engines' runs can be compared by (order of events included)."""
    return {
        **detector_state(run.runtime, run.sim),
        "matrices": {
            stype.name: matrix.tobytes() for stype, matrix in run.report.matrices.items()
        },
        "inter_events": list(run.runtime.server.inter_events),
        "channel_stats": run.channel_stats,
        "bytes_to_server": run.report.bytes_to_server,
    }


class NeutralGovernor:
    """Engine-neutral governor double: it hears every runtime signal and
    has no control table, so the engine runs exactly as ungoverned and only
    the runtime's record path changes (an installed governor means the
    scalar, one-record-at-a-time path)."""

    def __init__(self) -> None:
        self.decisions: dict[int, dict[str, int]] = {}
        self.shutoffs: list[tuple[int, int]] = []

    def on_shutoff(self, rank: int, sensor_id: int) -> None:
        self.shutoffs.append((rank, sensor_id))

    def on_record(self, rank: int, now: float) -> None:
        pass

    def on_variance(self, rank, now, performance=0.0, sensor_type=None) -> None:
        pass

    # -- what the report reads off a governor
    def coverage(self) -> float:
        return 1.0

    def totals(self) -> dict[str, int]:
        return {"suspend": len(self.shutoffs)}

    def suspended_sensors(self) -> int:
        return len(self.shutoffs)


def run_with_governor(
    governor,
    source: str,
    machine: MachineConfig,
    *,
    engine: str = "bytecode",
    faults=(),
    detector: DetectorConfig | None = None,
    window_us: float = 200_000.0,
    batch_period_us: float = 100_000.0,
    extra_hooks=(),
):
    """``run_vsensor``'s unsharded path with ``governor`` handed straight to
    ``VSensorRuntime(governor=...)`` and no probe control in the engine."""
    from repro.api import VSensorRun, compile_and_instrument
    from repro.runtime.server import AnalysisServer
    from repro.runtime.vsensor_hooks import VSensorRuntime
    from repro.sim import Simulator
    from repro.sim.hooks import TeeHooks

    static = compile_and_instrument(source, store=None)
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=machine.n_ranks,
        config=detector or DetectorConfig(),
        server=AnalysisServer(
            n_ranks=machine.n_ranks, window_us=window_us, batch_period_us=batch_period_us
        ),
        governor=governor,
    )
    hooks = TeeHooks(runtime, *extra_hooks) if extra_hooks else runtime
    sim = Simulator(
        static.program.module,
        machine,
        faults=tuple(faults),
        sensors=static.program.sensors,
        engine=engine,
    ).run(hooks)
    return VSensorRun(
        static=static, sim=sim, runtime=runtime, report=runtime.report(sim.total_time)
    )
