"""Differential tests: the lockstep SIMD-over-ranks tier vs the bytecode VM.

The lockstep engine fetches each instruction once and applies it to every
rank's lane at once; diverging rank subsets are masked, drained onto the
per-rank bytecode interpreters, and re-fused at the next convergence point.
None of that machinery may be observable: every workload analogue must
produce bit-identical results and hook streams under both engines, and the
hypothesis suite below *forces* arbitrary rank subsets to diverge mid-run
and checks both the outputs and the divergence accounting
(``sim.lockstep.diverged`` must name exactly the injected subset).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import compile_and_instrument, run_vsensor
from repro.frontend import parse_source
from repro.obs import Obs
from repro.runtime.batch_detector import RankView
from repro.runtime.detector import DetectorConfig
from repro.runtime.governor import GovernorConfig
from repro.sim.engine import Simulator
from repro.sim.faults import BadNode, IoDegradation, NetworkDegradation
from repro.sim.hooks import NullHooks, RawRecorder, RuntimeHooks, TeeHooks
from repro.sim.machine import MachineConfig
from repro.workloads import all_workloads
from tests.conftest import runtime_state

N_RANKS = 4

#: one fault scenario per workload — IO-heavy and network-heavy analogues
#: get the matching degradation, everything else a bad node
_FAULTS = {
    "FT": (NetworkDegradation(t0=0.0, t1=float("inf"), factor=0.4),),
    "CHKPT": (IoDegradation(t0=0.0, t1=float("inf"), factor=0.4),),
}
_DEFAULT_FAULT = (BadNode(node_id=0, cpu_factor=0.6, mem_factor=0.7),)


class _Recorder(RuntimeHooks):
    """Captures every observable event as a comparable tuple stream."""

    def __init__(self, functions: bool = False) -> None:
        self.events: list[tuple] = []
        self.wants_function_events = functions

    def on_sensor_record(self, rank, sensor_id, t_start, t_end, pmu) -> None:
        self.events.append(
            ("sensor", rank, sensor_id, t_start, t_end,
             pmu.instructions, pmu.cache_miss_rate)
        )

    def on_mpi_end(self, rank, op, t_begin, t_end, size) -> None:
        self.events.append(("mpi", rank, op, t_begin, t_end, size))

    def on_io(self, rank, op, t_begin, t_end, size) -> None:
        self.events.append(("io", rank, op, t_begin, t_end, size))

    def on_func_enter(self, rank, name, t) -> None:
        self.events.append(("enter", rank, name, t))

    def on_func_exit(self, rank, name, t) -> None:
        self.events.append(("exit", rank, name, t))

    def on_program_end(self, rank, t) -> None:
        self.events.append(("end", rank, t))


def _names() -> list[str]:
    return sorted(all_workloads())


@pytest.mark.parametrize("name", _names())
def test_uninstrumented_identical(name):
    wl = all_workloads()[name]
    module = parse_source(wl.source())
    machine = wl.machine(n_ranks=N_RANKS, ranks_per_node=2)
    r_bc = Simulator(module, machine, engine="bytecode").run()
    r_ls = Simulator(module, machine, engine="lockstep").run()
    assert r_bc == r_ls


@pytest.mark.parametrize("name", _names())
def test_instrumented_with_fault_identical(name):
    wl = all_workloads()[name]
    static = compile_and_instrument(wl.source())
    machine = wl.machine(n_ranks=N_RANKS, ranks_per_node=2)
    faults = _FAULTS.get(name, _DEFAULT_FAULT)
    streams = {}
    results = {}
    for engine in ("bytecode", "lockstep"):
        rec = _Recorder()
        results[engine] = Simulator(
            static.program.module,
            machine,
            faults=faults,
            sensors=static.program.sensors,
            engine=engine,
        ).run(rec)
        streams[engine] = rec.events
    assert results["bytecode"] == results["lockstep"]
    assert streams["bytecode"] == streams["lockstep"]
    assert streams["lockstep"]


def test_function_event_stream_identical():
    """Tracer-grade enter/exit events match too (FWQ is small enough)."""
    wl = all_workloads()["FWQ"]
    module = parse_source(wl.source())
    machine = wl.machine(n_ranks=2, ranks_per_node=2)
    streams = {}
    for engine in ("bytecode", "lockstep"):
        rec = _Recorder(functions=True)
        Simulator(module, machine, engine=engine).run(rec)
        streams[engine] = rec.events
    assert streams["bytecode"] == streams["lockstep"]
    assert any(e[0] == "enter" for e in streams["bytecode"])


def test_divergence_machinery_exercised():
    """The equivalence above must not be vacuous: known workloads hit every
    lifecycle path (masked divergence on AMG; full drain + refusion on LU)."""
    wl = all_workloads()["AMG"]
    sim = Simulator(
        parse_source(wl.source()), wl.machine(n_ranks=N_RANKS, ranks_per_node=2),
        engine="lockstep",
    )
    sim.run()
    amg = sim._lockstep_runner.stats
    assert amg["diverge"] > 0 and amg["drain"] == 0

    wl = all_workloads()["LU"]
    sim = Simulator(
        parse_source(wl.source()), wl.machine(n_ranks=N_RANKS, ranks_per_node=2),
        engine="lockstep",
    )
    sim.run()
    lu = sim._lockstep_runner.stats
    assert lu["fuse"] > 0 and lu["diverge"] > 0 and lu["drain"] > 0


def test_lockstep_obs_counters_match_stats():
    """``sim.lockstep.*`` counters mirror the runner's cumulative stats."""
    wl = all_workloads()["LU"]
    obs = Obs.create()
    sim = Simulator(
        parse_source(wl.source()), wl.machine(n_ranks=N_RANKS, ranks_per_node=2),
        engine="lockstep", obs=obs,
    )
    sim.run()
    stats = sim._lockstep_runner.stats
    for key in ("fuse", "diverge", "drain"):
        assert obs.metrics.counter(f"sim.lockstep.{key}").value == stats[key]
    assert (
        obs.metrics.counter("sim.lockstep.diverged").value
        == len(sim._lockstep_runner.diverged_ranks)
    )


# -- seeded-fault divergence property ---------------------------------------

_DIV_RANKS = 8


def _divergence_program(marked: frozenset[int], iterations: int = 2) -> str:
    """A program where exactly ``marked`` takes a data-dependent detour.

    Marked ranks burn extra compute and post a self-sendrecv inside the
    branch; the sendrecv is an MPI rendezvous under a divergent mask, which
    forces the lockstep tier to drain the whole batch onto scalar
    interpreters.  The allreduce after the branch is the convergence point
    where the batch re-fuses.
    """
    marks = "\n    ".join(f"MARK[{r}] = 1;" for r in sorted(marked))
    return f"""
global int MARK[{_DIV_RANKS}];

int main() {{
    int r; int i;
    r = MPI_Comm_rank();
    {marks if marks else "MARK[0] = 0;"}
    for (i = 0; i < {iterations}; i = i + 1) {{
        compute_units(20);
        if (MARK[r] == 1) {{
            compute_units(7);
            MPI_Sendrecv(r, 8);
        }}
        MPI_Allreduce(4);
    }}
    return 0;
}}
"""


@given(
    # Strict minorities only: the lockstep tier attributes divergence to the
    # smaller side of a split, so |S| <= 3 of 8 makes the accounting exact.
    marked=st.frozensets(
        st.integers(min_value=0, max_value=_DIV_RANKS - 1), max_size=3
    ),
    with_fault=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_injected_divergence_bit_identical(marked, with_fault):
    source = _divergence_program(marked)
    module = parse_source(source)
    machine = MachineConfig(n_ranks=_DIV_RANKS, ranks_per_node=4)
    faults = _DEFAULT_FAULT if with_fault else ()

    rec_bc = _Recorder()
    r_bc = Simulator(module, machine, faults=faults, engine="bytecode").run(rec_bc)

    obs = Obs.create()
    rec_ls = _Recorder()
    sim = Simulator(module, machine, faults=faults, engine="lockstep", obs=obs)
    r_ls = sim.run(rec_ls)

    assert r_bc == r_ls
    assert rec_bc.events == rec_ls.events

    runner = sim._lockstep_runner
    assert runner.diverged_ranks == set(marked)
    assert obs.metrics.counter("sim.lockstep.diverged").value == len(marked)
    if marked:
        # every injected divergence drains the batch and later re-fuses it
        assert runner.stats["diverge"] > 0
        assert runner.stats["drain"] > 0
        assert runner.stats["fuse"] > 0
    else:
        assert runner.stats == {
                "fuse": 0, "diverge": 0, "drain": 0, "governor_drain": 0
            }


# -- the vSensor runtime on the batch path -----------------------------------


@given(
    marked=st.frozensets(
        st.integers(min_value=0, max_value=_DIV_RANKS - 1), max_size=3
    ),
    with_fault=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_forced_drains_interleave_scalar_records_with_batches(marked, with_fault):
    """Same divergence injector, real runtime installed.  The Sendrecv
    sensor only ever executes on drained lanes (scalar records, the first
    of them before any fused Tock), the Allreduce sensor ticks drained and
    tocks re-fused (batches): both must advance one detector state."""
    source = _divergence_program(marked, iterations=30)
    machine = MachineConfig(n_ranks=_DIV_RANKS, ranks_per_node=4)
    runs = {
        engine: run_vsensor(
            source, machine, faults=_DEFAULT_FAULT if with_fault else (),
            engine=engine, store=None, batch_period_us=2_000.0,
            detector=DetectorConfig(slice_us=300.0),
        )
        for engine in ("bytecode", "lockstep")
    }
    assert runtime_state(runs["lockstep"]) == runtime_state(runs["bytecode"])
    detectors = runs["lockstep"].runtime.detectors
    assert all(isinstance(d, RankView) for d in detectors.values())
    per_rank = [r.sensor_records for r in runs["lockstep"].sim.ranks]
    assert per_rank == [60 if r in marked else 30 for r in range(_DIV_RANKS)]


def test_tee_unrolls_batches_for_members_without_batch_support():
    """``TeeHooks(runtime, RawRecorder())``: an ungoverned runtime takes
    each fused Tock whole, a governed one and the recorder take the
    ``RuntimeHooks`` default (one deferred record per lane), and every
    member's stream equals the bytecode tier's."""
    wl = all_workloads()["CG"]
    machine = wl.machine(n_ranks=16, ranks_per_node=4)
    for governor in (None, GovernorConfig()):
        runs, raw = {}, {}
        for engine in ("bytecode", "lockstep"):
            recorder = RawRecorder()
            runs[engine] = run_vsensor(
                wl.source(), machine, faults=_DEFAULT_FAULT, engine=engine,
                store=None, extra_hooks=(recorder,), governor=governor,
            )
            raw[engine] = recorder.records
        assert raw["lockstep"] == raw["bytecode"]
        assert raw["lockstep"]
        assert runtime_state(runs["lockstep"]) == runtime_state(runs["bytecode"])
        assert isinstance(runs["lockstep"].runtime.detectors[0], RankView)
        assert (runs["lockstep"].runtime.governor is None) == (governor is None)


def test_only_observed_notifications_are_buffered():
    """The runner decides once per hook name whether anything listens."""
    wl = all_workloads()["CG"]
    static = compile_and_instrument(wl.source())
    machine = wl.machine(n_ranks=N_RANKS, ranks_per_node=2)

    def sinks(hooks):
        sim = Simulator(
            static.program.module, machine, sensors=static.program.sensors,
            engine="lockstep",
        )
        sim.run(hooks)
        return set(sim._lockstep_runner.sinks)

    assert sinks(NullHooks()) == set()
    assert sinks(RuntimeHooks()) == set()
    assert sinks(RawRecorder()) == {"on_sensor_record"}
    assert sinks(TeeHooks(RawRecorder(), _Recorder())) == {
        "on_sensor_record", "on_mpi_end", "on_io", "on_func_enter",
        "on_func_exit", "on_program_end",
    }
