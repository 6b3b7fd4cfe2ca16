"""What multi-job phase 1 builds, and what crosses the pool.

A call compiles each distinct program once (``store=None`` means one
store for the call, not none), builds each distinct module's bytecode
once, and a pool worker ships back ``(sim, runtime)`` — no compile, no
per-row summary objects: the recorder's batches are views of the
detector log that travels with the runtime.
"""

from __future__ import annotations

import functools
import io
import pickle

import pytest

from repro.api import (
    JobSpec,
    StaticResult,
    compile_and_instrument,
    run_multi_job,
    run_vsensor,
)
from repro.frontend import ast_nodes as A
from repro.obs import Obs
from repro.parallel import JobTask
from repro.parallel.runner import _simulate_remote
from repro.pipeline import ArtifactStore
from repro.runtime.records import SliceSummary, SummaryView
from repro.sim import MachineConfig
from repro.sim.bytecode import compiler
from repro.sim.faults import CpuContention
from tests.conftest import SIMPLE_MPI_PROGRAM, detector_state
from tests.parallel.test_runner import _assert_runs_identical

SOURCES = [
    SIMPLE_MPI_PROGRAM.replace("NITER = 10", f"NITER = {n}") for n in (10, 12, 14, 16)
]


@functools.cache
def _span() -> float:
    machine = MachineConfig(n_ranks=4, ranks_per_node=2, seed=3)
    return run_vsensor(SOURCES[0], machine, store=None).sim.total_time


def _specs() -> list[JobSpec]:
    span = _span()
    fault = CpuContention(node_ids=(1,), t0=0.2 * span, t1=0.7 * span, cpu_factor=0.3)
    return [
        JobSpec(
            SOURCES[job % 4],
            MachineConfig(n_ranks=4, ranks_per_node=2, seed=100 + job),
            faults=(fault,) if job % 3 == 0 else (),
        )
        for job in range(16)
    ]


def _run(workers: int, obs: Obs | None = None):
    return run_multi_job(
        _specs(), n_shards=3, window_us=_span() / 10, batch_period_us=_span() / 10,
        store=None, obs=obs, workers=workers,
    )


class _Recorder(pickle.Pickler):
    """A pickler noting the type of every object it writes."""

    def __init__(self, file) -> None:
        super().__init__(file)
        self.types: set[type] = set()

    def persistent_id(self, obj):
        self.types.add(type(obj))
        return None


def test_one_compile_and_one_bytecode_per_distinct_program(monkeypatch):
    _span()  # its calibration run compiles a program of its own
    built = []
    real = compiler.compile_module

    def counting(module, externs):
        built.append(module)
        return real(module, externs)

    monkeypatch.setattr(compiler, "compile_module", counting)
    obs = Obs.create()
    run = _run(1, obs)
    assert obs.metrics.counter("pipeline.cache_misses").value == 16  # 4 passes x 4
    assert obs.metrics.counter("pipeline.cache_hits").value == 48
    assert len(built) == 4
    modules = {id(job.static.program.module) for job in run.jobs.values()}
    assert modules == {id(module) for module in built}


@pytest.mark.parametrize("workers", [1, 2])
def test_runtime_sensors_are_the_compile_sensors(workers):
    obs = Obs.create()
    run = _run(workers, obs)
    for job in run.jobs.values():
        assert job.runtime.sensors is job.static.program.sensors
    # The parent compiles through its per-call store on the pool path too.
    assert obs.metrics.counter("pipeline.cache_misses").value == 16


def test_pool_payload_holds_no_compile_and_no_row_objects():
    spec = _specs()[0]
    task = JobTask(
        job_id=0, source=spec.source, machine=spec.machine, faults=tuple(spec.faults),
        detector=None, rule=None, engine="bytecode", max_depth=3,
        batch_period_us=_span() / 10,
    )
    sim, runtime = payload = _simulate_remote(task)
    assert runtime.server.events
    assert all(type(rows) is SummaryView for _, _, rows in runtime.server.events)
    recorder = _Recorder(io.BytesIO())
    recorder.dump(payload)
    assert recorder.types.isdisjoint({StaticResult, SliceSummary, A.Module})
    assert SummaryView in recorder.types
    # The rows reached through the views after the trip are the rows sent.
    sent = [list(rows) for _, _, rows in runtime.server.events]
    _, back = pickle.loads(pickle.dumps(payload))
    assert [list(rows) for _, _, rows in back.server.events] == sent
    assert detector_state(back, sim) == detector_state(runtime, sim)


def test_workers_two_is_bit_identical_to_workers_one():
    serial, fanned = _run(1), _run(2)
    _assert_runs_identical(serial, fanned)
    for job_id, job in serial.jobs.items():
        other = fanned.jobs[job_id]
        assert detector_state(job.runtime, job.sim) == detector_state(
            other.runtime, other.sim
        )
        assert job.sim.ranks == other.sim.ranks


def test_runs_leave_the_shared_compile_unmutated():
    """The compile cache hands one tree to every run of a program, so no
    interpreter tier may write to it: the StaticResult pickles to the same
    bytes before and after runs on every tier."""
    store = ArtifactStore()
    machine = MachineConfig(n_ranks=4, ranks_per_node=2, seed=5)
    static = compile_and_instrument(SOURCES[1], store=store)
    before = pickle.dumps(static)
    for engine in ("bytecode", "lockstep", "ast"):
        run = run_vsensor(SOURCES[1], machine, engine=engine, store=store)
        assert run.static.program is static.program
    run_multi_job(
        [JobSpec(SOURCES[1], machine), JobSpec(SOURCES[1], machine, engine="lockstep")],
        store=store,
    )
    module = static.program.module
    assert list(module.bytecode) == [None]  # the runs shared one ProgramCode
    assert pickle.dumps(static) == before
    assert A.clone_tree(module).bytecode == {}
