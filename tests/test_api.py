"""High-level API surface tests."""

import numpy as np
import pytest

from repro.api import (
    JobSpec,
    StaticResult,
    compile_and_instrument,
    run_multi_job,
    run_uninstrumented,
    run_vsensor,
)
from repro.instrument.annotations import Annotations, SnippetRef
from repro.runtime.detector import DetectorConfig
from repro.sim import MachineConfig
from repro.sim.faults import BadNode
from repro.workloads import get_workload
from tests.conftest import SIMPLE_MPI_PROGRAM


def test_static_result_fields():
    static = compile_and_instrument(SIMPLE_MPI_PROGRAM)
    assert isinstance(static, StaticResult)
    assert static.module.has_function("main")
    assert static.identification.sensor_count > 0
    assert "vs_tick" in static.source


def test_min_estimated_work_parameter():
    full = compile_and_instrument(SIMPLE_MPI_PROGRAM)
    filtered = compile_and_instrument(SIMPLE_MPI_PROGRAM, min_estimated_work=1e9)
    assert len(filtered.plan.selected) <= len(full.plan.selected)


def test_annotations_parameter():
    # Exclude every identified sensor: nothing instrumented.
    probe = compile_and_instrument(SIMPLE_MPI_PROGRAM)
    marks = Annotations(
        exclude=[SnippetRef(s.function, s.loc.line) for s in probe.identification.sensors]
    )
    static = compile_and_instrument(SIMPLE_MPI_PROGRAM, annotations=marks)
    assert static.plan.selected == []
    assert "vs_tick" not in static.source


def test_run_vsensor_returns_everything():
    run = run_vsensor(SIMPLE_MPI_PROGRAM, MachineConfig(n_ranks=4, ranks_per_node=2))
    assert run.sim.total_time > 0
    assert run.report is not None
    assert run.runtime.server.summaries_received > 0
    assert run.static.plan.selected


def test_run_uninstrumented_has_no_records():
    result = run_uninstrumented(SIMPLE_MPI_PROGRAM, MachineConfig(n_ranks=4, ranks_per_node=2))
    assert all(r.sensor_records == 0 for r in result.ranks)


def test_extra_hooks_receive_events():
    from repro.sim.hooks import RawRecorder

    recorder = RawRecorder()
    run = run_vsensor(
        SIMPLE_MPI_PROGRAM,
        MachineConfig(n_ranks=4, ranks_per_node=2),
        extra_hooks=[recorder],
    )
    assert len(recorder.records) == sum(r.sensor_records for r in run.sim.ranks)


def test_seed_controls_determinism():
    m1 = MachineConfig(n_ranks=4, ranks_per_node=2, seed=1)
    m2 = MachineConfig(n_ranks=4, ranks_per_node=2, seed=2)
    r1a = run_vsensor(SIMPLE_MPI_PROGRAM, m1)
    r1b = run_vsensor(SIMPLE_MPI_PROGRAM, MachineConfig(n_ranks=4, ranks_per_node=2, seed=1))
    r2 = run_vsensor(SIMPLE_MPI_PROGRAM, m2)
    assert r1a.sim.total_time == r1b.sim.total_time
    assert r1a.sim.total_time != r2.sim.total_time


def _regions(report):
    return sorted(
        (r.sensor_type.value, r.rank_lo, r.rank_hi, r.t_start_us, r.cells)
        for r in report.regions
    )


def _regions_clustered_at(report, threshold):
    from repro.runtime.report import cluster_low_cells

    return sorted(
        (r.sensor_type.value, r.rank_lo, r.rank_hi, r.t_start_us, r.cells)
        for sensor_type, matrix in report.matrices.items()
        for r in cluster_low_cells(matrix, sensor_type, report.window_us, threshold)
    )


#: CG at 8 ranks, 2 per node, with a mildly bad node 0: the report's regions
#: differ between the default threshold (0.7) and the one these tests set
_BAD_NODE = dict(
    machine=MachineConfig(n_ranks=8, ranks_per_node=2),
    faults=[BadNode(node_id=0, cpu_factor=0.9, mem_factor=0.9)],
)


def test_run_threshold_reaches_server_report_and_live_reporter():
    from repro.runtime.live import LiveReporter

    source = get_workload("CG").source()
    live = LiveReporter(period_us=50_000.0)
    run = run_vsensor(
        source,
        _BAD_NODE["machine"],
        faults=_BAD_NODE["faults"],
        detector=DetectorConfig(threshold=0.95),
        live=live,
    )
    assert run.runtime.server.threshold == 0.95
    assert _regions(run.report) == _regions_clustered_at(run.report, 0.95)
    assert _regions(run.report) != _regions_clustered_at(run.report, 0.7)
    for snapshot in live.snapshots:
        assert snapshot.low_cells == {
            t: int((np.isfinite(m) & (m < 0.95)).sum())
            for t, m in snapshot.matrices.items()
        }


def test_each_job_of_a_multi_job_run_uses_its_own_threshold():
    source = get_workload("CG").source()
    jobs = [
        JobSpec(source, _BAD_NODE["machine"], faults=_BAD_NODE["faults"],
                detector=DetectorConfig(threshold=0.95)),
        JobSpec(source, _BAD_NODE["machine"], faults=_BAD_NODE["faults"]),
    ]
    multi = run_multi_job(jobs, n_shards=2)
    strict, default = multi.jobs[0], multi.jobs[1]
    assert multi.service.ports[0].threshold == 0.95
    assert multi.service.ports[1].threshold == 0.7
    assert _regions(strict.report) == _regions_clustered_at(strict.report, 0.95)
    assert _regions(default.report) == _regions_clustered_at(default.report, 0.7)
    assert _regions(strict.report) != _regions(default.report)
