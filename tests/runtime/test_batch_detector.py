"""Differential tests for the rank-batched probe -> detector path.

The lockstep tier hands ``VSensorRuntime`` one record batch per fused Tock
and a :class:`BatchDetector` advances every rank's state at once.  None of
that may be observable: stepped record by record against one
:class:`RankDetector` per rank, and run end to end against the bytecode
tier (which still uses the scalar classes), every output must be equal —
``runtime.events`` *order* included, because cross-rank effects are
deferred to each lane's scalar delivery point.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import run_vsensor
from repro.obs import Obs
from repro.obs.golden import canonical_metrics
from repro.obs.metrics import MetricsRegistry
from repro.runtime.batch_detector import BatchDetector, RankView
from repro.runtime.detector import DetectorConfig, RankDetector
from repro.runtime.dynrules import (
    CacheMissBands,
    InstructionBands,
    NoGrouping,
    ThresholdMiss,
)
from repro.runtime.live import LiveReporter
from repro.runtime.records import SensorRecord, SummaryColumns
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.sensors.model import SensorType
from repro.sim import CpuContention, MachineConfig
from repro.sim.faults import BadNode
from repro.sim.hooks import SensorBatch
from repro.sim.pmu import PmuSample
from repro.workloads import all_workloads
from tests.conftest import SIMPLE_MPI_PROGRAM, runtime_state

# -- (a) record streams: vector state vs one RankDetector per rank -----------

N = 4
#: short slices and a 3-record shutoff window, so a few dozen records roll
#: slices with count > 1 and cross the §5.3 decision on both sides
CONFIG = DetectorConfig(slice_us=10.0, min_duration_us=2.0, shutoff_after=3)
RULES = {
    "none": NoGrouping,
    "miss-bands": CacheMissBands,
    "instruction-bands": InstructionBands,
    "threshold-miss": ThresholdMiss,
}

_durations = st.sampled_from([-1.0, 0.0, 1.9999, 2.0, 2.0001, 5.0, 40.0]) | st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False
)
_lane = st.tuples(
    st.sampled_from([0.0, 0.5, 3.0, 12.0, 30.0]),  # gap since the rank's last record
    _durations,
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),  # instructions
    st.floats(min_value=0.0, max_value=0.95, allow_nan=False),  # miss rate
)
_step = st.tuples(
    st.sampled_from([7, 9]),  # sensor id
    st.dictionaries(st.integers(0, N - 1), _lane, min_size=1, max_size=N),
)


def _records(steps):
    """Per step, the per-rank SensorRecords in rank order (rank clocks advance)."""
    clock = [0.0] * N
    out = []
    for sensor_id, lanes in steps:
        records = []
        for rank in sorted(lanes):
            gap, duration, instructions, miss = lanes[rank]
            t_start = clock[rank] + gap
            t_end = t_start + duration
            clock[rank] = max(t_start, t_end)
            records.append(
                SensorRecord(
                    rank, sensor_id, SensorType.COMPUTATION, t_start, t_end, instructions, miss
                )
            )
        out.append(records)
    return out


def _state(detectors, keys):
    return [
        (
            d.summaries,
            d.events,
            d.shutoff,
            d.records_processed,
            d.history.entries(),
            [d.history.standard_time(*key) for key in keys],
        )
        for d in detectors
    ]


@given(
    steps=st.lists(_step, min_size=1, max_size=40),
    rule=st.sampled_from(sorted(RULES)),
    split=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=150, deadline=None)
def test_record_streams_match_rank_detectors(steps, rule, split):
    ref_metrics, vec_metrics = MetricsRegistry(), MetricsRegistry()
    reference = [RankDetector(r, CONFIG, RULES[rule](), metrics=ref_metrics) for r in range(N)]
    batches = _records(steps)
    ref_returned = [[reference[r.rank].add(r) for r in records] for records in batches]

    # The first ``split`` steps run on scalar detectors that are then
    # adopted (a lockstep run whose first fused Tock follows a drain).
    vec_returned = []
    if split:
        scalar = {r: RankDetector(r, CONFIG, RULES[rule](), metrics=vec_metrics) for r in range(N)}
        for records in batches[:split]:
            vec_returned.append([scalar[r.rank].add(r) for r in records])
        vec = BatchDetector.adopt(scalar)
    else:
        vec = BatchDetector(N, CONFIG, RULES[rule](), metrics=vec_metrics)
    views = [vec.view(r) for r in range(N)]
    for records in batches[split:]:
        if len(records) == 1:
            # a drained lane's scalar record steps the same state
            vec_returned.append([views[records[0].rank].add(records[0])])
            continue
        new = vec.step(
            records[0].sensor_id,
            records[0].sensor_type,
            np.array([r.rank for r in records]),
            np.array([r.t_start for r in records]),
            np.array([r.t_end for r in records]),
            np.array([r.instructions for r in records]),
            np.array([r.cache_miss_rate for r in records]),
        )
        by_lane = dict(new)
        vec_returned.append(
            [[by_lane[i]] if by_lane.get(i) else [] for i in range(len(records))]
        )
    assert vec_returned == ref_returned

    keys = sorted({key for d in reference for key in d.history._standard})
    assert _state(views, keys) == _state(reference, keys)
    assert [v.finish() for v in views] == [d.finish() for d in reference]
    assert _state(views, keys) == _state(reference, keys)
    assert canonical_metrics(vec_metrics) == canonical_metrics(ref_metrics)
    assert vec_metrics.histogram("detector.slice_duration_us").sum == pytest.approx(
        ref_metrics.histogram("detector.slice_duration_us").sum
    )


def test_shutoff_decision_boundary_per_lane():
    """One batch stream in which the lanes' means sit just under, exactly
    on and just over ``min_duration_us`` when the §5.3 window completes:
    only the first lane shuts off, and its deciding record is dropped."""
    durations = np.array([1.9999, 2.0, 2.0001])
    ranks = np.arange(3)
    vec = BatchDetector(3, CONFIG)
    reference = [RankDetector(r, CONFIG) for r in range(3)]
    for k in range(CONFIG.shutoff_after + 2):
        t_start = np.full(3, 100.0 * k)
        vec.step(7, SensorType.COMPUTATION, ranks, t_start, t_start + durations,
                 np.ones(3), np.zeros(3))
        for r in range(3):
            reference[r].add(SensorRecord(
                r, 7, SensorType.COMPUTATION, 100.0 * k, 100.0 * k + durations[r], 1.0, 0.0
            ))
    views = [vec.view(r) for r in range(3)]
    assert [v.shutoff for v in views] == [{7}, set(), set()]
    assert [v.records_processed for v in views] == [CONFIG.shutoff_after, 5, 5]
    assert _state(views, [(7, "")]) == _state(reference, [(7, "")])


# -- (a') the log behind ``summaries`` and the runtime's outbound batches ------


def test_view_summaries_have_constant_time_len_and_list_to_the_scalar_rows(monkeypatch):
    records = _records([(7, {r: (0.0, 5.0, 1.0, 0.1) for r in range(N)})] * 12)
    vec = BatchDetector(N, CONFIG)
    reference = [RankDetector(r, CONFIG) for r in range(N)]
    for batch in records:
        vec.step(
            7, SensorType.COMPUTATION, np.arange(N),
            np.array([r.t_start for r in batch]), np.array([r.t_end for r in batch]),
            np.ones(N), np.full(N, 0.1),
        )
        for r in batch:
            reference[r.rank].add(r)
    views = [vec.view(r) for r in range(N)]
    with monkeypatch.context() as patch:
        # no row object is built to answer len(): it is the log's counter
        patch.setattr(SummaryColumns, "to_summaries", None)
        assert [len(v.summaries) for v in views] == [len(d.summaries) for d in reference]
        assert len(views[0].summaries[2:]) == len(reference[0].summaries) - 2
    assert len(views[0].summaries) > 2
    assert [list(v.summaries) for v in views] == [d.summaries for d in reference]
    assert views[1].summaries[1:3] == reference[1].summaries[1:3]
    assert views[1].summaries[-1] == reference[1].summaries[-1]


class _BatchLog:
    """Duck-typed server: every shipped batch, as rows, with its send time."""

    batch_period_us = 25.0

    def __init__(self) -> None:
        self.sent: dict[int, list] = {}

    def send_batch(self, rank, summaries, now) -> None:
        self.sent.setdefault(rank, []).append((list(summaries), now))


def test_adoption_with_unshipped_rows_ships_each_row_once_in_scalar_order():
    """A drain before the first fused Tock leaves closed slices waiting in
    the scalar detectors; the vector state adopts them and the next due
    batch carries them ahead of the rows the fused Tocks close."""
    sensors = {7: SimpleNamespace(sensor_type=SensorType.COMPUTATION)}
    # per rank: records every 6 us (slices of 10 us close every other one);
    # the first 3 arrive one by one, the rest as fused Tocks
    times = [6.0 * k for k in range(14)]

    def runtime():
        rt = VSensorRuntime(sensors=sensors, n_ranks=N, config=CONFIG, server=_BatchLog())
        rt.on_program_start(N)
        return rt

    scalar, fused = runtime(), runtime()
    for t in times:
        for rank in range(N):
            scalar.on_sensor_record(rank, 7, t, t + 5.0 + rank, PmuSample(1.0, 0.1))
    for t in times[:3]:
        for rank in range(N):
            fused.on_sensor_record(rank, 7, t, t + 5.0 + rank, PmuSample(1.0, 0.1))
    assert any(len(d.summaries) for d in fused.detectors.values())
    assert not fused.server.sent, "nothing was due yet: the rows wait in the detectors"
    for t in times[3:]:
        deferred = []
        fused.on_sensor_batch(
            SensorBatch(7, np.arange(N), np.full(N, t), t + 5.0 + np.arange(N),
                        np.ones(N), np.full(N, 0.1)),
            lambda lane, fn, args: deferred.append((fn, args)),
        )
        for fn, args in deferred:
            fn(*args)
    assert all(isinstance(d, RankView) for d in fused.detectors.values())
    for rt in (scalar, fused):
        for rank in range(N):
            rt.on_program_end(rank, times[-1] + 20.0)
    assert fused.server.sent == scalar.server.sent
    for rank, batches in fused.server.sent.items():
        shipped = [row for rows, _ in batches for row in rows]
        assert shipped == list(fused.detectors[rank].summaries)
        assert len(batches) > 1
    assert fused.events == scalar.events


# -- (b) whole runs: lockstep (batches) vs bytecode (scalar detectors) -------

LOSSY = "drop=0.1,dup=0.05,reorder=0.1"
_FAULT = (BadNode(node_id=0, cpu_factor=0.6, mem_factor=0.7),)


def _run(source, machine, engine, **kwargs):
    kwargs.setdefault("window_us", 10_000.0)
    kwargs.setdefault("batch_period_us", 5_000.0)
    return run_vsensor(source, machine, engine=engine, store=None, **kwargs)


@pytest.mark.parametrize("rule", [NoGrouping, CacheMissBands])
@pytest.mark.parametrize("channel", [None, LOSSY])
@pytest.mark.parametrize("n_ranks", [16, 32])
@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_lockstep_run_matches_bytecode(name, n_ranks, channel, rule):
    wl = all_workloads()[name]
    machine = wl.machine(n_ranks=n_ranks, ranks_per_node=4)
    runs = {
        engine: _run(
            wl.source(), machine, engine, faults=_FAULT, channel=channel, rule=rule()
        )
        for engine in ("bytecode", "lockstep")
    }
    assert runtime_state(runs["lockstep"]) == runtime_state(runs["bytecode"])
    # ... and not vacuously: the lockstep run did take the batch path.
    assert all(isinstance(d, RankView) for d in runs["lockstep"].runtime.detectors.values())
    assert all(isinstance(d, RankDetector) for d in runs["bytecode"].runtime.detectors.values())
    assert runs["bytecode"].runtime.detectors[0].summaries


def test_obs_counters_and_histograms_match_bytecode():
    """The batch path stays on under ``obs=`` and counts what the scalar
    path counts (histogram sums may differ by float reassociation only)."""
    wl = all_workloads()["CG"]
    machine = wl.machine(n_ranks=16, ranks_per_node=4)
    metrics = {}
    for engine in ("bytecode", "lockstep"):
        obs = Obs.create()
        run = _run(wl.source(), machine, engine, faults=_FAULT, channel=LOSSY, obs=obs)
        metrics[engine] = canonical_metrics(obs.metrics)
    assert isinstance(run.runtime.detectors[0], RankView)
    for doc in metrics.values():
        for section in doc.values():
            for key in [k for k in section if k.startswith("sim.lockstep.")]:
                del section[key]
    assert metrics["lockstep"] == metrics["bytecode"]
    assert metrics["lockstep"]["counters"]["detector.records"] > 0
    assert metrics["lockstep"]["counters"]["runtime.batches_shipped"] > 0


# -- (e) live snapshots ------------------------------------------------------


def test_live_snapshots_match_bytecode():
    machine = MachineConfig(n_ranks=16, ranks_per_node=4)
    span = _run(SIMPLE_MPI_PROGRAM, machine, "bytecode").sim.total_time
    fault = CpuContention(node_ids=(0,), t0=0.1 * span, t1=0.5 * span, cpu_factor=0.25)
    snapshots = {}
    for engine in ("bytecode", "lockstep"):
        reporter = LiveReporter(period_us=span / 20)
        _run(
            SIMPLE_MPI_PROGRAM, machine, engine, faults=(fault,), live=reporter,
            window_us=span / 20, batch_period_us=span / 40, channel=LOSSY,
        )
        snapshots[engine] = [
            (
                s.virtual_time_us,
                s.intra_events,
                s.low_cells,
                {t: m.tobytes() for t, m in s.matrices.items()},
                s.channel,
                s.degraded_ranks,
            )
            for s in reporter.snapshots
        ]
    assert snapshots["lockstep"] == snapshots["bytecode"]
    assert len(snapshots["lockstep"]) >= 5
    assert any(low for _, _, low, *_ in snapshots["lockstep"])


# -- (f) a governor means scalar ---------------------------------------------


@pytest.mark.parametrize("policy", ["paper-shutoff", "adaptive"])
def test_governed_lockstep_run_takes_scalar_path(policy):
    wl = all_workloads()["CG"]
    machine = wl.machine(n_ranks=16, ranks_per_node=4)
    run = _run(wl.source(), machine, "lockstep", faults=_FAULT, governor=policy)
    runtime = run.runtime
    assert not runtime.accepts_sensor_batches
    assert runtime._vector is None
    assert all(isinstance(d, RankDetector) for d in runtime.detectors.values())
    if policy == "paper-shutoff":
        # the §5.3-only policy is bit-identical to no governor at all —
        # scalar detectors on one side, batches on the other
        ungoverned = _run(wl.source(), machine, "lockstep", faults=_FAULT)
        assert runtime_state(run) == runtime_state(ungoverned)
        assert ungoverned.runtime.accepts_sensor_batches
