"""Differential tests for the one detector state of every tier.

A run's :class:`BatchDetector` takes records one at a time through ``add``
(scalar tiers, governed runs, drained lockstep lanes) and one fused Tock at
a time through ``step``.  Neither may be observable: fed record by record
against one :class:`RankOracle` per rank, with the two interleaved on the
same ranks, and run end to end on the lockstep tier against the bytecode
tier, every output must be equal — ``runtime.events`` *order* included,
because cross-rank effects are deferred to each lane's scalar delivery
point.
"""

from __future__ import annotations

from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import run_vsensor
from repro.obs import Obs
from repro.obs.golden import canonical_metrics
from repro.obs.metrics import MetricsRegistry
from repro.runtime.batch_detector import BatchDetector, RankView
from repro.runtime.detector import DetectorConfig
from repro.runtime.dynrules import (
    CacheMissBands,
    InstructionBands,
    NoGrouping,
    ThresholdMiss,
)
from repro.runtime.governor import GovernorConfig
from repro.runtime.live import LiveReporter
from repro.runtime.records import SensorRecord, SummaryColumns
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.sensors.model import SensorType
from repro.sim import CpuContention, MachineConfig
from repro.sim.faults import BadNode
from repro.sim.hooks import SensorBatch
from repro.sim.pmu import PmuSample
from repro.workloads import all_workloads
from tests.conftest import (
    SIMPLE_MPI_PROGRAM,
    NeutralGovernor,
    run_with_governor,
    runtime_state,
)
from tests.runtime.detector_oracle import RankOracle

# -- (a) record streams: add, step and both vs one RankOracle per rank -------

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
            list(d.summaries),
            list(d.events),
            set(d.shutoff),
            d.records_processed,
            d.history.entries(),
            [d.history.standard_time(*key) for key in keys],
        )
        for d in detectors
    ]


def _feed(vec, records, drained):
    """One step's records: the lanes in ``drained`` one by one through
    ``add``, the others as one fused ``step``; each record's new events."""
    out = {}
    for r in records:
        if r.rank in drained:
            event = vec.add(
                r.rank, r.sensor_id, r.sensor_type, r.t_start, r.t_end,
                r.instructions, r.cache_miss_rate,
            )
            out[r.rank] = [] if event is None else [event]
    fused = [r for r in records if r.rank not in drained]
    if fused:
        new = dict(vec.step(
            fused[0].sensor_id,
            fused[0].sensor_type,
            np.array([r.rank for r in fused]),
            np.array([r.t_start for r in fused]),
            np.array([r.t_end for r in fused]),
            np.array([r.instructions for r in fused]),
            np.array([r.cache_miss_rate for r in fused]),
        ))
        for i, r in enumerate(fused):
            out[r.rank] = [new[i]] if i in new else []
    return [out[r.rank] for r in records]


def _python_fields(event) -> bool:
    """No NumPy scalar rides in an event."""
    return all(type(v) in (int, float, str, SensorType) for v in astuple(event))


@given(
    steps=st.lists(_step, min_size=1, max_size=40),
    rule=st.sampled_from(sorted(RULES)),
    drains=st.lists(st.frozensets(st.integers(0, N - 1)), max_size=40),
)
@example(
    # the §5.3 window completes with means just under, exactly on and just
    # over ``min_duration_us``, on lanes that drain and re-fuse around it
    steps=[(7, {r: (0.0, d, 1.0, 0.1 + 0.3 * r) for r, d in enumerate(
        [1.9999, 2.0, 2.0001, 2.0]
    )})] * 5,
    rule="threshold-miss",
    drains=[frozenset({1}), frozenset(), frozenset({2, 3}), frozenset({0, 1})],
)
@settings(max_examples=150, deadline=None)
def test_record_streams_match_rank_detectors(steps, rule, drains):
    """Per-record ``add``, fused ``step``, and random interleavings of the
    two on the same ranks (lanes that drain mid-stream and re-fuse) each
    equal the oracle: returned events, summaries, shutoff sets and
    notices, standard times, record counts and metrics, before and after
    ``finish``."""
    batches = _records(steps)
    ref_metrics, ref_notices = MetricsRegistry(), []
    reference = [
        RankOracle(r, CONFIG, RULES[rule](), ref_metrics, lambda *n: ref_notices.append(n))
        for r in range(N)
    ]
    ref_returned = [[reference[r.rank].add(r) for r in records] for records in batches]
    keys = sorted({key for d in reference for key in d.history._standard})
    ref_state = _state(reference, keys)
    ref_finished = [d.finish() for d in reference]
    ref_final = _state(reference, keys)

    for path in ("add", "step", "interleaved"):
        metrics, notices = MetricsRegistry(), []
        vec = BatchDetector(
            N, CONFIG, RULES[rule](), metrics, on_shutoff=lambda *n: notices.append(n)
        )
        returned = []
        for k, records in enumerate(batches):
            drained = {
                "add": range(N),
                "step": (),
                "interleaved": drains[k] if k < len(drains) else (),
            }[path]
            returned.append(_feed(vec, records, drained))
        views = [vec.view(r) for r in range(N)]
        assert returned == ref_returned, path
        assert _state(views, keys) == ref_state, path
        assert [vec.finish(r) for r in range(N)] == ref_finished, path
        assert _state(views, keys) == ref_final, path
        assert all(_python_fields(e) for v in views for e in v.events)
        assert sorted(notices) == sorted(ref_notices), path
        assert canonical_metrics(metrics) == canonical_metrics(ref_metrics), path
        assert metrics.histogram("detector.slice_duration_us").sum == pytest.approx(
            ref_metrics.histogram("detector.slice_duration_us").sum
        )


def test_shutoff_decision_boundary_per_lane():
    """One batch stream in which the lanes' means sit just under, exactly
    on and just over ``min_duration_us`` when the §5.3 window completes:
    only the first lane shuts off, and its deciding record is dropped."""
    durations = np.array([1.9999, 2.0, 2.0001])
    ranks = np.arange(3)
    vec = BatchDetector(3, CONFIG)
    reference = [RankOracle(r, CONFIG) for r in range(3)]
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
    reference = [RankOracle(r, CONFIG) for r in range(N)]
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


def test_mixed_record_and_fused_rows_ship_once_in_scalar_order():
    """Rows closed by per-record feeding (before the first fused Tock, and
    while a lane is drained) wait in the log beside the rows fused Tocks
    close; every row ships once, in the order a scalar run ships it."""
    sensors = {7: SimpleNamespace(sensor_type=SensorType.COMPUTATION)}
    # per rank: records every 6 us (slices of 10 us close every other one);
    # the first 3 arrive one by one, then fused Tocks, during which rank 0
    # drains for 4 records and re-fuses
    times = [6.0 * k for k in range(14)]
    drained = {0: set(range(N)), 1: set(range(N)), 2: set(range(N))}
    drained.update({k: {0} for k in range(6, 10)})

    def runtime():
        rt = VSensorRuntime(sensors=sensors, n_ranks=N, config=CONFIG, server=_BatchLog())
        rt.on_program_start(N)
        return rt

    def record(rt, rank, t):
        rt.on_sensor_record(rank, 7, t, t + 5.0 + rank, PmuSample(1.0, 0.1))

    scalar, mixed = runtime(), runtime()
    for t in times:
        for rank in range(N):
            record(scalar, rank, t)
    for k, t in enumerate(times):
        lanes = drained.get(k, set())
        for rank in sorted(lanes):
            record(mixed, rank, t)
        if k == 2:
            assert any(len(d.summaries) for d in mixed.detectors.values())
            assert not mixed.server.sent, "nothing was due yet: the rows wait in the log"
        fused = np.array([r for r in range(N) if r not in lanes])
        if not len(fused):
            continue
        deferred = []
        mixed.on_sensor_batch(
            SensorBatch(7, fused, np.full(len(fused), t), t + 5.0 + fused,
                        np.ones(len(fused)), np.full(len(fused), 0.1)),
            lambda lane, fn, args: deferred.append((fn, args)),
        )
        for fn, args in deferred:
            fn(*args)
    for rt in (scalar, mixed):
        for rank in range(N):
            rt.on_program_end(rank, times[-1] + 20.0)
    assert mixed.server.sent == scalar.server.sent
    for rank, batches in mixed.server.sent.items():
        shipped = [row for rows, _ in batches for row in rows]
        assert shipped == list(mixed.detectors[rank].summaries)
        assert len(batches) > 1
    assert mixed.events == scalar.events


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
    assert all(isinstance(d, RankView) for d in runs["bytecode"].runtime.detectors.values())
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


@pytest.mark.parametrize("governor", ["neutral", "adaptive"])
def test_governed_lockstep_run_takes_scalar_path(governor):
    wl = all_workloads()["CG"]
    machine = wl.machine(n_ranks=16, ranks_per_node=4)
    if governor == "neutral":
        run = run_with_governor(
            NeutralGovernor(), wl.source(), machine, engine="lockstep", faults=_FAULT,
            window_us=10_000.0, batch_period_us=5_000.0,
        )
    else:
        run = _run(wl.source(), machine, "lockstep", faults=_FAULT, governor=GovernorConfig())
    runtime = run.runtime
    assert not runtime.accepts_sensor_batches
    assert all(isinstance(d, RankView) for d in runtime.detectors.values())
    if governor == "neutral":
        # a governor that changes nothing in the engine is bit-identical to
        # no governor at all — scalar records on one side, batches on the other
        ungoverned = _run(wl.source(), machine, "lockstep", faults=_FAULT)
        assert runtime_state(run) == runtime_state(ungoverned)
        assert ungoverned.runtime.accepts_sensor_batches


# -- (g) unhappy paths: silent ranks and sensors shut off everywhere ---------

_ONE_RANK_SILENT = """
void kernel() { int i; for (i = 0; i < 10; i = i + 1) compute_units(20); }
int main() {
    int n; int r;
    r = MPI_Comm_rank();
    if (r != 2) {
        for (n = 0; n < 40; n = n + 1) kernel();
    }
    MPI_Barrier();
    return 0;
}
"""


def _runs_on_every_tier(source, **kwargs):
    machine = MachineConfig(n_ranks=16, ranks_per_node=4)
    return {
        engine: run_vsensor(source, machine, engine=engine, store=None, **kwargs)
        for engine in ("bytecode", "ast", "lockstep")
    }


def test_a_rank_that_records_nothing_ships_nothing_and_the_report_renders():
    runs = _runs_on_every_tier(_ONE_RANK_SILENT)
    for engine, run in runs.items():
        views = run.runtime.detectors
        assert views[2].records_processed == 0 and len(views[2].summaries) == 0, engine
        assert all(len(v.summaries) for r, v in views.items() if r != 2), engine
        # one batch per rank that has rows, none for the silent one
        assert run.report.batches_to_server == 15, engine
        assert run.report.summary().startswith("vSensor variance report — 16 ranks")
        assert runtime_state(run) == runtime_state(runs["bytecode"]), engine


def test_a_sensor_shut_off_on_every_rank_leaves_no_rows_and_the_report_renders():
    """``shutoff_after=1``: each sensor's first record decides, is dropped,
    and shuts the sensor off — zero summaries, so no batch (not even an
    empty one) reaches the server."""
    source = _ONE_RANK_SILENT.replace("if (r != 2)", "if (r >= 0)")
    detector = DetectorConfig(shutoff_after=1, min_duration_us=1e9)
    runs = _runs_on_every_tier(source, detector=detector)
    for engine, run in runs.items():
        views = run.runtime.detectors.values()
        assert all(v.shutoff and len(v.summaries) == 0 for v in views), engine
        assert run.report.shutoff_sensors == sum(len(v.shutoff) for v in views)
        assert run.report.batches_to_server == 0 and run.report.bytes_to_server == 0
        assert not run.report.matrices and not run.runtime.events
        assert "intra-process variance events: 0" in run.report.summary()
        assert runtime_state(run) == runtime_state(runs["bytecode"]), engine
