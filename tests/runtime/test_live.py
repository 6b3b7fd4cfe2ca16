"""Live-reporter tests (on-line report updates, §2 step 8)."""

import numpy as np
import pytest

from repro.api import run_vsensor
from repro.runtime.live import LiveReporter, first_detection_time
from repro.sensors.model import SensorType
from repro.sim import CpuContention, MachineConfig
from tests.conftest import SIMPLE_MPI_PROGRAM


def test_snapshots_taken_periodically():
    reporter = LiveReporter(period_us=500.0)
    run = run_vsensor(
        SIMPLE_MPI_PROGRAM,
        MachineConfig(n_ranks=4, ranks_per_node=2),
        batch_period_us=250.0,
        live=reporter,
    )
    assert len(reporter.snapshots) >= 2
    times = [s.virtual_time_us for s in reporter.snapshots]
    assert times == sorted(times)
    assert all(b - a >= 500.0 for a, b in zip(times, times[1:]))


def test_snapshot_carries_matrices():
    reporter = LiveReporter(period_us=500.0)
    run_vsensor(
        SIMPLE_MPI_PROGRAM,
        MachineConfig(n_ranks=4, ranks_per_node=2),
        batch_period_us=250.0,
        window_us=500.0,
        live=reporter,
    )
    last = reporter.snapshots[-1]
    assert SensorType.COMPUTATION in last.matrices
    assert last.matrices[SensorType.COMPUTATION].shape[0] == 4


def test_callback_invoked():
    seen = []
    reporter = LiveReporter(period_us=500.0, callback=seen.append)
    run_vsensor(
        SIMPLE_MPI_PROGRAM,
        MachineConfig(n_ranks=4, ranks_per_node=2),
        batch_period_us=250.0,
        live=reporter,
    )
    assert len(seen) == len(reporter.snapshots)


def test_variance_noticed_before_program_end():
    """The on-line promise: an episode early in the run is visible in a
    snapshot taken well before the program finishes."""
    machine = MachineConfig(n_ranks=8, ranks_per_node=4)
    probe = run_vsensor(SIMPLE_MPI_PROGRAM, machine)
    span = probe.sim.total_time

    reporter = LiveReporter(period_us=span / 20)
    run = run_vsensor(
        SIMPLE_MPI_PROGRAM,
        machine,
        faults=[CpuContention(node_ids=(0,), t0=0.1 * span, t1=0.4 * span, cpu_factor=0.25)],
        window_us=span / 20,
        batch_period_us=span / 40,
        live=reporter,
    )
    detected_at = first_detection_time(reporter)
    assert detected_at is not None
    assert detected_at < 0.8 * run.sim.total_time


def test_no_variance_no_detection_time():
    reporter = LiveReporter(period_us=500.0)
    run_vsensor(
        SIMPLE_MPI_PROGRAM,
        MachineConfig(n_ranks=4, ranks_per_node=2),
        batch_period_us=250.0,
        live=reporter,
    )
    comp_lows = [s.low_cells.get(SensorType.COMPUTATION, 0) for s in reporter.snapshots]
    assert all(c == 0 for c in comp_lows)


# ---------------------------------------------------------------------------
# Snapshots under degraded ranks / lossy channels
# ---------------------------------------------------------------------------


def _lossy_run(reporter, drop: float, max_attempts: int = 2):
    from repro.runtime.transport import RetryPolicy

    return run_vsensor(
        SIMPLE_MPI_PROGRAM,
        MachineConfig(n_ranks=4, ranks_per_node=2),
        batch_period_us=250.0,
        live=reporter,
        channel=f"drop={drop},seed=11",
        retry_policy=RetryPolicy(timeout_us=100.0, max_attempts=max_attempts),
    )


def test_snapshot_surfaces_channel_counters():
    reporter = LiveReporter(period_us=500.0)
    run = _lossy_run(reporter, drop=0.3, max_attempts=16)
    assert reporter.snapshots, "lossy run produced no snapshots"
    last = reporter.snapshots[-1]
    assert last.channel is not None
    assert last.channel["sent"] > 0
    assert set(last.channel) == set(run.channel_stats)


def test_snapshot_degraded_ranks_under_heavy_loss():
    reporter = LiveReporter(period_us=250.0)
    run = _lossy_run(reporter, drop=0.97, max_attempts=2)
    degraded_final = run.report.degraded_ranks
    assert degraded_final, "expected heavy loss to degrade some rank"
    with_degraded = [s for s in reporter.snapshots if s.degraded_ranks]
    assert with_degraded, "no snapshot observed the degraded set"
    for snapshot in with_degraded:
        assert list(snapshot.degraded_ranks) == sorted(snapshot.degraded_ranks)
        assert set(snapshot.degraded_ranks) <= set(degraded_final)


def test_snapshot_build_unwraps_transport_proxy():
    """_build must read ``degraded`` from the real server behind a
    ReliableTransport proxy, and counters from its channel."""
    from repro.runtime.channel import perfect_channel
    from repro.runtime.detector import DetectorConfig
    from repro.runtime.server import AnalysisServer
    from repro.runtime.transport import ReliableTransport

    server = AnalysisServer(n_ranks=2)
    server.mark_degraded(1)
    transport = ReliableTransport(server=server, channel=perfect_channel())

    class FakeRuntime:
        pass

    runtime = FakeRuntime()
    runtime.server = transport
    runtime.events = []
    runtime.config = DetectorConfig()
    reporter = LiveReporter(period_us=0.0)
    snapshot = reporter.maybe_snapshot(runtime, now=1.0)
    assert snapshot is not None
    assert snapshot.degraded_ranks == (1,)
    assert snapshot.channel == transport.channel.stats.as_dict()
    assert snapshot.matrices == {}  # no data yet: all-NaN matrices are omitted


def test_snapshot_without_channel_has_none():
    reporter = LiveReporter(period_us=500.0)
    run_vsensor(
        SIMPLE_MPI_PROGRAM,
        MachineConfig(n_ranks=4, ranks_per_node=2),
        batch_period_us=250.0,
        live=reporter,
    )
    assert all(s.channel is None for s in reporter.snapshots)
    assert all(s.degraded_ranks == () for s in reporter.snapshots)
