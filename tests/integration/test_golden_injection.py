"""Golden regression: the Fig 18-20 injection scenario survives transports.

CG on 32 ranks with two CPU-contention episodes (nodes 1 and 3, at
25-45% and 60-80% of the run) is the paper's flagship localization
result.  This module pins the detected event set — region type, rank
band, time band, and the inter-process verdicts — under the default seed,
and then asserts the *same* event set emerges when the batches travel

* through the shared-file spool transport, and
* over a lossy channel (10% drop + duplication + reordering) with the
  sequenced retry transport — the PR's acceptance scenario.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.api import compile_and_instrument, run_vsensor
from repro.runtime.server import AnalysisServer
from repro.runtime.transport import FileSpool
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.sensors.model import SensorType
from repro.sim import CpuContention, MachineConfig, Simulator
from repro.workloads import get_workload

pytestmark = pytest.mark.slow

N_RANKS = 32
PER_NODE = 8
SCALE = 3
MIN_CELLS = 4


def _machine():
    return MachineConfig(n_ranks=N_RANKS, ranks_per_node=PER_NODE)


@pytest.fixture(scope="module")
def scenario():
    source = get_workload("CG").source(scale=SCALE)
    probe = run_vsensor(source, _machine())
    span = probe.sim.total_time
    injections = [
        CpuContention(node_ids=(1,), t0=0.25 * span, t1=0.45 * span, cpu_factor=0.35),
        CpuContention(node_ids=(3,), t0=0.60 * span, t1=0.80 * span, cpu_factor=0.35),
    ]
    return source, span, injections


def _region_signature(report):
    """Comparable event set: component, rank band, window band."""
    return sorted(
        (r.sensor_type.value, r.rank_lo, r.rank_hi,
         round(r.t_start_us / report.window_us), round(r.t_end_us / report.window_us))
        for r in report.regions
        if r.sensor_type is SensorType.COMPUTATION and r.cells >= MIN_CELLS
    )


def _inter_signature(server_or_events):
    events = getattr(server_or_events, "inter_events", server_or_events)
    return sorted(
        (e.sensor_type.value, e.window_index, e.slow_ranks)
        for e in events
        if e.sensor_type is SensorType.COMPUTATION
    )


@pytest.fixture(scope="module")
def golden(scenario):
    source, span, injections = scenario
    run = run_vsensor(
        source, _machine(), faults=injections,
        window_us=span / 16, batch_period_us=span / 16,
    )
    return run


def test_golden_run_localizes_both_episodes(golden, scenario):
    _source, span, _injections = scenario
    regions = _region_signature(golden.report)
    assert len(regions) == 2, "exactly the two injections must appear"
    (first, second) = sorted(regions, key=lambda r: r[3])
    assert (first[1], first[2]) == (8, 15), "episode 1 on node 1 = ranks 8-15"
    assert (second[1], second[2]) == (24, 31), "episode 2 on node 3 = ranks 24-31"
    assert _inter_signature(golden.runtime.server), "inter-process verdicts exist"


def test_spool_transport_matches_golden(golden, scenario, tmp_path):
    source, span, injections = scenario
    static = compile_and_instrument(source)
    spool = FileSpool(directory=str(tmp_path))
    # The rank side ships every batch into the spool instead of the server.
    writer = SimpleNamespace(batch_period_us=span / 16, receive_batch=spool.append_batch)
    runtime = VSensorRuntime(sensors=static.program.sensors, n_ranks=N_RANKS, server=writer)
    sim = Simulator(
        static.program.module, _machine(), faults=tuple(injections),
        sensors=static.program.sensors,
    ).run(runtime)
    spool.close()
    runtime.server = AnalysisServer(
        n_ranks=N_RANKS, window_us=span / 16, batch_period_us=span / 16
    )
    spool.drain_into(runtime.server, expected_ranks=N_RANKS)
    report = runtime.report(sim.total_time)

    assert _region_signature(report) == _region_signature(golden.report)
    assert _inter_signature(runtime.server) == _inter_signature(golden.runtime.server)
    # Intra-process detection happens rank-side: bit-identical by construction.
    assert report.intra_events == golden.report.intra_events
    assert report.degraded_ranks == ()


def test_lossy_channel_matches_golden(golden, scenario):
    """Acceptance: 10% drop + reorder + duplication, same localized events."""
    source, span, injections = scenario
    run = run_vsensor(
        source, _machine(), faults=injections,
        window_us=span / 16, batch_period_us=span / 16,
        channel="drop=0.1,dup=0.1,reorder=0.2",
    )
    assert _region_signature(run.report) == _region_signature(golden.report)
    assert _inter_signature(run.runtime.server) == _inter_signature(
        golden.runtime.server
    )
    assert run.report.intra_events == golden.report.intra_events
    stats = run.channel_stats
    assert stats is not None and stats["dropped"] > 0, "loss must actually occur"
    assert stats["retried"] > 0
    assert run.report.degraded_ranks == (), "retries recover every batch"
    assert run.report.coverage_confidence == pytest.approx(1.0)
