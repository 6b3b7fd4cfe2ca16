"""Self-overhead budget: observability must cost <3% of run wall time.

The paper's whole premise is observation cheap enough to leave on
(<1% for vSensor probes, §6.3); the reproduction holds its *own*
observability to a 3% budget on the micro workloads.  CI runs this as
part of the ``obs`` job.
"""

from __future__ import annotations

import time

from repro.api import run_vsensor
from repro.obs import Obs
from repro.sim import MachineConfig
from repro.sim.noise import NoiseConfig
from repro.workloads import get_workload

BUDGET = 0.03


def _measure_once() -> tuple[float, Obs]:
    fwq = get_workload("FWQ")
    machine = MachineConfig(
        n_ranks=2,
        ranks_per_node=2,
        noise=NoiseConfig(jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0),
    )
    obs = Obs.create()
    t0 = time.perf_counter()
    run_vsensor(fwq.source(scale=1), machine, store=None, obs=obs)
    return time.perf_counter() - t0, obs


def test_micro_workload_overhead_under_budget():
    # best-of-2 guards against a one-off scheduler hiccup inflating the
    # self-cost brackets relative to the wall
    fractions = []
    for _ in range(2):
        wall, obs = _measure_once()
        fractions.append(obs.overhead_fraction(wall))
    best = min(fractions)
    assert best < BUDGET, (
        f"observability self-overhead {best:.2%} exceeds the {BUDGET:.0%} budget"
    )


def test_overhead_report_is_consistent():
    wall, obs = _measure_once()
    report = obs.overhead_report(wall)
    assert report["wall_s"] == wall
    # one calibration per registry: the report and the accessors state
    # the same measurement, not two timings of it
    assert report["tracer_self_s"] + report["metrics_estimated_s"] == obs.self_cost_s()
    assert report["overhead_fraction"] == obs.overhead_fraction(wall)
    assert report["spans"] > 0 and report["metric_ops"] > 0
