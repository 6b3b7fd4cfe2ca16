"""External fixed-work-quanta (FWQ) benchmarking baseline.

The pre-vSensor way to sense variance: run a benchmark that executes the
same quantum of work repeatedly and watch its timing.  It works, but is
*intrusive*: co-run with an application it competes for CPU/memory, adding
the very variance it measures.  ``run_fwq_probe`` runs the FWQ kernel on a
machine (optionally modelling application contention as a fault) and
returns the timing series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frontend import parse_source
from repro.sensors import identify_vsensors
from repro.instrument import instrument_module, select_sensors
from repro.sim import Fault, MachineConfig, Simulator
from repro.sim.hooks import RuntimeHooks
from repro.workloads.micro import fwq_source


@dataclass(slots=True)
class FwqObservation:
    """Per-quantum wall times observed by the FWQ probe."""

    times: np.ndarray       # (n_quanta,) durations in µs
    starts: np.ndarray      # (n_quanta,) start timestamps in µs
    total_time: float

    def variance_ratio(self) -> float:
        """max/min of the smoothed series — the FWQ detection signal."""
        if len(self.times) == 0:
            return 1.0
        smoothed = _smooth(self.times, 32)
        return float(smoothed.max() / max(smoothed.min(), 1e-9))


class _QuantumHooks(RuntimeHooks):
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def on_sensor_record(self, rank, sensor_id, t_start, t_end, pmu) -> None:
        if rank == 0:
            self.starts.append(t_start)
            self.durations.append(t_end - t_start)


def run_fwq_probe(
    machine: MachineConfig,
    faults: tuple[Fault, ...] = (),
    iterations: int = 5000,
    quantum_units: float = 10.0,
) -> FwqObservation:
    """Run the FWQ kernel on ``machine`` and record per-quantum timings."""
    module = parse_source(fwq_source(iterations=iterations, quantum_units=quantum_units))
    ident = identify_vsensors(module)
    plan = select_sensors(ident)
    program = instrument_module(module, plan.selected)
    hooks = _QuantumHooks()
    result = Simulator(program.module, machine, faults=faults).run(hooks)
    return FwqObservation(
        times=np.asarray(hooks.durations),
        starts=np.asarray(hooks.starts),
        total_time=result.total_time,
    )


def _smooth(series: np.ndarray, window: int) -> np.ndarray:
    if len(series) < window:
        return series
    kernel = np.ones(window) / window
    return np.convolve(series, kernel, mode="valid")
