"""The clock model as a per-slice loop: the oracle of the capacity kernel.

:func:`oracle_advance` is the integrator the simulator used before it
tabulated capacity: one step per jitter slice (cut at fault edges), each
at the speed sampled at the step's start, work remaining subtracted step
by step.  It reads the same noise and fault helpers as the model's
definition (:meth:`NodeNoise.speed_multiplier`, ``cpu_factor_at``,
``mem_factor_at``) and none of the table code, so a disagreement beyond
float re-association points at the kernel.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import SimulationError
from repro.sim.faults import cpu_factor_at, fault_boundaries, mem_factor_at

#: slice steps one call may take before it is a "no headway" error
STEP_CAP = 10_000_000


def oracle_advance(clock, work_units: float) -> tuple[float, float]:
    """Advance ``clock`` (a :class:`RankClock`) by ``work_units`` the
    per-slice way; return (start, end) as ``advance_compute`` does."""
    start = t = clock.now
    if work_units <= 0:
        return start, start
    remaining = work_units
    slice_us = max(1.0, clock.machine.noise.jitter_slice_us)
    edges = fault_boundaries(clock.faults)
    edge_i = bisect_right(edges, t)
    node, frac = clock.node, clock.machine.mem_fraction
    for _ in range(STEP_CAP):
        cpu = node.cpu_speed * cpu_factor_at(clock.faults, node.node_id, t)
        cpu *= clock.noise.speed_multiplier(t)
        mem = node.mem_perf * mem_factor_at(clock.faults, node.node_id, t)
        speed = 1.0 / ((1.0 - frac) / max(cpu, 1e-9) + frac / max(cpu * mem, 1e-9))
        # Next boundary where speed may change; ``(k * S) / S`` can round
        # below ``k``, so a grid point not after ``t`` moves one further.
        k = int(t / slice_us)
        boundary = (k + 1) * slice_us
        if boundary <= t:
            boundary = (k + 2) * slice_us
        while edge_i < len(edges) and edges[edge_i] <= t:
            edge_i += 1
        if edge_i < len(edges) and edges[edge_i] < boundary:
            boundary = edges[edge_i]
        dt_max = boundary - t
        dt_needed = remaining / max(speed, 1e-9)
        if dt_needed <= dt_max:
            t += dt_needed
            break
        remaining -= speed * dt_max
        t = boundary
    else:
        raise SimulationError(f"oracle clock made no headway in {STEP_CAP} steps")
    t += clock.noise.interrupt_loss(start, t)
    clock.now = t
    return start, t
